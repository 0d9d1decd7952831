package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"time"
)

// The exporter translates the ring into Chrome trace-event JSON (the
// "JSON Array Format" with a traceEvents wrapper) that Perfetto and
// chrome://tracing load directly. Timestamps are virtual-time
// microseconds; each simulated host becomes a "process", each component
// a "thread".

// jsonEvent is one Chrome trace-event record.
type jsonEvent struct {
	Name string         `json:"name,omitempty"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  *float64       `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	ID   string         `json:"id,omitempty"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// jsonTrace is the top-level document.
type jsonTrace struct {
	TraceEvents     []jsonEvent `json:"traceEvents"`
	DisplayTimeUnit string      `json:"displayTimeUnit"`
}

// phaseCode maps recorder phases onto Chrome trace-event phase codes.
func phaseCode(p Phase) string {
	switch p {
	case PhaseInstant:
		return "i"
	case PhaseBegin:
		return "B"
	case PhaseEnd:
		return "E"
	case PhaseComplete:
		return "X"
	case PhaseCounter:
		return "C"
	case PhaseSpanBegin:
		return "b"
	case PhaseSpanStep:
		return "n"
	case PhaseSpanEnd:
		return "e"
	default:
		return "i"
	}
}

// argValue unpacks an Arg for JSON.
func argValue(a Arg) any {
	switch a.Kind {
	case ArgUint:
		return a.Num
	case ArgInt:
		return int64(a.Num)
	case ArgFloat:
		return a.Flt
	case ArgString:
		return a.Str
	case ArgDuration:
		return time.Duration(a.Num).String()
	case ArgBool:
		return a.Num != 0
	default:
		return nil
	}
}

// laneKey identifies one (host, component) timeline.
type laneKey struct{ host, comp string }

// WriteJSON renders the retained events as Chrome trace-event JSON.
// Process/thread IDs are assigned deterministically (hosts and
// components in sorted order) so identical runs produce identical
// bytes.
func (t *Tracer) WriteJSON(w io.Writer) error {
	events := t.Events()

	// Deterministic pid/tid assignment.
	hostSet := map[string]bool{}
	laneSet := map[laneKey]bool{}
	for i := range events {
		hostSet[events[i].Host] = true
		laneSet[laneKey{events[i].Host, events[i].Comp}] = true
	}
	hosts := make([]string, 0, len(hostSet))
	for h := range hostSet {
		hosts = append(hosts, h)
	}
	sort.Strings(hosts)
	pid := map[string]int{}
	for i, h := range hosts {
		pid[h] = i + 1 // Perfetto treats pid 0 as the idle/unknown process
	}
	lanes := make([]laneKey, 0, len(laneSet))
	for k := range laneSet {
		lanes = append(lanes, k)
	}
	sort.Slice(lanes, func(i, j int) bool {
		if lanes[i].host != lanes[j].host {
			return lanes[i].host < lanes[j].host
		}
		return lanes[i].comp < lanes[j].comp
	})
	tid := map[laneKey]int{}
	nextTid := map[string]int{}
	for _, k := range lanes {
		nextTid[k.host]++
		tid[k] = nextTid[k.host]
	}

	out := jsonTrace{DisplayTimeUnit: "ns"}
	out.TraceEvents = make([]jsonEvent, 0, len(events)+2*len(lanes))

	// Metadata: name the processes and threads.
	for _, h := range hosts {
		out.TraceEvents = append(out.TraceEvents, jsonEvent{
			Name: "process_name", Ph: "M", Pid: pid[h],
			Args: map[string]any{"name": h},
		})
	}
	for _, k := range lanes {
		out.TraceEvents = append(out.TraceEvents, jsonEvent{
			Name: "thread_name", Ph: "M", Pid: pid[k.host], Tid: tid[k],
			Args: map[string]any{"name": k.comp},
		})
	}

	for i := range events {
		e := &events[i]
		je := jsonEvent{
			Name: e.Name,
			Cat:  e.Cat,
			Ph:   phaseCode(e.Phase),
			Ts:   float64(e.Ts) / 1e3, // virtual ns -> trace µs
			Pid:  pid[e.Host],
			Tid:  tid[laneKey{e.Host, e.Comp}],
		}
		if e.Cat == "" {
			je.Cat = "sim"
		}
		switch e.Phase {
		case PhaseComplete:
			d := float64(e.Dur) / 1e3
			je.Dur = &d
		case PhaseInstant:
			je.S = "t" // thread-scoped instant
		case PhaseSpanBegin, PhaseSpanStep, PhaseSpanEnd:
			je.ID = fmt.Sprintf("0x%x", uint64(e.ID))
		case PhaseEnd:
			// "E" events close the latest "B" on the lane; name optional.
		}
		if e.NArgs > 0 {
			args := make(map[string]any, e.NArgs)
			for _, a := range e.Args[:e.NArgs] {
				args[a.Key] = argValue(a)
			}
			je.Args = args
		}
		out.TraceEvents = append(out.TraceEvents, je)
	}

	enc := json.NewEncoder(w)
	return enc.Encode(out)
}

// WriteJSONFile writes the Chrome trace to path.
func (t *Tracer) WriteJSONFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	if err := t.WriteJSON(bw); err != nil {
		f.Close()
		return err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
