package transport

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/fabric"
	"repro/internal/multipath"
	"repro/internal/sim"
	"repro/internal/trace"
)

// tracedRig is newRig with a flight recorder on the engine, so the
// transport opens packet spans and the fabric steps them.
func tracedRig(t *testing.T, fcfg fabric.Config) (*rig, *trace.Tracer) {
	t.Helper()
	tr := trace.New(1 << 14)
	eng := sim.NewEngine(1)
	eng.SetTracer(tr)
	f := fabric.New(eng, fcfg)
	r := &rig{eng: eng, f: f}
	for h := 0; h < f.NumHosts(); h++ {
		r.eps = append(r.eps, NewEndpoint(f, fabric.HostID(h), Config{}))
	}
	return r, tr
}

// packetSteps maps each packet span to its steps in order, each step as
// "name" or "name@link" when the step names a link.
func packetSteps(t *testing.T, tr *trace.Tracer) map[trace.ID][]string {
	t.Helper()
	if tr.Dropped() > 0 {
		t.Fatalf("trace ring wrapped: %d events overwritten", tr.Dropped())
	}
	spans := map[trace.ID][]string{}
	for _, ev := range tr.Events() {
		switch {
		case ev.Phase == trace.PhaseSpanBegin && ev.Name == "packet":
			spans[ev.ID] = nil
		case ev.Phase == trace.PhaseSpanStep && ev.ID != 0:
			if _, ok := spans[ev.ID]; !ok {
				continue
			}
			step := ev.Name
			if ev.NArgs > 0 && ev.Args[0].Key == "link" {
				step += "@" + ev.Args[0].Str
			}
			spans[ev.ID] = append(spans[ev.ID], step)
		}
	}
	return spans
}

// TestPacketSpanSteps: under a tracer, every data packet's span records
// one hop per link of its route, an ecn-mark where a queue marked it,
// and its deliver step, all under the packet's span ID.
func TestPacketSpanSteps(t *testing.T) {
	cfg := smallCfg()
	cfg.ECNThreshold = 16 << 10 // the window's first burst queues past it at the NIC
	r, tr := tracedRig(t, cfg)
	c, err := Connect(r.eps[0], r.eps[4], 1, multipath.OBS, 4)
	if err != nil {
		t.Fatal(err)
	}
	c.Send(256<<10, nil)
	r.eng.RunAll()
	if c.CompletedMessages() != 1 {
		t.Fatal("message never completed")
	}
	spans := packetSteps(t, tr)
	if want := int(c.nextSeq); len(spans) != want {
		t.Fatalf("%d packet spans, want %d", len(spans), want)
	}
	marked := 0
	for id, steps := range spans {
		var hops []string
		delivered := 0
		for _, s := range steps {
			switch {
			case s == "ecn-mark@host0->tor":
				marked++
			case len(s) > 4 && s[:4] == "hop@":
				hops = append(hops, s[4:])
			case s == "deliver":
				delivered++
			}
		}
		if len(hops) != 4 || hops[0] != "host0->tor" || hops[3] != "tor->host4" {
			t.Errorf("span %d hops %v, want host0->tor, two agg links, tor->host4", id, hops)
			continue
		}
		var agg int
		if _, err := fmt.Sscanf(hops[1], "tor0->agg%d", &agg); err != nil {
			t.Errorf("span %d second hop %q is not a segment-0 uplink", id, hops[1])
		} else if want := fmt.Sprintf("agg%d->tor1", agg); hops[2] != want {
			t.Errorf("span %d third hop %q, want %q", id, hops[2], want)
		}
		if delivered != 1 {
			t.Errorf("span %d delivered %d times, want 1", id, delivered)
		}
	}
	if marked == 0 {
		t.Error("no packet span recorded an ecn-mark")
	}
}

// TestPacketSpanDrop: a packet lost to a failed link records a drop
// step naming the link under its span, and its retransmission after
// the repair finishes the same span with a deliver step.
func TestPacketSpanDrop(t *testing.T) {
	r, tr := tracedRig(t, smallCfg())
	down := fabric.HostLink(4, fabric.DirDown)
	if err := r.f.SetFault(down, fabric.Fault{Down: true}); err != nil {
		t.Fatal(err)
	}
	c, err := Connect(r.eps[0], r.eps[4], 1, multipath.OBS, 4)
	if err != nil {
		t.Fatal(err)
	}
	c.Send(4096, nil)
	r.eng.Run(sim.Time(50 * time.Microsecond))
	if err := r.f.SetFault(down, fabric.Fault{}); err != nil {
		t.Fatal(err)
	}
	r.eng.RunAll()
	if c.CompletedMessages() != 1 {
		t.Fatal("message never completed after the repair")
	}
	spans := packetSteps(t, tr)
	if len(spans) != 1 {
		t.Fatalf("%d packet spans, want 1", len(spans))
	}
	for id, steps := range spans {
		drop, deliver := -1, -1
		for i, s := range steps {
			switch s {
			case "drop@tor->host4":
				drop = i
			case "deliver":
				deliver = i
			}
		}
		if drop < 0 || deliver < drop {
			t.Errorf("span %d steps %v, want a drop at tor->host4, then a deliver", id, steps)
		}
	}
}
