package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

func TestRingWraparound(t *testing.T) {
	tr := New(8)
	clock := int64(0)
	tr.SetClock(func() int64 { return clock })
	names := []string{"e0", "e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9",
		"e10", "e11", "e12", "e13", "e14", "e15", "e16", "e17", "e18", "e19"}
	for i, n := range names {
		clock = int64(i) * 100
		tr.Instant("h", "c", "cat", n, U("i", uint64(i)))
	}
	if got := tr.Total(); got != 20 {
		t.Errorf("Total = %d, want 20", got)
	}
	if got := tr.Len(); got != 8 {
		t.Errorf("Len = %d, want 8", got)
	}
	if got := tr.Dropped(); got != 12 {
		t.Errorf("Dropped = %d, want 12", got)
	}
	evs := tr.Events()
	if len(evs) != 8 {
		t.Fatalf("Events returned %d, want 8", len(evs))
	}
	// Oldest retained is e12, newest e19, strictly in order.
	for i, e := range evs {
		want := names[12+i]
		if e.Name != want {
			t.Errorf("event %d: name %q, want %q", i, e.Name, want)
		}
		if e.Ts != int64(12+i)*100 {
			t.Errorf("event %d: ts %d, want %d", i, e.Ts, int64(12+i)*100)
		}
	}
}

func TestPartialRing(t *testing.T) {
	tr := New(16)
	tr.Instant("h", "c", "cat", "only")
	if tr.Len() != 1 || tr.Dropped() != 0 {
		t.Errorf("Len=%d Dropped=%d, want 1, 0", tr.Len(), tr.Dropped())
	}
	evs := tr.Events()
	if len(evs) != 1 || evs[0].Name != "only" {
		t.Fatalf("Events = %+v, want one event named 'only'", evs)
	}
}

// TestNilTracerNoOp is the zero-cost-when-disabled contract: every emit
// method on a nil *Tracer must be safe and allocation-free, because the
// entire codebase calls them unguarded on hot paths.
func TestNilTracerNoOp(t *testing.T) {
	var tr *Tracer
	if tr.Enabled() {
		t.Fatal("nil tracer reports Enabled")
	}
	if id := tr.NewID(); id != 0 {
		t.Fatalf("nil tracer minted non-zero ID %#x", uint64(id))
	}
	if tr.Len() != 0 || tr.Total() != 0 || tr.Events() != nil {
		t.Fatal("nil tracer reports retained state")
	}
	allocs := testing.AllocsPerRun(1000, func() {
		tr.Instant("h", "c", "cat", "n", U("a", 1), S("b", "x"))
		tr.Begin("h", "c", "cat", "n", D("d", time.Microsecond))
		tr.End("h", "c", B("ok", true))
		tr.Complete("h", "c", "cat", "n", time.Microsecond, F("f", 1.5))
		tr.Counter("h", "c", "n", 3.25)
		id := tr.NewID()
		tr.SpanBegin(id, "h", "c", "cat", "n", I("i", -1))
		tr.SpanStep(id, "h", "c", "cat", "n")
		tr.SpanEnd(id, "h", "c", "cat", "n")
	})
	if allocs != 0 {
		t.Errorf("nil tracer allocated %.1f times per run, want 0", allocs)
	}
}

// TestEnabledTracerAllocFree checks the recording path too: the ring is
// preallocated and argument packs are value structs, so steady-state
// emission should not touch the heap either.
func TestEnabledTracerAllocFree(t *testing.T) {
	tr := New(1024)
	allocs := testing.AllocsPerRun(1000, func() {
		tr.Instant("h", "c", "cat", "n", U("a", 1), S("b", "x"))
		tr.Complete("h", "c", "cat", "n", time.Microsecond, F("f", 1.5))
		tr.SpanStep(tr.NewID(), "h", "c", "cat", "n", I("i", -1))
	})
	if allocs != 0 {
		t.Errorf("enabled tracer allocated %.1f times per run, want 0", allocs)
	}
}

func TestNewIDDeterministic(t *testing.T) {
	mk := func() []ID {
		tr := New(4)
		clock := int64(5000)
		tr.SetClock(func() int64 { return clock })
		ids := make([]ID, 4)
		for i := range ids {
			clock += 100
			ids[i] = tr.NewID()
		}
		return ids
	}
	a, b := mk(), mk()
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("ID %d differs across identical runs: %#x vs %#x", i, uint64(a[i]), uint64(b[i]))
		}
		if a[i] == 0 {
			t.Errorf("ID %d is the untraced sentinel", i)
		}
	}
	if a[0] == a[1] {
		t.Error("consecutive IDs collide")
	}
}

// chromeEvent mirrors the exporter's JSON schema for round-trip checks.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  *float64       `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	ID   string         `json:"id"`
	Args map[string]any `json:"args"`
}

func TestJSONRoundTrip(t *testing.T) {
	tr := New(64)
	clock := int64(0)
	tr.SetClock(func() int64 { return clock })

	clock = 1000
	tr.Begin("host0", "engine", "sim", "run")
	tr.Instant("host1", "transport", "pkt", "drop", S("reason", "taildrop"))
	id := tr.NewID()
	tr.SpanBegin(id, "host0", "transport", "pkt", "packet", U("seq", 1))
	clock = 2500
	tr.SpanStep(id, "fabric", "fabric", "pkt", "hop", S("link", "tor0"))
	tr.Complete("host0", "rnic0", "rnic", "rdma-write", 480*time.Nanosecond,
		S("mode", "emtt-translated"), B("hit", true))
	tr.Counter("host0", "transport", "cwnd", 262144)
	clock = 4000
	tr.SpanEnd(id, "host1", "transport", "pkt", "packet", D("rtt", 3*time.Microsecond))
	tr.End("host0", "engine")

	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	var doc struct {
		TraceEvents     []chromeEvent `json:"traceEvents"`
		DisplayTimeUnit string        `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("exported trace is not valid JSON: %v", err)
	}
	if doc.DisplayTimeUnit != "ns" {
		t.Errorf("displayTimeUnit = %q, want ns", doc.DisplayTimeUnit)
	}

	var meta, data int
	spanPhases := map[string]int{}
	for _, e := range doc.TraceEvents {
		if e.Ph == "M" {
			meta++
			continue
		}
		data++
		if e.Pid < 1 || e.Tid < 1 {
			t.Errorf("event %q has pid=%d tid=%d, want >= 1", e.Name, e.Pid, e.Tid)
		}
		switch e.Ph {
		case "b", "n", "e":
			spanPhases[e.Ph]++
			if e.ID == "" {
				t.Errorf("span event %q lacks an id", e.Name)
			}
			if !strings.HasPrefix(e.ID, "0x") {
				t.Errorf("span event id %q not hex-prefixed", e.ID)
			}
		case "X":
			if e.Dur == nil {
				t.Errorf("complete event %q lacks dur", e.Name)
			} else if *e.Dur != 0.48 { // 480 ns in µs
				t.Errorf("complete event dur = %v µs, want 0.48", *e.Dur)
			}
		case "B", "E", "i", "C":
		default:
			t.Errorf("unexpected phase %q", e.Ph)
		}
	}
	if data != 8 {
		t.Errorf("exported %d data events, want 8", data)
	}
	// 3 hosts (fabric, host0, host1) + their lanes.
	if meta < 3 {
		t.Errorf("exported %d metadata events, want >= 3", meta)
	}
	if spanPhases["b"] != 1 || spanPhases["n"] != 1 || spanPhases["e"] != 1 {
		t.Errorf("span phases = %v, want one each of b/n/e", spanPhases)
	}

	// Deterministic export: identical ring → identical bytes.
	var buf2 bytes.Buffer
	if err := tr.WriteJSON(&buf2); err != nil {
		t.Fatalf("second WriteJSON: %v", err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Error("two exports of the same ring differ byte-for-byte")
	}
}

func TestArgOverflowTruncates(t *testing.T) {
	tr := New(4)
	tr.Instant("h", "c", "cat", "n",
		U("a", 1), U("b", 2), U("c", 3), U("d", 4), U("e", 5), U("f", 6))
	evs := tr.Events()
	if len(evs) != 1 {
		t.Fatalf("got %d events", len(evs))
	}
	if evs[0].NArgs != maxArgs {
		t.Errorf("NArgs = %d, want %d (extras dropped)", evs[0].NArgs, maxArgs)
	}
}
