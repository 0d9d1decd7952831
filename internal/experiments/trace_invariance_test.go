package experiments

import (
	"testing"

	"repro/internal/collective"
	"repro/internal/multipath"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/transport"
)

// runTracedRing drives a small cross-segment ring AllReduce and returns
// its observables plus the tracer's contents (nil tracer = untraced).
func runTracedRing(t *testing.T, tr *trace.Tracer) (collective.Result, sim.Time) {
	t.Helper()
	var res collective.Result
	s := NewSession(77)
	s.Tracer = tr
	eng, _, eps := s.cluster(netConfig(4, 8), transport.Config{})
	ring, err := collective.NewRing(
		interleave(eps, 8, 4), 1, multipath.OBS, 16)
	if err != nil {
		t.Fatalf("run failed: %v", err)
	}
	ring.Reduce(eng, 2<<20, func(r collective.Result) { res = r })
	end := eng.RunAll()
	return res, end
}

// TestTracingDoesNotPerturbResults is the determinism contract: a traced
// run must be numerically identical to an untraced run with the same
// seed — the wrapper selectors consume no randomness and tracing
// schedules no events.
func TestTracingDoesNotPerturbResults(t *testing.T) {
	plain, plainEnd := runTracedRing(t, nil)
	tr := trace.New(1 << 16)
	traced, tracedEnd := runTracedRing(t, tr)

	if plain.End != traced.End || plain.BusBW != traced.BusBW ||
		plain.VolumePerFlow != traced.VolumePerFlow {
		t.Errorf("traced run diverged: plain=%+v traced=%+v", plain, traced)
	}
	if plainEnd != tracedEnd {
		t.Errorf("engine end time diverged: %v vs %v", plainEnd, tracedEnd)
	}
	if tr.Total() == 0 {
		t.Fatal("traced run recorded no events")
	}

	// The flight recorder should have seen the whole vertical: spans and
	// slices from the engine, transport, fabric, and the collective
	// layer at minimum. Path decisions are steps of the transport's
	// packet spans.
	comps := map[string]bool{}
	for _, e := range tr.Events() {
		comps[e.Comp] = true
	}
	for _, want := range []string{"engine", "transport", "fabric", "collective"} {
		if !comps[want] {
			t.Errorf("no events from component %q (saw %v)", want, comps)
		}
	}

	// And identical traced runs must produce identical rings.
	tr2 := trace.New(1 << 16)
	runTracedRing(t, tr2)
	a, b := tr.Events(), tr2.Events()
	if len(a) != len(b) {
		t.Fatalf("re-run recorded %d events vs %d", len(b), len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("event %d differs across identical runs:\n  %+v\n  %+v", i, a[i], b[i])
		}
	}
}
