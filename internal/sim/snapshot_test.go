package sim

import (
	"testing"
	"time"
)

// TestRNGStateForkIndependence checks that capturing state does not
// consume draws: forks taken before and after State() are identical.
func TestRNGStateForkIndependence(t *testing.T) {
	a, b := NewRNG(7), NewRNG(7)
	_ = a.State()
	fa, fb := a.Fork(3), b.Fork(3)
	for i := 0; i < 8; i++ {
		if fa.Uint64() != fb.Uint64() {
			t.Fatal("State() perturbed the parent stream")
		}
	}
}

// TestEngineSnapshotDeterministic runs the same seeded workload twice
// and checks the quiescent snapshots agree field for field, and that a
// differently seeded run disagrees (the snapshot actually captures the
// RNG, not just the clock).
func TestEngineSnapshotDeterministic(t *testing.T) {
	run := func(seed uint64) EngineSnapshot {
		e := NewEngine(seed)
		var hops int
		var step func()
		step = func() {
			hops++
			if hops < 64 {
				e.After(Duration(e.RNG().Intn(5000))*time.Nanosecond, step)
			}
		}
		e.After(time.Microsecond, step)
		e.RunAll()
		return e.Snapshot()
	}
	a, b := run(42), run(42)
	if a != b {
		t.Fatalf("identical runs produced different snapshots:\n%+v\n%+v", a, b)
	}
	if a.Pending != 0 {
		t.Errorf("drained engine reports %d pending events, want 0", a.Pending)
	}
	if a.Fired == 0 || a.Now == 0 {
		t.Errorf("snapshot missed progress: %+v", a)
	}
	if c := run(43); c == a {
		t.Error("different seed produced an identical snapshot; RNG state not captured")
	}
}
