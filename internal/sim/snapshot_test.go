package sim

import (
	"testing"
	"time"
)

// TestRNGStateRoundTrip pins the State/SetState contract: restoring a
// captured state continues the stream exactly, and capturing is
// non-destructive (the source stream is unperturbed).
func TestRNGStateRoundTrip(t *testing.T) {
	r := NewRNG(99)
	for i := 0; i < 57; i++ {
		r.Uint64()
	}
	st := r.State()
	var want [16]uint64
	for i := range want {
		want[i] = r.Uint64()
	}
	clone := NewRNG(0)
	clone.SetState(st)
	for i := range want {
		if got := clone.Uint64(); got != want[i] {
			t.Fatalf("restored stream diverged at draw %d: got %#x want %#x", i, got, want[i])
		}
	}
	// A second restore replays the same tail again.
	clone.SetState(st)
	if got := clone.Uint64(); got != want[0] {
		t.Errorf("second restore diverged immediately: got %#x want %#x", got, want[0])
	}
}

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

// TestShardedSnapshotQuiescent checks the sharded group's boundary
// predicate and per-shard snapshot determinism.
func TestShardedSnapshotQuiescent(t *testing.T) {
	run := func() []EngineSnapshot {
		se := NewShardedEngine(11, SchedulerWheel, 4)
		for i := 0; i < se.NumShards(); i++ {
			eng := se.Shard(i)
			n := 8 + i
			var tick func()
			tick = func() {
				if n > 0 {
					n--
					eng.After(Duration(eng.RNG().Intn(900)+1)*time.Nanosecond, tick)
				}
			}
			eng.After(time.Nanosecond, tick)
		}
		if se.Quiescent() {
			t.Fatal("group with scheduled events claims quiescence")
		}
		se.RunAll()
		if !se.Quiescent() {
			t.Fatal("drained group is not quiescent")
		}
		return se.Snapshot()
	}
	a, b := run(), run()
	if len(a) != 4 || len(b) != 4 {
		t.Fatalf("snapshot lengths %d/%d, want 4", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("shard %d snapshot differs across identical runs:\n%+v\n%+v", i, a[i], b[i])
		}
	}
}
