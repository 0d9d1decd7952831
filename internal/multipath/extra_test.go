package multipath

import (
	"testing"
	"time"

	"repro/internal/sim"
)

func TestFlowletSticksWithoutGap(t *testing.T) {
	// Back-to-back packets (bulk RDMA) never open a flowlet boundary:
	// the selector behaves like single-path.
	f := newFlowlet(64, sim.NewRNG(1))
	var now sim.Time
	f.SetClock(func() sim.Time { return now })
	first := f.NextPath()
	for i := 0; i < 1000; i++ {
		now = now.Add(time.Microsecond) // 1 µs spacing << 50 µs gap
		if f.NextPath() != first {
			t.Fatal("flowlet switched paths mid-burst")
		}
	}
	if f.Switches() != 0 {
		t.Errorf("Switches = %d during a continuous burst", f.Switches())
	}
}

func TestFlowletSwitchesAfterGap(t *testing.T) {
	f := newFlowlet(64, sim.NewRNG(2))
	var now sim.Time
	f.SetClock(func() sim.Time { return now })
	seen := map[int]bool{f.NextPath(): true}
	for i := 0; i < 50; i++ {
		now = now.Add(time.Millisecond) // every send follows a long gap
		seen[f.NextPath()] = true
	}
	if len(seen) < 10 {
		t.Errorf("flowlet used only %d paths despite 50 gaps", len(seen))
	}
	if f.Switches() == 0 {
		t.Error("no flowlet boundaries recorded")
	}
}

func TestFlowletWithoutClockIsSinglePath(t *testing.T) {
	// The transport wires clocks in; a clockless flowlet must not
	// misbehave — frozen time means no gaps, one path.
	s := New(Flowlet, 16, sim.NewRNG(3))
	first := s.NextPath()
	for i := 0; i < 100; i++ {
		if s.NextPath() != first {
			t.Fatal("clockless flowlet moved")
		}
	}
}

func TestPathAwareAvoidsCongestedPaths(t *testing.T) {
	p := newPathAware(8, sim.NewRNG(4))
	p.Feedback(3, 20*time.Microsecond, false, true) // loss on path 3
	hits := 0
	for i := 0; i < 32; i++ {
		if p.NextPath() == 3 {
			hits++
		}
	}
	if hits > 4 {
		t.Errorf("path-aware used a lost path %d/32 times", hits)
	}
}

func TestPathAwareRecyclesCleanPaths(t *testing.T) {
	p := newPathAware(128, sim.NewRNG(5))
	p.Feedback(42, 20*time.Microsecond, false, false) // clean ack
	if got := p.NextPath(); got != 42 {
		t.Errorf("NextPath = %d, want recycled 42", got)
	}
}

func TestPathAwareRecycleSkipsCooling(t *testing.T) {
	p := newPathAware(8, sim.NewRNG(6))
	p.Feedback(2, 20*time.Microsecond, false, false) // recycled
	p.Feedback(2, 20*time.Microsecond, true, false)  // then marked
	if got := p.NextPath(); got == 2 {
		t.Error("recycled a path that later got marked")
	}
}

func TestExtraAlgorithmsRegistered(t *testing.T) {
	if Flowlet.String() != "flowlet" || PathAware.String() != "path-aware" {
		t.Error("algorithm strings")
	}
	for _, alg := range []Algorithm{Flowlet, PathAware} {
		s := New(alg, 16, sim.NewRNG(7))
		for i := 0; i < 200; i++ {
			p := s.NextPath()
			if p < 0 || p >= 16 {
				t.Fatalf("%s out of range", alg)
			}
			s.Feedback(p, 10*time.Microsecond, i%5 == 0, i%13 == 0)
		}
	}
	if _, ok := New(Flowlet, 4, sim.NewRNG(8)).(ClockedSelector); !ok {
		t.Error("flowlet does not implement ClockedSelector")
	}
}
