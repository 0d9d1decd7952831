package chaos

import (
	"testing"
	"time"

	"repro/internal/sim"
)

// progressSource watches a bare progress counter with no retransmits.
func progressSource(progress *uint64) FlowSource {
	return FlowSource{
		Rx:   func() uint64 { return *progress },
		Retx: func() uint64 { return 0 },
	}
}

func TestRecoveryFlagsAndClearsStalls(t *testing.T) {
	eng := sim.NewEngine(1)
	var progress uint64
	r := NewRecovery(eng)
	r.Watch("f1", progressSource(&progress))
	r.Start()

	// Progress every 200 us until 1 ms, a 3 ms gap, then resume.
	for us := 200; us <= 1000; us += 200 {
		eng.After(sim.Duration(us)*time.Microsecond, func() { progress++ })
	}
	for us := 4000; us <= 6000; us += 200 {
		eng.After(sim.Duration(us)*time.Microsecond, func() { progress++ })
	}
	eng.Run(sim.Time(6 * time.Millisecond))

	stalls := r.Stalls()
	if len(stalls) != 1 {
		t.Fatalf("stalls = %d, want 1: %+v", len(stalls), stalls)
	}
	s := stalls[0]
	if s.Flow != "f1" {
		t.Errorf("stall flow = %q, want f1", s.Flow)
	}
	// Quiet began at the 1 ms sample; detection lags by stallAfter.
	if s.Since != sim.Time(time.Millisecond) {
		t.Errorf("Since = %v, want 1ms", s.Since)
	}
	if s.At != sim.Time(2*time.Millisecond) {
		t.Errorf("At = %v, want 2ms", s.At)
	}
	if s.ClearedAt == 0 {
		t.Fatal("stall never cleared despite resumed progress")
	}
	if got := s.Duration(0); got != 3*time.Millisecond {
		t.Errorf("stall duration = %v, want 3ms", got)
	}
}

func TestRecoverySteadyProgressNeverStalls(t *testing.T) {
	eng := sim.NewEngine(2)
	var progress uint64
	r := NewRecovery(eng)
	r.Watch("f1", progressSource(&progress))
	r.Start()
	var tick func()
	tick = func() {
		progress++
		eng.After(500*time.Microsecond, tick)
	}
	eng.After(500*time.Microsecond, tick)
	eng.Run(sim.Time(10 * time.Millisecond))
	if len(r.Stalls()) != 0 {
		t.Errorf("steady flow flagged: %+v", r.Stalls())
	}
}

func TestRecoveryMarkDoneClosesOpenStall(t *testing.T) {
	eng := sim.NewEngine(3)
	var progress uint64
	r := NewRecovery(eng)
	r.Watch("f1", progressSource(&progress))
	r.Start()
	// No progress at all: the flow stalls at stallAfter, then the
	// transfer "completes" at 3 ms.
	eng.After(3*time.Millisecond, func() { r.MarkDone("f1") })
	eng.Run(sim.Time(8 * time.Millisecond))
	stalls := r.Stalls()
	if len(stalls) != 1 {
		t.Fatalf("stalls = %d, want 1", len(stalls))
	}
	if stalls[0].ClearedAt != sim.Time(3*time.Millisecond) {
		t.Errorf("ClearedAt = %v, want 3ms (MarkDone time)", stalls[0].ClearedAt)
	}
	// A finished flow is no longer checked for stalls: no second episode.
	eng.Run(sim.Time(20 * time.Millisecond))
	if len(r.Stalls()) != 1 {
		t.Errorf("MarkDone flow re-flagged: %+v", r.Stalls())
	}
}

// TestRecoveryMarkDoneMidEpisodeKeepsVerdict: a flow marked done while
// a fault episode is open still gets its recovery verdict, and its
// later quiet spells open no stalls.
func TestRecoveryMarkDoneMidEpisodeKeepsVerdict(t *testing.T) {
	eng := sim.NewEngine(4)
	var rx, retx uint64
	r := NewRecovery(eng)
	r.Watch("flow", FlowSource{
		Rx:   func() uint64 { return rx },
		Retx: func() uint64 { return retx },
	})
	r.Start()
	// 100 KB per 100 us sample, dark from 2 ms to 4 ms (retransmits
	// firing), back until 5 ms, then dark for good. Counters move just
	// before each sample.
	for i := 1; i <= 80; i++ {
		us := 100 * i
		eng.At(sim.Time(0).Add(time.Duration(us)*time.Microsecond-1000), func() {
			switch {
			case us <= 2000, us > 4000 && us <= 5000:
				rx += 100_000
			case us <= 4000:
				retx++
			}
		})
	}
	eng.At(sim.Time(0).Add(2*time.Millisecond), r.NoteFault)
	eng.At(sim.Time(0).Add(3500*time.Microsecond), func() { r.MarkDone("flow") })
	eng.Run(sim.Time(8 * time.Millisecond))

	stalls := r.Stalls()
	if len(stalls) != 1 {
		t.Fatalf("stalls = %d, want 1 (none after MarkDone): %+v", len(stalls), stalls)
	}
	if s := stalls[0]; s.Since != sim.Time(2*time.Millisecond) || s.At != sim.Time(3*time.Millisecond) ||
		s.ClearedAt != sim.Time(3500*time.Microsecond) {
		t.Errorf("stall = %+v, want since 2ms, at 3ms, cleared 3.5ms", s)
	}
	got := r.Report()[0]
	if !got.Detected || got.TimeToDetect != 100*time.Microsecond {
		t.Errorf("detected=%v ttd=%v, want first sample after fault", got.Detected, got.TimeToDetect)
	}
	if !got.Recovered || got.TimeToRecover != 2100*time.Microsecond {
		t.Errorf("recovered=%v ttr=%v, want 2.1ms (after MarkDone)", got.Recovered, got.TimeToRecover)
	}
}
