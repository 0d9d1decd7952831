package experiments

import (
	"reflect"
	"testing"

	"repro/internal/sim"
)

// TestExperimentsDeterministic guards the repository's core promise:
// the same seed regenerates byte-identical tables. Any nondeterminism
// (map iteration leaking into results, wall-clock use, unseeded
// randomness) breaks reproducibility and fails here.
func TestExperimentsDeterministic(t *testing.T) {
	// The fast experiments cover every substrate: host-side (fig6,
	// fig8, fig14, table1), network (fig12, prob6-core), and the
	// TCP path.
	for _, id := range []string{"fig6", "fig8", "fig12", "fig13", "fig14", "table1", "sec4", "prob6-core", "tcp-path", "ablation-emtt", "ablation-pvdma-block"} {
		id := id
		t.Run(id, func(t *testing.T) {
			r, ok := Lookup(id)
			if !ok {
				t.Fatalf("unknown experiment %s", id)
			}
			a, err := r.RunSession(NewSession(7))
			if err != nil {
				t.Fatal(err)
			}
			b, err := r.RunSession(NewSession(7))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(a.Rows, b.Rows) {
				t.Errorf("same seed produced different tables:\n%v\nvs\n%v", a.Rows, b.Rows)
			}
		})
	}
}

// TestFailureSweepDeterministicAcrossSchedulers guards the chaos
// subsystem's promise: the same (scenario, seed) produces a
// byte-identical table under the timer-wheel and heap schedulers.
// Jitter is drawn at Play time in scenario order, so the fault timeline
// cannot depend on event-execution interleaving.
func TestFailureSweepDeterministicAcrossSchedulers(t *testing.T) {
	if testing.Short() {
		t.Skip("failure sweep is seconds-long; skipped in -short")
	}
	run := func(mode sim.SchedulerMode) [][]string {
		s := NewSession(7)
		s.Sched = mode
		tb, err := FailureSweep(s)
		if err != nil {
			t.Fatal(err)
		}
		return tb.Rows
	}
	wheel := run(sim.SchedulerWheel)
	heap := run(sim.SchedulerHeap)
	if !reflect.DeepEqual(wheel, heap) {
		t.Errorf("failure-sweep tables differ across schedulers:\nwheel: %v\nheap:  %v", wheel, heap)
	}
}

// TestSeedChangesNetworkResults is the complement: seeds must actually
// steer the randomised parts (placements, permutations), or the "sweep
// seeds for robustness" workflow silently measures one sample.
func TestSeedChangesNetworkResults(t *testing.T) {
	a, err := Prob6Core(NewSession(1))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Prob6Core(NewSession(99))
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a.Rows, b.Rows) {
		t.Error("different seeds produced identical network tables; seeding is dead")
	}
}
