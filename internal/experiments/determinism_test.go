package experiments

import (
	"reflect"
	"testing"
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
			a, err := r.Fn(NewSession(7))
			if err != nil {
				t.Fatal(err)
			}
			b, err := r.Fn(NewSession(7))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(a.Rows, b.Rows) {
				t.Errorf("same seed produced different tables:\n%v\nvs\n%v", a.Rows, b.Rows)
			}
		})
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
