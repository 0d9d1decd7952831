package experiments

import (
	"strconv"
	"strings"
	"testing"

	"repro/internal/jobgraph"
)

// TestContendedCluster covers the experiment's whole contract in two
// runs — one reference (shape + slowdown invariants) and one on 4
// workers — because each run replays 20 fleets and the raced CI suite
// pays for every extra one.
func TestContendedCluster(t *testing.T) {
	run := func(parallelism int) (*Table, string) {
		s := NewSession(7)
		s.Parallelism = parallelism
		tb, err := ContendedCluster(s)
		if err != nil {
			t.Fatal(err)
		}
		return tb, tb.String()
	}
	tb, ref := run(1)

	// Shape: 2 placements x 2 stacks x 4 jobs, all three job kinds.
	if len(tb.Rows) != 16 {
		t.Fatalf("%d rows, want 16", len(tb.Rows))
	}
	kinds := map[string]bool{}
	var contended bool
	for _, row := range tb.Rows {
		kinds[row[3]] = true
		slow, err := strconv.ParseFloat(row[6], 64)
		if err != nil {
			t.Fatalf("bad slowdown %q: %v", row[6], err)
		}
		if slow < 0.999 {
			t.Errorf("%s/%s/%s: slowdown %.4f below 1 — contention cannot speed a job up",
				row[0], row[1], row[2], slow)
		}
		if slow > 1.0005 {
			contended = true
		}
	}
	if len(kinds) != 3 {
		t.Errorf("job kinds in table = %v, want training+inference+storage", kinds)
	}
	if !contended {
		t.Error("no job in any cell observed contention")
	}

	// Byte identity across harness parallelism.
	if _, par := run(4); par != ref {
		t.Errorf("serial/parallel output differs:\n--- serial\n%s\n--- parallel\n%s", ref, par)
	}
}

func TestJobGraphRunnerReplaysLoadedGraph(t *testing.T) {
	g, err := jobgraph.LoadFile("../../examples/jobgraph/pingpong.json")
	if err != nil {
		t.Fatal(err)
	}
	r := JobGraphRunner(g)
	if !strings.HasPrefix(r.ID, "jobgraph:") {
		t.Errorf("runner ID = %q", r.ID)
	}
	tb, err := r.Fn(NewSession(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 2 {
		t.Fatalf("%d rows, want one per stack", len(tb.Rows))
	}
	for _, row := range tb.Rows {
		ms, err := strconv.ParseFloat(row[1], 64)
		if err != nil || ms <= 0 {
			t.Errorf("stack %s: makespan %q", row[0], row[1])
		}
	}
}
