package experiments

import (
	"strconv"
	"strings"
	"testing"

	"repro/internal/jobgraph"
)

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

func TestJobGraphRunnerSpreadSkipsIdleRanks(t *testing.T) {
	// Rank 2 runs no op; ranks 0 and 1 finish the one collective
	// together, so the spread is zero on both stacks.
	g, err := jobgraph.Load([]byte(`{"name":"idle","ranks":3,"ops":[{"id":"ar","kind":"collective","ranks":[0,1],"bytes":4194304}]}`))
	if err != nil {
		t.Fatal(err)
	}
	tb, err := JobGraphRunner(g).Fn(NewSession(42))
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tb.Rows {
		if row[3] != "0" || row[4] != "0.000" {
			t.Errorf("stack %s: slowest rank %s, spread %s; want 0, 0.000", row[0], row[3], row[4])
		}
	}
}
