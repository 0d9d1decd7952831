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
