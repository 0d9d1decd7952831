package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"testing"
)

// benchmarkJSON is the repository's BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string    `json:"command"`
	Paths      []string    `json:"paths"`
	RunSeconds int         `json:"run_seconds"`
	Workloads  []nameWhy   `json:"workloads"`
	EndToEnd   []metricDef `json:"end_to_end"`
	PerLayer   []metricDef `json:"per_layer"`
}

type nameWhy struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the metrics this
// program emits in step: the same workloads, and the same metrics with
// the same units, directions and bounds.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var got benchmarkJSON
	if err := json.Unmarshal(b, &got); err != nil {
		t.Fatal(err)
	}
	want := benchmarkJSON{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: got.RunSeconds,
		PerLayer:   perLayer,
	}
	for _, w := range workloads {
		want.Workloads = append(want.Workloads, nameWhy{w.name, w.why})
	}
	for _, m := range endToEnd {
		want.EndToEnd = append(want.EndToEnd, m.metricDef)
	}
	if !reflect.DeepEqual(got, want) {
		exp, _ := json.MarshalIndent(want, "", "  ")
		t.Errorf("BENCHMARK.json does not match the program; expected:\n%s", exp)
	}
	for _, m := range endToEnd {
		if m.Name != "setup_s" && m.Bound >= endToEnd[2].Bound {
			t.Errorf("%s bound %.2f: setup_s must have the largest bound", m.Name, m.Bound)
		}
	}
}

// TestGoldenCoversEveryCell fails when a cell is added, renamed or
// removed without regenerating bench/golden.
func TestGoldenCoversEveryCell(t *testing.T) {
	for _, seed := range goldenSeeds {
		g, err := loadGolden(seed)
		if err != nil || g == nil {
			t.Fatalf("seed %d: golden %v, %v", seed, g, err)
		}
		n := 0
		for _, w := range workloads {
			for _, c := range w.cells() {
				n++
				if g[w.name+"/"+c.name] == "" {
					t.Errorf("seed %d: no golden digest for %s/%s", seed, w.name, c.name)
				}
			}
		}
		if len(g) != n {
			t.Errorf("seed %d: golden has %d cells, workloads have %d", seed, len(g), n)
		}
	}
}

// TestCheckCountsFailures covers the correctness gate: a cell error, a
// golden mismatch, a pass with no result and a digest that changes
// between passes each count as failed cells.
func TestCheckCountsFailures(t *testing.T) {
	w := workload{name: "w", cells: func() []cell { return make([]cell, 2) }}
	pass := func(a, b string) passResult {
		return passResult{Cells: []cellRecord{{Name: "a", Digest: a}, {Name: "b", Digest: b}}}
	}
	golden := map[string]string{"w/a": "1", "w/b": "2"}
	for _, tc := range []struct {
		name   string
		run    workloadRun
		failed int
	}{
		{"clean", workloadRun{w: w, passes: []passResult{pass("1", "2"), pass("1", "2")}}, 0},
		{"golden mismatch", workloadRun{w: w, passes: []passResult{pass("1", "3")}}, 1},
		{"cell error", workloadRun{w: w, passes: []passResult{{Cells: []cellRecord{{Name: "a", Digest: "1"}, {Name: "b", Err: "boom"}}}}}, 1},
		{"lost pass", workloadRun{w: w, passes: []passResult{pass("1", "2")}, errs: []string{"exit 1"}}, 2},
	} {
		if _, failed, _ := tc.run.check(golden); failed != tc.failed {
			t.Errorf("%s: %d failed, want %d", tc.name, failed, tc.failed)
		}
	}
	run := workloadRun{w: w, passes: []passResult{pass("1", "2"), pass("1", "9")}}
	if attempted, failed, _ := run.check(nil); attempted != 4 || failed != 1 {
		t.Errorf("unstable digest without golden: %d/%d failed, want 1/4", failed, attempted)
	}
}

// TestSummarizeMatchesPython compares with statistics.quantiles(xs, n=4)
// and statistics.median.
func TestSummarizeMatchesPython(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want summary
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, summary{5.5, 2.75, 8.25, 10}},
		{[]float64{3, 1, 2}, summary{2, 1, 3, 3}},
		{[]float64{1, 2}, summary{1.5, 0.75, 2.25, 2}},
		{[]float64{4}, summary{4, 4, 4, 1}},
	} {
		got := summarize(tc.xs)
		if math.Abs(got.Median-tc.want.Median)+math.Abs(got.Q1-tc.want.Q1)+math.Abs(got.Q3-tc.want.Q3) > 1e-12 || got.N != tc.want.N {
			t.Errorf("summarize(%v) = %+v, want %+v", tc.xs, got, tc.want)
		}
	}
}
