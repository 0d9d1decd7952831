package main

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/churn"
	"repro/internal/collective"
	"repro/internal/experiments"
)

// runCell sets up and runs one cell, failing the test on any error.
func runCell(t *testing.T, c cell, seed uint64) cellResult {
	t.Helper()
	run, err := c.setup(seed)
	if err != nil {
		t.Fatalf("%s setup: %v", c.name, err)
	}
	out, err := run()
	if err != nil {
		t.Fatalf("%s: %v", c.name, err)
	}
	return out
}

// TestCrossCheckFig9 pins spray's fig9 cells to experiments.Fig9: at
// seed 42 each cell reproduces its row of the paper experiment, so the
// benchmark's inputs are the paper configuration, not a drifted copy.
func TestCrossCheckFig9(t *testing.T) {
	t.Parallel()
	tab, err := experiments.Fig9(experiments.NewSession(42))
	if err != nil {
		t.Fatal(err)
	}
	var got [][]string
	for _, c := range sprayCells() {
		parts := strings.Split(c.name, "/")
		if parts[0] != "fig9" {
			continue
		}
		res := runCell(t, c, 42).Result.(collective.PermutationResult)
		got = append(got, []string{parts[1], parts[2],
			fmt.Sprintf("%.1f", res.AvgQueue/1024),
			fmt.Sprintf("%.0f", float64(res.MaxQueue)/1024),
			fmt.Sprintf("%.1f", res.Goodput/1e9)})
	}
	if !reflect.DeepEqual(got, tab.Rows) {
		t.Errorf("spray fig9 cells differ from experiments.Fig9:\n got %v\nwant %v", got, tab.Rows)
	}
}

// TestCrossCheckChurn pins churn's cells to experiments.ChurnFleet
// (fig6-fleet) the same way.
func TestCrossCheckChurn(t *testing.T) {
	t.Parallel()
	tab, err := experiments.ChurnFleet(experiments.NewSession(42))
	if err != nil {
		t.Fatal(err)
	}
	var got [][]string
	for _, c := range churnCells() {
		rep := runCell(t, c, 42).Result.(*churn.Report)
		got = append(got, []string{strings.TrimPrefix(c.name, "fig6-fleet/"),
			fmt.Sprintf("%d", rep.ColdStarts),
			fmt.Sprintf("%d", rep.WaitedGrants),
			fmt.Sprintf("%d", rep.PoolFailures+rep.MemFailures),
			fmt.Sprintf("%.2f/%.2f/%.2f", rep.ColdStart.P50, rep.ColdStart.P99, rep.ColdStart.P999),
			fmt.Sprintf("%.3f/%.3f/%.3f", rep.VFSpan.P99, rep.PinSpan.P99, rep.VNetSpan.P99),
			fmt.Sprintf("%.2f", rep.Teardown.P99),
			fmt.Sprintf("%d", rep.Evictions),
			fmt.Sprintf("%.1f", float64(rep.PeakPinned)/(1<<30)),
			fmt.Sprintf("%d/%d", rep.PeakOccupancy, rep.PeakQueued)})
	}
	if !reflect.DeepEqual(got, tab.Rows) {
		t.Errorf("churn cells differ from experiments.ChurnFleet:\n got %v\nwant %v", got, tab.Rows)
	}
}
