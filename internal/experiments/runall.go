package experiments

import (
	"context"
	"fmt"
	"runtime/pprof"
	"strings"
	"time"
)

// RunStats is one run's resource accounting.
type RunStats struct {
	// Events is the number of sim events the run's engines dispatched,
	// summed over exactly the engines the run built — correct even
	// while other runs execute concurrently. Analytic (host-side)
	// experiments build no engines and report zero.
	Events uint64
	// Elapsed is wall-clock run time.
	Elapsed time.Duration
}

// EventsPerSec reports the run's simulation throughput, zero for
// sub-resolution runs (the elapsed == 0 guard for analytic experiments
// that finish between clock ticks).
func (st RunStats) EventsPerSec() float64 {
	if st.Elapsed <= 0 {
		return 0
	}
	return float64(st.Events) / st.Elapsed.Seconds()
}

// Result is one runner's outcome in a RunAll batch, held at the
// runner's input index so printed order is deterministic regardless of
// completion order.
type Result struct {
	// ID names the runner that produced this result.
	ID string
	// Table is the experiment's output; nil when Err is set.
	Table *Table
	// Err is the runner's failure.
	Err error
	// Stats carries the run's event count and wall-clock time.
	Stats RunStats
}

// RunAll is the one way to run a batch: it executes runners on the
// session's worker pool (runCells, so Parallelism bounds it and a
// tracer forces one worker), each under a private fork of session
// (same seed, tracer, scenario and bounds; its own engine list, so
// Stats.Events is per-run). Results are collected by input index, so
// output order — and, since every run is deterministic in (seed,
// scenario), output bytes — are identical at any parallelism.
//
// A runner's failure does not cancel its siblings: every runner
// executes, which keeps the batch's set of executed runs deterministic.
// The returned error is the first Result.Err in index order, with every
// per-runner outcome in the slice.
func RunAll(session *Session, runners []Runner) ([]Result, error) {
	results := make([]Result, len(runners))
	err := session.runCells(len(runners), func(i int) error {
		results[i] = runOne(session, runners[i])
		if err := results[i].Err; err != nil {
			return fmt.Errorf("experiments: %s: %w", runners[i].ID, err)
		}
		return nil
	})
	return results, err
}

// runOne is r's outcome from a fresh run under a fork of session.
func runOne(session *Session, r Runner) Result {
	res := Result{ID: r.ID}
	run := session.fork()
	// Each run executes under a pprof label so a -cpuprofile of a batch
	// can be sliced per experiment with -tagfocus.
	start := time.Now()
	pprof.Do(context.Background(), pprof.Labels("experiment", r.ID), func(context.Context) {
		res.Table, res.Err = r.Fn(run)
	})
	res.Stats = RunStats{Events: run.Fired(), Elapsed: time.Since(start)}
	return res
}

// Select resolves a -exp flag value: "all" for the full registry in
// paper order, otherwise a comma-separated ID list. Unknown IDs and
// duplicates are rejected — a duplicate would silently run (and print)
// the experiment twice.
func Select(expr string) ([]Runner, error) {
	if expr == "all" {
		return All(), nil
	}
	var runners []Runner
	seen := make(map[string]bool)
	for _, id := range strings.Split(expr, ",") {
		id = strings.TrimSpace(id)
		r, ok := Lookup(id)
		if !ok {
			return nil, fmt.Errorf("experiments: unknown experiment %q", id)
		}
		if seen[id] {
			return nil, fmt.Errorf("experiments: duplicate experiment %q", id)
		}
		seen[id] = true
		runners = append(runners, r)
	}
	return runners, nil
}
