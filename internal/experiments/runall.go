package experiments

import (
	"context"
	"fmt"
	"runtime/pprof"
	"strings"
	"time"

	"repro/internal/checkpoint"
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
	// Err is the runner's failure, or the batch context's error for
	// runners that were never started because ctx was cancelled.
	Err error
	// Stats carries the run's event count and wall-clock time. For a
	// resumed result, Events is the recorded count from the original
	// run and Elapsed is ~0 (replay is a file read).
	Stats RunStats
	// Resumed marks a result replayed from a checkpoint rather than
	// recomputed. The table bytes are identical either way; only the
	// wall-clock accounting differs.
	Resumed bool
}

// RunAll is the one way to run a batch: it executes runners on the
// session's worker pool (runCells, so Parallelism bounds it and a
// tracer forces one worker), each under a private fork of session
// (same seed, tracer, scenario and bounds; its own engine list, so
// Stats.Events is per-run). Results are collected by input index, so
// output order — and, since every run is deterministic in (seed,
// scenario), output bytes — are identical at any parallelism.
//
// A runner's failure does not cancel its siblings: every runner whose
// start precedes a ctx cancellation still executes, which keeps the
// batch's set of executed runs deterministic. The returned error is the
// first Result.Err in index order, with every per-runner outcome in the
// slice.
//
// A non-nil store gives the batch a crash-safe lifecycle: every runner
// already committed to the checkpoint is replayed from disk instead of
// recomputed (byte-identical, since each runner is a pure function of
// the session configuration the store's fingerprint binds), and every
// runner that completes is committed at its quiescent boundary —
// engines drained, output serialized — before the batch moves on. A
// kill at any instant therefore loses at most the runners in flight; a
// later call with the same store fast-forwards through the committed
// prefix and re-executes only the rest.
//
// Degradation is one-way: a payload that fails its checksum is re-run
// and re-committed, and a failed checkpoint write is recorded on the
// store but never fails a healthy run. A session carrying a tracer
// bypasses the store entirely — replaying a cell would silently drop
// its trace events.
func RunAll(ctx context.Context, session *Session, runners []Runner, store *checkpoint.Store) ([]Result, error) {
	if session.Tracer != nil {
		store = nil
	}
	results := make([]Result, len(runners))
	err := session.runCells(len(runners), func(i int) error {
		results[i] = runOne(ctx, session, runners[i], store)
		if err := results[i].Err; err != nil {
			return fmt.Errorf("experiments: %s: %w", runners[i].ID, err)
		}
		return nil
	})
	return results, err
}

// runOne is r's outcome: the context's error if the batch was
// cancelled before r started, a replay from store when r is committed
// there, and otherwise a fresh run under a fork of session, committed
// to store on success.
func runOne(ctx context.Context, session *Session, r Runner, store *checkpoint.Store) Result {
	res := Result{ID: r.ID}
	if res.Err = ctx.Err(); res.Err != nil {
		return res
	}
	if store != nil {
		if payload, meta, ok, _ := store.Lookup(r.ID); ok {
			if tb, perr := ParseTable(payload); perr == nil && tb.ID == r.ID {
				res.Table = tb
				res.Stats = RunStats{Events: meta.Events}
				res.Resumed = true
				return res
			}
			// Undecodable or mislabeled payload: fall through to a
			// re-run; the fresh Commit repairs the entry.
		}
	}
	run := session.fork()
	// Each run executes under a pprof label so a -cpuprofile of a batch
	// can be sliced per experiment with -tagfocus.
	start := time.Now()
	pprof.Do(ctx, pprof.Labels("experiment", r.ID), func(context.Context) {
		res.Table, res.Err = r.Fn(run)
	})
	res.Stats = RunStats{Events: run.Fired(), Elapsed: time.Since(start)}
	if store != nil && res.Err == nil {
		meta := checkpoint.CellMeta{
			Events:    res.Stats.Events,
			VirtualNS: int64(run.MaxNow()),
			SimDigest: run.StateDigest(),
		}
		// Commit records its own failures as store degradations; a
		// broken checkpoint disk must not fail a run that computed a
		// good result.
		_ = store.Commit(r.ID, []byte(res.Table.JSON()), meta)
	}
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
