package experiments

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/fabric"
	"repro/internal/trace"
)

// fastIDs is the experiment subset the parallel-identity matrix runs:
// cheap experiments covering host-side, network, chaos and transport
// substrates. The heavier sweeps get their own -short-guarded test.
func fastIDs(short bool) []string {
	ids := []string{"fig12", "fig13", "table1", "tcp-path", "prob6-core", "chaos-recovery"}
	if !short {
		ids = append(ids, "lb-taxonomy", "moe-alltoall", "ablation-emtt")
	}
	return ids
}

// batchJSON renders a RunAll result slice the way stellarbench -json
// prints it: concatenated Table.JSON in input order.
func batchJSON(t *testing.T, results []Result) string {
	t.Helper()
	var b strings.Builder
	for _, res := range results {
		if res.Err != nil {
			t.Fatalf("%s: %v", res.ID, res.Err)
		}
		b.WriteString(res.Table.JSON())
	}
	return b.String()
}

// TestRunAllParallelByteIdentical is the tentpole contract: the batch
// output is byte-identical at any parallelism.
func TestRunAllParallelByteIdentical(t *testing.T) {
	runners, err := Select(strings.Join(fastIDs(testing.Short()), ","))
	if err != nil {
		t.Fatal(err)
	}
	// The subtest is named for the event wheel, the scheduler every
	// session runs on.
	t.Run("wheel", func(t *testing.T) {
		run := func(parallelism int) string {
			s := NewSession(7)
			s.Parallelism = parallelism
			results, err := RunAll(context.Background(), s, runners, parallelism)
			if err != nil {
				t.Fatal(err)
			}
			return batchJSON(t, results)
		}
		serial := run(1)
		for _, p := range []int{4, runtime.GOMAXPROCS(0)} {
			if got := run(p); got != serial {
				t.Errorf("parallelism %d output differs from serial", p)
			}
		}
	})
}

// TestSweepsParallelIdentity runs the internally-parallelized sweeps
// (failure-sweep, fig11) with cell-parallel sessions and checks the
// tables match a serial session's byte for byte.
func TestSweepsParallelIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("failure-sweep and fig11 are seconds-long; skipped in -short")
	}
	for _, id := range []string{"failure-sweep", "fig11", "fig12"} {
		id := id
		t.Run(id, func(t *testing.T) {
			r, ok := Lookup(id)
			if !ok {
				t.Fatalf("unknown experiment %s", id)
			}
			run := func(parallelism int) *Table {
				s := NewSession(7)
				s.Parallelism = parallelism
				tb, err := r.RunSession(s)
				if err != nil {
					t.Fatal(err)
				}
				return tb
			}
			serial, par := run(1), run(4)
			if serial.JSON() != par.JSON() {
				t.Errorf("%s: cell-parallel table differs from serial:\n%s\nvs\n%s",
					id, serial.String(), par.String())
			}
		})
	}
}

// TestConcurrentSessions drives two sessions at once — one tracing, one
// under a chaos scenario — and checks neither leaks into the other.
// Run under -race this is the harness's data-race regression test.
func TestConcurrentSessions(t *testing.T) {
	r, ok := Lookup("fig12")
	if !ok {
		t.Fatal("fig12 missing")
	}
	baseline, err := r.RunSession(NewSession(7))
	if err != nil {
		t.Fatal(err)
	}

	tr := trace.New(1 << 16)
	sc := chaos.NewScenario("parallel-test").
		LinkDown(time.Millisecond, fabric.Uplink(0, 0), 0)

	var traced, chaotic *Table
	var tracedErr, chaosErr error
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		s := NewSession(7)
		s.Tracer = tr
		traced, tracedErr = r.RunSession(s)
	}()
	go func() {
		defer wg.Done()
		s := NewSession(7)
		s.Chaos = sc
		chaotic, chaosErr = r.RunSession(s)
	}()
	wg.Wait()
	if tracedErr != nil || chaosErr != nil {
		t.Fatalf("concurrent sessions failed: %v / %v", tracedErr, chaosErr)
	}
	if !reflect.DeepEqual(traced.Rows, baseline.Rows) {
		t.Error("traced session diverged from baseline despite identical seed")
	}
	if tr.Total() == 0 {
		t.Error("traced session recorded no events")
	}
	if reflect.DeepEqual(chaotic.Rows, baseline.Rows) {
		t.Error("chaos session matched fault-free baseline; scenario was not armed")
	}
}

// TestRunAllErrorOrder injects failures and checks RunAll's contract:
// every runner still executes, per-runner errors land at their index,
// and the returned error is the first failure in input order.
func TestRunAllErrorOrder(t *testing.T) {
	errB := errors.New("b failed")
	errD := errors.New("d failed")
	var ran [4]atomic.Bool
	mk := func(i int, id string, err error) Runner {
		return Runner{ID: id, Desc: id, Fn: func(s *Session) (*Table, error) {
			ran[i].Store(true)
			if err != nil {
				return nil, err
			}
			return &Table{ID: id}, nil
		}}
	}
	runners := []Runner{mk(0, "a", nil), mk(1, "b", errB), mk(2, "c", nil), mk(3, "d", errD)}
	results, err := RunAll(context.Background(), NewSession(1), runners, 4)
	if err == nil || !errors.Is(err, errB) || !strings.Contains(err.Error(), "b") {
		t.Errorf("RunAll error = %v, want first failure (b)", err)
	}
	for i := range ran {
		if !ran[i].Load() {
			t.Errorf("runner %d did not execute after a sibling failed", i)
		}
	}
	if results[1].Err != errB || results[3].Err != errD {
		t.Errorf("per-runner errors misplaced: %v / %v", results[1].Err, results[3].Err)
	}
	if results[0].Err != nil || results[0].Table == nil || results[2].Err != nil {
		t.Error("successful runners lost their tables")
	}
	for i, want := range []string{"a", "b", "c", "d"} {
		if results[i].ID != want {
			t.Errorf("results[%d].ID = %q, want %q", i, results[i].ID, want)
		}
	}
}

// TestRunAllTracerForcesSerial checks that a session carrying a tracer
// never runs two runners at once, whatever parallelism is requested.
func TestRunAllTracerForcesSerial(t *testing.T) {
	var inFlight, maxInFlight atomic.Int64
	var runners []Runner
	for i := 0; i < 8; i++ {
		id := fmt.Sprintf("r%d", i)
		runners = append(runners, Runner{ID: id, Desc: id, Fn: func(s *Session) (*Table, error) {
			n := inFlight.Add(1)
			for {
				m := maxInFlight.Load()
				if n <= m || maxInFlight.CompareAndSwap(m, n) {
					break
				}
			}
			time.Sleep(time.Millisecond)
			inFlight.Add(-1)
			return &Table{ID: id}, nil
		}})
	}
	s := NewSession(1)
	s.Tracer = trace.New(1 << 10)
	if _, err := RunAll(context.Background(), s, runners, 8); err != nil {
		t.Fatal(err)
	}
	if got := maxInFlight.Load(); got != 1 {
		t.Errorf("traced batch reached concurrency %d, want 1", got)
	}
}

// TestWorkers pins the worker count a batch reports: the requested
// parallelism clamped to [1, runners], and 1 under a tracer.
func TestWorkers(t *testing.T) {
	plain, traced := NewSession(1), NewSession(1)
	traced.Tracer = trace.New(1 << 10)
	for _, c := range []struct {
		s              *Session
		parallelism, n int
		want           int
	}{
		{plain, 4, 30, 4},
		{plain, 8, 3, 3},
		{plain, 0, 3, 1},
		{traced, 4, 30, 1},
	} {
		if got := Workers(c.s, c.parallelism, c.n); got != c.want {
			t.Errorf("Workers(tracer=%v, %d, %d) = %d, want %d",
				c.s.Tracer != nil, c.parallelism, c.n, got, c.want)
		}
	}
}

// TestRunAllStats checks per-run accounting: simulation experiments
// report their own engines' events, not a process-global delta.
func TestRunAllStats(t *testing.T) {
	runners, err := Select("fig12,table1")
	if err != nil {
		t.Fatal(err)
	}
	results, err := RunAll(context.Background(), NewSession(7), runners, 2)
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Stats.Events == 0 {
		t.Error("fig12 reported zero sim events")
	}
	if results[1].Stats.Events != 0 {
		t.Errorf("table1 (analytic) reported %d sim events, want 0", results[1].Stats.Events)
	}
	if results[0].Stats.EventsPerSec() <= 0 {
		t.Error("fig12 events/s not positive")
	}
}

// TestEventsPerSecGuard is the elapsed == 0 division guard.
func TestEventsPerSecGuard(t *testing.T) {
	if got := (RunStats{Events: 100, Elapsed: 0}).EventsPerSec(); got != 0 {
		t.Errorf("EventsPerSec at zero elapsed = %v, want 0", got)
	}
	if got := (RunStats{Events: 100, Elapsed: -time.Second}).EventsPerSec(); got != 0 {
		t.Errorf("EventsPerSec at negative elapsed = %v, want 0", got)
	}
	if got := (RunStats{Events: 100, Elapsed: time.Second}).EventsPerSec(); got != 100 {
		t.Errorf("EventsPerSec = %v, want 100", got)
	}
}

// TestSelect exercises the -exp expression parser.
func TestSelect(t *testing.T) {
	if rs, err := Select("all"); err != nil || len(rs) != len(All()) {
		t.Errorf("Select(all) = %d runners, err %v", len(rs), err)
	}
	rs, err := Select("fig6, fig12")
	if err != nil || len(rs) != 2 || rs[0].ID != "fig6" || rs[1].ID != "fig12" {
		t.Errorf("Select list = %v, err %v", rs, err)
	}
	if _, err := Select("fig6,nope"); err == nil || !strings.Contains(err.Error(), "unknown") {
		t.Errorf("Select unknown id error = %v", err)
	}
	if _, err := Select("fig6,fig12,fig6"); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Errorf("Select duplicate id error = %v", err)
	}
}

// TestRunCellsErrorOrder pins runCells's sibling-determinism contract:
// every cell runs, and the reported error is the first by cell index
// even when a later cell fails first in wall-clock order.
func TestRunCellsErrorOrder(t *testing.T) {
	s := NewSession(1)
	s.Parallelism = 4
	var ran [8]atomic.Bool
	err := s.runCells(8, func(i int) error {
		ran[i].Store(true)
		if i == 2 || i == 6 {
			return fmt.Errorf("cell %d", i)
		}
		return nil
	})
	if err == nil || err.Error() != "cell 2" {
		t.Errorf("runCells error = %v, want cell 2", err)
	}
	for i := range ran {
		if !ran[i].Load() {
			t.Errorf("cell %d skipped after sibling failure", i)
		}
	}
}

// TestRunAllContextCancel checks a pre-cancelled context marks every
// runner with the context error instead of hanging or panicking.
func TestRunAllContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	runners, err := Select("table1,tcp-path")
	if err != nil {
		t.Fatal(err)
	}
	results, err := RunAll(ctx, NewSession(1), runners, 2)
	if !errors.Is(err, context.Canceled) {
		t.Errorf("RunAll on cancelled ctx = %v, want context.Canceled", err)
	}
	for _, res := range results {
		if !errors.Is(res.Err, context.Canceled) {
			t.Errorf("%s: err = %v, want context.Canceled", res.ID, res.Err)
		}
	}
}
