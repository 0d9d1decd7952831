package experiments

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/fabric"
	"repro/internal/trace"
)

// TestConcurrentSessions drives two sessions at once — one tracing, one
// under a chaos scenario — and checks neither leaks into the other.
// Run under -race this is the harness's data-race regression test.
func TestConcurrentSessions(t *testing.T) {
	r, ok := Lookup("fig12")
	if !ok {
		t.Fatal("fig12 missing")
	}
	baseline, err := r.Fn(NewSession(7))
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
		traced, tracedErr = r.Fn(s)
	}()
	go func() {
		defer wg.Done()
		s := NewSession(7)
		s.Chaos = sc
		chaotic, chaosErr = r.Fn(s)
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
	s := NewSession(1)
	s.Parallelism = 4
	results, err := RunAll(s, runners)
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

// TestRunAllTracerForcesSerial checks that a traced batch runs
// on one worker at both levels of the pool: RunAll never has two
// runners in flight, and no runner's runCells sweep has two cells in
// flight, whatever Parallelism asks for.
func TestRunAllTracerForcesSerial(t *testing.T) {
	var runners, cells, maxRunners, maxCells atomic.Int64
	enter := func(inFlight, peak *atomic.Int64) {
		n := inFlight.Add(1)
		for m := peak.Load(); n > m && !peak.CompareAndSwap(m, n); m = peak.Load() {
		}
	}
	var batch []Runner
	for i := 0; i < 4; i++ {
		id := fmt.Sprintf("r%d", i)
		batch = append(batch, Runner{ID: id, Desc: id, Fn: func(s *Session) (*Table, error) {
			enter(&runners, &maxRunners)
			defer runners.Add(-1)
			err := s.runCells(4, func(int) error {
				enter(&cells, &maxCells)
				time.Sleep(time.Millisecond)
				cells.Add(-1)
				return nil
			})
			return &Table{ID: id}, err
		}})
	}
	s := NewSession(1)
	s.Tracer = trace.New(1 << 10)
	s.Parallelism = 4
	if _, err := RunAll(s, batch); err != nil {
		t.Fatal(err)
	}
	if r, c := maxRunners.Load(), maxCells.Load(); r != 1 || c != 1 {
		t.Errorf("traced batch reached %d runners and %d cells in flight, want 1 and 1", r, c)
	}
}

// TestWorkers pins the pool size: Parallelism capped at the item
// count, at least one, and one whenever a tracer is attached.
func TestWorkers(t *testing.T) {
	for _, c := range []struct {
		parallelism, n int
		traced         bool
		want           int
	}{
		{4, 30, false, 4},
		{8, 3, false, 3},
		{0, 3, false, 1},
		{4, 0, false, 1},
		{4, 30, true, 1},
	} {
		s := NewSession(1)
		s.Parallelism = c.parallelism
		if c.traced {
			s.Tracer = trace.New(1 << 10)
		}
		if got := s.workers(c.n); got != c.want {
			t.Errorf("workers(tracer=%v, parallelism %d, n %d) = %d, want %d",
				c.traced, c.parallelism, c.n, got, c.want)
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
	s := NewSession(7)
	s.Parallelism = 2
	results, err := RunAll(s, runners)
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
