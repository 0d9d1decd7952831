package experiments

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
)

// identityIDs are the experiments the batch also runs a second time on
// one worker and one shard. The first six could depend on workers or
// shards (cell-parallel sweeps, sharded fleets); for fig9 and the rest,
// all single-engine, the second run is a same-seed determinism check.
var identityIDs = []string{
	"fig11", "failure-sweep", "contended-cluster", "fig6-fleet", "fig12", "fig12-scale",
	"fig9", "fig6", "fig8", "fig13", "fig14", "table1", "sec4", "prob6-core", "tcp-path",
	"ablation-emtt", "ablation-pvdma-block", "chaos-recovery", "lb-taxonomy", "moe-alltoall",
}

// seedBatch is every experiment's table at seed 42, run once per test
// binary, plus the serial one-shard reruns of identityIDs.
type seedBatch struct {
	tables map[string]*Table
	serial map[string]*Table
}

// runBatch runs the batch on GOMAXPROCS workers, at least 2 so the
// sharded models run on more than one shard. The serial reruns are
// runners in the same RunAll, each pinning its private fork of the
// session to one worker (and so one shard), so they share the pool
// with the batch instead of queueing behind it. They come first because
// fig11 and failure-sweep run longest serially.
//
// fig9-scale is left out: it alone costs 11–21 s on 2 cores, ROADMAP
// item 4 will change its output, and its shard invariance is covered by
// TestScalePermutationShardInvariant and the CI identity job.
var runBatch = sync.OnceValues(func() (*seedBatch, error) {
	var runners []Runner
	for _, id := range identityIDs {
		r, ok := Lookup(id)
		if !ok {
			return nil, fmt.Errorf("unknown identity experiment %s", id)
		}
		fn := r.Fn
		r.ID += " (serial, 1 shard)"
		r.Fn = func(s *Session) (*Table, error) {
			s.Parallelism = 1
			return fn(s)
		}
		runners = append(runners, r)
	}
	for _, r := range All() {
		if r.ID != "fig9-scale" {
			runners = append(runners, r)
		}
	}
	s := NewSession(42)
	s.Parallelism = max(runtime.GOMAXPROCS(0), 2)
	results, err := RunAll(s, runners)
	if err != nil {
		return nil, err
	}
	b := &seedBatch{tables: map[string]*Table{}, serial: map[string]*Table{}}
	for i, res := range results {
		tb, err := ParseTable([]byte(res.Table.JSON()))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", res.ID, err)
		}
		if i < len(identityIDs) {
			b.serial[identityIDs[i]] = tb
		} else {
			b.tables[res.ID] = tb
		}
	}
	return b, nil
})

// batch returns the seed-42 batch, skipping the test under -short. The
// tables are shared by every test: read them, never modify them.
func batch(tb testing.TB) *seedBatch {
	tb.Helper()
	if testing.Short() {
		tb.Skip("the seed-42 batch takes tens of seconds")
	}
	b, err := runBatch()
	if err != nil {
		tb.Fatal(err)
	}
	return b
}

// TestBatchIdentity is the output contract in one leg: each identity
// experiment's serial one-shard table is byte-identical to the batch's,
// which ran on every worker with one shard per worker. CI's identity
// job compares the whole batch at 1 and 4 workers.
func TestBatchIdentity(t *testing.T) { checkIdentity(t, identityIDs...) }

// checkIdentity compares the serial reruns of ids with the batch, one
// subtest per experiment, so a failure names the experiment.
func checkIdentity(t *testing.T, ids ...string) {
	b := batch(t)
	for _, id := range ids {
		t.Run(id, func(t *testing.T) {
			serial, ok := b.serial[id]
			if !ok {
				t.Fatalf("%s has no serial rerun; add it to identityIDs", id)
			}
			if got, want := serial.JSON(), b.tables[id].JSON(); got != want {
				t.Errorf("%s: serial one-shard table differs from the batch:\n%s\nvs\n%s", id, got, want)
			}
		})
	}
}

// The identity tests the batch replaced keep their names, each checking
// its experiments' serial reruns against the batch.

func TestExperimentsDeterministic(t *testing.T) {
	checkIdentity(t, "fig6", "fig8", "fig12", "fig13", "fig14", "table1", "sec4",
		"prob6-core", "tcp-path", "ablation-emtt", "ablation-pvdma-block")
}

func TestExperimentsShardInvariant(t *testing.T) {
	checkIdentity(t, "fig12", "fig9", "failure-sweep", "contended-cluster")
}

func TestSweepsParallelIdentity(t *testing.T) {
	checkIdentity(t, "failure-sweep", "fig11", "fig12")
}

func TestRunAllParallelByteIdentical(t *testing.T) {
	t.Run("wheel", func(t *testing.T) { checkIdentity(t, identityIDs...) })
}

func TestChurnFleetInvariant(t *testing.T) { checkIdentity(t, "fig6-fleet") }

// TestParseTable pins the decode the batch reads every table through:
// a round trip is byte-exact, and a table without an ID or with
// truncated JSON is an error.
func TestParseTable(t *testing.T) {
	runners, err := Select("fig12")
	if err != nil {
		t.Fatal(err)
	}
	orig, err := runners[0].Fn(NewSession(1))
	if err != nil {
		t.Fatal(err)
	}
	tb, err := ParseTable([]byte(orig.JSON()))
	if err != nil {
		t.Fatal(err)
	}
	if tb.JSON() != orig.JSON() {
		t.Error("ParseTable round trip changed the bytes")
	}
	if _, err := ParseTable([]byte(`{"rows":[]}`)); err == nil {
		t.Error("table without an ID accepted")
	}
	if _, err := ParseTable([]byte(`{`)); err == nil {
		t.Error("truncated table accepted")
	}
	// A ragged row would make String index past the header's widths.
	if _, err := ParseTable([]byte(`{"id":"x","title":"t","header":["a"],"rows":[["1","2"]]}`)); err == nil {
		t.Error("row wider than the header accepted")
	}
	if _, err := ParseTable([]byte(`{"id":"x","title":"t","header":["a","b"],"rows":[["1","2"],["3"]]}`)); err == nil {
		t.Error("row narrower than the header accepted")
	}
}
