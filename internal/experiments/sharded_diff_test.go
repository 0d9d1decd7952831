package experiments

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/collective"
	"repro/internal/fabric"
	"repro/internal/multipath"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/transport"
)

// TestScalePermutationShardInvariant drives genuine cross-shard traffic:
// a reduced multi-pod fleet (8 segments × 8 hosts in 4 pods) under
// cross-pod permutation load, where every flow crosses the core seam and
// is handed off between shards. Results must be byte-identical at every
// shard count — the property the conservative-lookahead
// windows and the canonical entry-link drain exist to provide. The
// shard count follows Parallelism; 8 clamps to the 4 pods.
func TestScalePermutationShardInvariant(t *testing.T) {
	run := func(shards int) collective.PermutationResult {
		s := NewSession(11)
		s.Parallelism = shards
		se, f, eps, err := scaleCluster(s, scaleConfig(8, 8, 2, 16, 4))
		if err != nil {
			t.Fatal(err)
		}
		res, err := collective.RunPermutation(se.Shard(0), f, eps, collective.PermutationConfig{
			Alg: multipath.OBS, Paths: 64, BytesPerFlow: 1 << 20,
			SamplePeriod: sim.Duration(50 * time.Microsecond), Seed: 12,
		})
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		return res
	}
	ref := run(1)
	shardCounts := []int{2, 4, 8}
	if testing.Short() {
		shardCounts = []int{4}
	}
	for _, shards := range shardCounts {
		if got := run(shards); !reflect.DeepEqual(got, ref) {
			t.Errorf("shards=%d diverged from shards=1:\n got %+v\nwant %+v", shards, got, ref)
		}
	}
}

// TestScalePermutationFaultShardInvariant repeats the cross-pod
// permutation with pre-run faults — a dead uplink and a lossy one — so
// the per-link RNG streams and reroute paths are exercised across the
// shard seam too.
func TestScalePermutationFaultShardInvariant(t *testing.T) {
	run := func(shards int) collective.PermutationResult {
		s := NewSession(13)
		s.Parallelism = shards
		se, f, eps, err := scaleCluster(s, scaleConfig(8, 8, 2, 16, 4))
		if err != nil {
			t.Fatal(err)
		}
		if err := f.SetFault(fabric.Uplink(0, 3), fabric.Fault{Down: true}); err != nil {
			t.Fatal(err)
		}
		if err := f.SetFault(fabric.Uplink(5, 7), fabric.Fault{DropProb: 0.002}); err != nil {
			t.Fatal(err)
		}
		res, err := collective.RunPermutation(se.Shard(0), f, eps, collective.PermutationConfig{
			Alg: multipath.OBS, Paths: 64, BytesPerFlow: 512 << 10,
			SamplePeriod: sim.Duration(50 * time.Microsecond), Seed: 14,
		})
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		return res
	}
	ref := run(1)
	for _, shards := range []int{2, 4} {
		if got := run(shards); !reflect.DeepEqual(got, ref) {
			t.Errorf("shards=%d diverged from shards=1:\n got %+v\nwant %+v", shards, got, ref)
		}
	}
}

// TestFig12ScaleShardInvariant covers the registered multi-pod
// experiment end to end at 1 vs 4 shards (the 4096-host fig9-scale run
// is exercised by the CLI/CI smoke; it is too large for unit tests).
func TestFig12ScaleShardInvariant(t *testing.T) {
	run := func(shards int) [][]string {
		s := NewSession(7)
		s.Parallelism = shards
		tb, err := Fig12Scale(s)
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		return tb.Rows
	}
	if a, b := run(1), run(4); !reflect.DeepEqual(a, b) {
		t.Errorf("fig12-scale diverged: shards=1 %v vs shards=4 %v", a, b)
	}
}

// TestShardedSessionAccounting: the session builds one shard per worker,
// clamped to the model's pods, one shard under a tracer or chaos
// scenario, and records every shard engine it builds so Fired() covers
// the whole run.
func TestShardedSessionAccounting(t *testing.T) {
	s := NewSession(3)
	s.Parallelism = 8
	s.cluster(netConfig(2, 4), transport.Config{})
	if got := s.Engines(); got != 1 {
		t.Fatalf("Engines() = %d after a single-pod cluster, want 1", got)
	}
	se, _, _, err := scaleCluster(s, scaleConfig(2, 8, 2, 4, 2))
	if err != nil {
		t.Fatal(err)
	}
	if got := se.NumShards(); got != 4 {
		t.Fatalf("NumShards() = %d on a 4-pod fabric at Parallelism=8, want 4", got)
	}
	if got := s.Engines(); got != 5 {
		t.Fatalf("Engines() = %d after cluster + 4-pod scaleCluster, want 5", got)
	}
	for i := 0; i < se.NumShards(); i++ {
		se.Shard(i).At(10, func() {})
	}
	se.RunAll()
	if got := s.Fired(); got != 4 {
		t.Fatalf("Fired() = %d, want 4 (one event per shard)", got)
	}

	for _, c := range []struct {
		name string
		set  func(*Session)
	}{
		{"parallelism 1", func(s *Session) { s.Parallelism = 1 }},
		{"tracer", func(s *Session) { s.Tracer = trace.New(1 << 10) }},
		{"chaos", func(s *Session) { s.Chaos = chaos.NewScenario("empty") }},
	} {
		s := NewSession(3)
		s.Parallelism = 8
		c.set(s)
		if got := s.newShardedEngine(4).NumShards(); got != 1 {
			t.Errorf("%s: NumShards() = %d for 4 units at Parallelism=%d, want 1", c.name, got, s.Parallelism)
		}
	}
}
