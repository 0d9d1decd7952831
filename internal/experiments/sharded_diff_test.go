package experiments

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/collective"
	"repro/internal/fabric"
	"repro/internal/multipath"
	"repro/internal/sim"
	"repro/internal/transport"
)

// TestExperimentsShardInvariant: registered experiments must not change
// with the session's shard count or cell parallelism. These experiments
// build single-pod fabrics, so Shards=8 clamps to one engine; the check
// guards that clamp and the worker dimension. The multi-pod tests below
// exercise real cross-shard traffic.
func TestExperimentsShardInvariant(t *testing.T) {
	ids := []string{"fig12"}
	if !testing.Short() {
		ids = append(ids, "fig9", "failure-sweep", "contended-cluster")
	}
	for _, id := range ids {
		id := id
		t.Run(id, func(t *testing.T) {
			r, ok := Lookup(id)
			if !ok {
				t.Fatalf("unknown experiment %s", id)
			}
			run := func(shards, workers int) [][]string {
				s := NewSession(7)
				s.Shards = shards
				s.Parallelism = workers
				tb, err := r.Fn(s)
				if err != nil {
					t.Fatalf("shards=%d: %v", shards, err)
				}
				return tb.Rows
			}
			ref := run(1, 1)
			if got := run(8, 4); !reflect.DeepEqual(got, ref) {
				t.Errorf("shards=8 workers=4 diverged from shards=1:\n got %v\nwant %v", got, ref)
			}
		})
	}
}

// TestScalePermutationShardInvariant drives genuine cross-shard traffic:
// a reduced multi-pod fleet (8 segments × 8 hosts in 4 pods) under
// cross-pod permutation load, where every flow crosses the core seam and
// is handed off between shards. Results must be byte-identical at every
// shard count — the property the conservative-lookahead
// windows and the canonical entry-link drain exist to provide. Shard
// count 8 clamps to the 4 pods.
func TestScalePermutationShardInvariant(t *testing.T) {
	run := func(shards int) collective.PermutationResult {
		s := NewSession(11)
		s.Shards = shards
		se, f, eps := scaleCluster(s, scaleConfig(8, 8, 2, 16, 4))
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
		s.Shards = shards
		se, f, eps := scaleCluster(s, scaleConfig(8, 8, 2, 16, 4))
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
		s.Shards = shards
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

// TestShardedSessionAccounting: the session clamps its shard count to
// the model's pods, and records every shard engine it builds so Fired()
// covers the whole run.
func TestShardedSessionAccounting(t *testing.T) {
	s := NewSession(3)
	s.Shards = 8
	s.cluster(netConfig(2, 4), transport.Config{})
	if got := s.Engines(); got != 1 {
		t.Fatalf("Engines() = %d after a single-pod cluster, want 1", got)
	}
	se, _, _ := scaleCluster(s, scaleConfig(2, 8, 2, 4, 2))
	if got := se.NumShards(); got != 4 {
		t.Fatalf("NumShards() = %d on a 4-pod fabric at Shards=8, want 4", got)
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
	// A fork carries the shard count.
	if f := s.fork(); f.Shards != 8 {
		t.Fatalf("fork dropped Shards: %d", f.Shards)
	}
}
