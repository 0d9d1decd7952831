package jobgraph

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/fabric"
	"repro/internal/multipath"
	"repro/internal/sim"
	"repro/internal/transport"
)

// The differential fuzz harness: seeded random job graphs replayed on a
// multi-pod fleet with seeded random fault plans, asserted byte-identical
// across scheduler modes and harness parallelism. The graphs are small
// but adversarial — same-instant completions, send/recv cross-pod
// chains, collectives spanning every pod — exactly the shapes that
// expose ordering differences between engine configurations.

// fuzzFaults is a pre-drawn fault plan, applied identically to every
// fabric of one comparison (drawing inside the run would entangle the
// plan with engine construction order).
type fuzzFaults struct {
	loss []struct {
		seg, agg int
		p        float64
	}
	fail []struct{ seg, agg int }
}

func randomFaults(rng *sim.RNG, segs, aggs int) fuzzFaults {
	var fp fuzzFaults
	for i := 0; i < rng.Intn(3); i++ {
		fp.loss = append(fp.loss, struct {
			seg, agg int
			p        float64
		}{rng.Intn(segs), rng.Intn(aggs), 0.001 + 0.009*rng.Float64()})
	}
	if rng.Intn(2) == 1 {
		fp.fail = append(fp.fail, struct{ seg, agg int }{rng.Intn(segs), rng.Intn(aggs)})
	}
	return fp
}

func (fp fuzzFaults) apply(f *fabric.Fabric) error {
	for _, l := range fp.loss {
		if err := f.SetFault(fabric.Uplink(l.seg, l.agg), fabric.Fault{DropProb: l.p}); err != nil {
			return err
		}
	}
	// A failure drawn on a lossy link keeps its loss rate underneath.
	for _, fl := range fp.fail {
		ref := fabric.Uplink(fl.seg, fl.agg)
		ft, err := f.FaultOf(ref)
		if err != nil {
			return err
		}
		ft.Down = true
		if err := f.SetFault(ref, ft); err != nil {
			return err
		}
	}
	return nil
}

// randomGraph emits a layered DAG over ranks: each round every rank
// either computes, sends to a random peer (with the matching recv
// chained on the receiver), or joins a ring collective. Chaining each
// rank's ops keeps the graph valid by construction; random byte sizes
// and durations make same-instant collisions and cross-rank races
// likely rather than rare.
func randomGraph(t *testing.T, rng *sim.RNG, ranks, rounds int) *Graph {
	t.Helper()
	b := NewBuilder(fmt.Sprintf("fuzz-%d", rng.Uint64()%1000), ranks)
	last := make([]string, ranks) // each rank's latest op ID ("" = root)
	deps := func(r int) []string {
		if last[r] == "" {
			return nil
		}
		return []string{last[r]}
	}
	tag := uint64(1)
	id := 0
	nid := func(kind string) string { id++; return fmt.Sprintf("%s%d", kind, id) }
	for round := 0; round < rounds; round++ {
		for r := 0; r < ranks; r++ {
			switch rng.Intn(4) {
			case 0:
				d := sim.Duration(10+rng.Intn(500)) * sim.Duration(time.Microsecond)
				last[r] = b.Compute(nid("c"), r, d, deps(r)...)
			case 1, 2:
				peer := rng.Intn(ranks - 1)
				if peer >= r {
					peer++
				}
				bytes := uint64(4+rng.Intn(252)) << 10
				s := b.Send(nid("s"), r, peer, bytes, tag, deps(r)...)
				last[peer] = b.Recv(nid("r"), peer, r, tag, deps(peer)...)
				last[r] = s
				tag++
			case 3:
				if r != 0 || ranks < 4 {
					// One collective per round at most, anchored at rank 0.
					d := sim.Duration(10+rng.Intn(200)) * sim.Duration(time.Microsecond)
					last[r] = b.Compute(nid("c"), r, d, deps(r)...)
					continue
				}
				members := make([]int, ranks)
				var cdeps []string
				for i := range members {
					members[i] = i
					if last[i] != "" {
						cdeps = append(cdeps, last[i])
					}
				}
				cid := b.Collective(nid("a"), members, uint64(16+rng.Intn(240))<<10, cdeps...)
				for i := range members {
					last[i] = cid
				}
			}
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatalf("generated graph invalid: %v", err)
	}
	return g
}

// fuzzFleet builds a 4-pod fleet (8 segments × 4 hosts) on one engine:
// a replay's control state spans ranks, so it never runs sharded.
func fuzzFleet(t *testing.T, seed uint64, mode sim.SchedulerMode) (*sim.Engine, *fabric.Fabric, []*transport.Endpoint) {
	t.Helper()
	eng := sim.NewEngineMode(seed, mode)
	f := fabric.New(eng, fabric.Config{
		Segments: 8, HostsPerSegment: 4, Aggs: 8,
		SegmentsPerPod: 2, CoreSwitches: 4,
		HostLinkBW: 12.5e9, FabricLinkBW: 12.5e9,
		LinkDelay: 2 * time.Microsecond, QueueLimit: 4 << 20, ECNThreshold: 256 << 10,
	})
	var eps []*transport.Endpoint
	for h := 0; h < f.NumHosts(); h++ {
		eps = append(eps, transport.NewEndpoint(f, fabric.HostID(h), transport.Config{}))
	}
	return eng, f, eps
}

// TestFuzzReplayShardInvariant is the replay differential fuzz: for
// each seed, one random graph and one random fault plan replayed under
// the wheel and heap schedulers must produce byte-identical Results.
// The ranks straddle all four pods, so traffic crosses the core layer.
// The comparison runs at parallelism 1 and 4 — each configuration
// builds a private fleet, so concurrent replays must not see each other
// (the race detector holds the harness to that when run with -race).
func TestFuzzReplayShardInvariant(t *testing.T) {
	seeds := []uint64{3, 17, 101, 9001, 77777}
	if testing.Short() {
		seeds = seeds[:2]
	}
	const ranks = 16 // hosts 0..15: segments 0..3, pods 0 and 1
	modes := []sim.SchedulerMode{sim.SchedulerWheel, sim.SchedulerHeap}
	for _, seed := range seeds {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			grng := sim.NewRNG(seed)
			g := randomGraph(t, grng, ranks, 3)
			fp := randomFaults(grng, 8, 8)

			replay := func(mode sim.SchedulerMode) (Result, error) {
				eng, f, eps := fuzzFleet(t, seed, mode)
				// Spread the ranks across all pods: host stride 2
				// puts 16 ranks on every segment of the fleet.
				spread := make([]*transport.Endpoint, ranks)
				for i := range spread {
					spread[i] = eps[i*2]
				}
				if err := fp.apply(f); err != nil {
					return Result{}, err
				}
				return Run(eng, spread, g, Options{
					Alg: multipath.OBS, Paths: 16, FlowBase: 1,
				})
			}
			for _, workers := range []int{1, 4} {
				results := make([]Result, len(modes))
				errs := make([]error, len(modes))
				sem := make(chan struct{}, workers)
				var wg sync.WaitGroup
				for mi, mode := range modes {
					mi, mode := mi, mode
					wg.Add(1)
					go func() {
						defer wg.Done()
						sem <- struct{}{}
						defer func() { <-sem }()
						results[mi], errs[mi] = replay(mode)
					}()
				}
				wg.Wait()
				for mi, mode := range modes {
					if errs[mi] != nil {
						t.Fatalf("workers=%d %v: %v", workers, mode, errs[mi])
					}
					if !reflect.DeepEqual(results[mi], results[0]) {
						t.Errorf("workers=%d %v diverged from wheel:\n got %+v\nwant %+v",
							workers, mode, results[mi], results[0])
					}
				}
			}
		})
	}
}
