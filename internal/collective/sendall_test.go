package collective

import (
	"testing"

	"repro/internal/multipath"
	"repro/internal/sim"
	"repro/internal/transport"
)

// mesh connects every ordered pair of eps, the all-to-all pattern of
// expert-parallel MoE training (§9), with flow IDs from 1.
func mesh(t *testing.T, eps []*transport.Endpoint, alg multipath.Algorithm, paths int) []*transport.Conn {
	t.Helper()
	var conns []*transport.Conn
	for i, src := range eps {
		for j, dst := range eps {
			if i == j {
				continue
			}
			c, err := transport.Connect(src, dst, uint64(len(conns)+1), alg, paths)
			if err != nil {
				t.Fatal(err)
			}
			conns = append(conns, c)
		}
	}
	return conns
}

func TestAllToAllExchangeCompletes(t *testing.T) {
	eng, _, eps := newCluster(t, 21, 2, 4, 8)
	conns := mesh(t, eps, multipath.OBS, 16)
	if len(conns) != 8*7 {
		t.Fatalf("conns = %d, want 56", len(conns))
	}
	var res Result
	var firedAt []sim.Time
	SendAll(eng, conns, 256<<10, func(r Result) {
		res = r
		firedAt = append(firedAt, eng.Now())
		// done fires at the latest completion: every pair is acked.
		for _, c := range conns {
			if c.BytesAcked != 256<<10 {
				t.Errorf("done fired with a pair at %d of %d bytes", c.BytesAcked, 256<<10)
			}
		}
	})
	eng.RunAll()
	if len(firedAt) != 1 {
		t.Fatalf("done fired %d times, want 1", len(firedAt))
	}
	if res.End != firedAt[0] || res.Start != 0 {
		t.Errorf("Start, End = %v, %v; want 0 and the latest completion %v", res.Start, res.End, firedAt[0])
	}
	if res.Size != 256<<10 || res.BusBW <= 0 {
		t.Errorf("res = %+v", res)
	}
}

func TestAllToAllSprayBeatsSinglePath(t *testing.T) {
	// Even with all-to-all's natural entropy, per-flow pinning still
	// collides on the aggregation layer; spraying stays ahead.
	run := func(alg multipath.Algorithm, paths int) float64 {
		eng, _, eps := newCluster(t, 23, 2, 8, 8)
		var res Result
		SendAll(eng, mesh(t, eps, alg, paths), 512<<10, func(r Result) { res = r })
		eng.RunAll()
		return res.BusBW
	}
	single := run(multipath.SinglePath, 1)
	sprayed := run(multipath.OBS, 128)
	if sprayed <= single {
		t.Errorf("obs alltoall %.2e not above single-path %.2e", sprayed, single)
	}
}
