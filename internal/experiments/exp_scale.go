package experiments

import (
	"fmt"
	"time"

	"repro/internal/collective"
	"repro/internal/fabric"
	"repro/internal/multipath"
	"repro/internal/sim"
	"repro/internal/transport"
)

// scaleConfig is the multi-pod topology the scale experiments run on:
// segments grouped into pods behind a core escape layer, production
// link speeds. The 4096-host instance (128 hosts × 32 segments, four
// pods of eight) is the HPN7.0-proportioned fleet Figures 9 and 12 are
// re-run against; tests shrink the same shape to stay fast.
func scaleConfig(hostsPerSeg, segs, segsPerPod, aggs, cores int) fabric.Config {
	fc := netConfig(hostsPerSeg, aggs)
	fc.Segments, fc.SegmentsPerPod, fc.CoreSwitches = segs, segsPerPod, cores
	return fc
}

// fleetConfig is the canonical 4096-host instance.
func fleetConfig() fabric.Config { return scaleConfig(128, 32, 8, 60, 16) }

// scaleCluster builds a multi-pod fabric partitioned across the
// session's engine shards, one per worker and at most one per pod, with
// one endpoint per host. At Session.Parallelism < 2 (or with a
// tracer/chaos scenario attached) the whole fleet lands on a single
// engine and the numbers are — by the differential tests' guarantee —
// byte-identical to any other shard count.
func scaleCluster(s *Session, cfg fabric.Config) (*sim.ShardedEngine, *fabric.Fabric, []*transport.Endpoint, error) {
	se := s.newShardedEngine(cfg.Pods())
	f := fabric.NewSharded(se, cfg)
	if err := s.armChaos(se.Shard(0), f); err != nil {
		return nil, nil, nil, err
	}
	eps := make([]*transport.Endpoint, 0, f.NumHosts())
	for h := 0; h < f.NumHosts(); h++ {
		eps = append(eps, transport.NewEndpoint(f, fabric.HostID(h), transport.Config{}))
	}
	return se, f, eps, nil
}

// Fig9Scale re-runs Figure 9's permutation stress at fleet scale: 4096
// hosts across four pods, every flow aimed at the segment half the
// fabric away so all traffic crosses the core layer. This is the run
// that motivates the sharded engine — a single event loop owns a
// ~30M-event horizon here; at Session.Parallelism > 1 the pods run on
// separate shards with cross-pod packets handed off at the core seam.
func Fig9Scale(s *Session) (*Table, error) {
	t := &Table{
		ID:     "fig9-scale",
		Title:  "ToR queue depth, cross-pod permutation at 4096 hosts (paper: spraying holds at fleet scale)",
		Header: []string{"algorithm", "paths", "avg queue (KB)", "max queue (KB)", "goodput (GB/s)"},
	}
	for _, c := range []struct {
		alg   multipath.Algorithm
		paths int
	}{
		{multipath.SinglePath, 4},
		{multipath.OBS, 128},
	} {
		se, f, eps, err := scaleCluster(s, fleetConfig())
		if err != nil {
			return nil, err
		}
		res, err := collective.RunPermutation(se.Shard(0), f, eps, collective.PermutationConfig{
			Alg: c.alg, Paths: c.paths, BytesPerFlow: 1 << 20,
			SamplePeriod: sim.Duration(50 * time.Microsecond), Seed: s.Seed + 1,
		})
		if err != nil {
			return nil, err
		}
		t.AddRow(c.alg.String(), fmt.Sprintf("%d", c.paths),
			fmt.Sprintf("%.1f", res.AvgQueue/1024),
			fmt.Sprintf("%.0f", float64(res.MaxQueue)/1024),
			fmt.Sprintf("%.1f", res.Goodput/1e9))
	}
	t.Notes = append(t.Notes,
		"all 4096 flows cross the core escape layer; run with -parallel to split pods across engine shards")
	return t, nil
}

// Fig12Scale re-runs Figure 12's port-imbalance sweep with cross-pod
// flows: 16 connections between hosts two pods apart, so the path
// spray exercises the agg→core fan-out as well as the ToR uplinks.
func Fig12Scale(s *Session) (*Table, error) {
	t := &Table{
		ID:     "fig12-scale",
		Title:  "Port imbalance at 4096 hosts, cross-pod flows over the core layer",
		Header: []string{"paths", "imbalance (max-min/mean)", "uplinks touched", "cores touched"},
	}
	pathCounts := []int{32, 128, 256}
	rows := make([][]string, len(pathCounts))
	err := s.runCells(len(pathCounts), func(ci int) error {
		paths := pathCounts[ci]
		cfg := fleetConfig()
		se, f, eps, err := scaleCluster(s, cfg)
		if err != nil {
			return err
		}
		// First host of the pod two pods away: the longest escape route.
		// Every flow leaves host 0, so the batch runs on its shard.
		dst := 2 * cfg.SegmentsPerPod * cfg.HostsPerSegment
		var conns []*transport.Conn
		for i := 0; i < 16; i++ {
			c, err := transport.Connect(eps[0], eps[dst], uint64(100+i), multipath.OBS, paths)
			if err != nil {
				return err
			}
			conns = append(conns, c)
		}
		var res collective.Result
		collective.SendAll(f.EngineForSegment(0), conns, 4<<20, func(r collective.Result) { res = r })
		se.RunAll()
		if res.End == 0 {
			return fmt.Errorf("fig12-scale: %d paths: flows incomplete", paths)
		}
		touched := 0
		for _, st := range f.UplinkStats(0) {
			if st.BytesTx > 0 {
				touched++
			}
		}
		coresTouched := 0
		for _, b := range f.CoreStats() {
			if b > 0 {
				coresTouched++
			}
		}
		rows[ci] = []string{fmt.Sprintf("%d", paths), fmt.Sprintf("%.2f", f.Imbalance(0)),
			fmt.Sprintf("%d/%d", touched, cfg.Aggs),
			fmt.Sprintf("%d/%d", coresTouched, cfg.CoreSwitches)}
		return nil
	})
	if err != nil {
		return nil, err
	}
	t.Rows = append(t.Rows, rows...)
	t.Notes = append(t.Notes,
		"cross-pod spraying must also cover the core layer; imbalance collapses only once paths exceed the agg count")
	return t, nil
}
