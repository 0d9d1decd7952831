package experiments

import (
	"fmt"
	"time"

	"repro/internal/fabric"
	"repro/internal/jobgraph"
	"repro/internal/multipath"
	"repro/internal/sim"
	"repro/internal/transport"
	"repro/internal/workload"
)

// contendedJobs is the fixed four-job schedule of the contended-cluster
// experiment: two Table-1 training jobs, an inference burst and a
// storage stream, on deliberately overlapping host sets that span both
// segments (so rings cross the aggregation layer and jobs compete for
// the same uplinks and host NICs).
func contendedJobs(seed uint64, placement workload.Placement, alg multipath.Algorithm, paths int) ([]jobgraph.JobSpec, error) {
	plat := workload.DefaultPlatform()
	trainA, err := jobgraph.FromModel(jobgraph.GenConfig{
		Model: workload.Table1()[0], Platform: plat,
		Ranks: 8, Steps: 2, CollectiveBytes: 12 << 20,
		ComputeTime: 500 * time.Microsecond,
	})
	if err != nil {
		return nil, err
	}
	trainB, err := jobgraph.FromModel(jobgraph.GenConfig{
		Model: workload.Table1()[1], Platform: plat,
		Ranks: 8, Steps: 2, CollectiveBytes: 12 << 20,
		ComputeTime: 500 * time.Microsecond,
	})
	if err != nil {
		return nil, err
	}
	infer, err := jobgraph.InferenceBurst("inference-burst", 6, 12, 1<<20, 300*time.Microsecond)
	if err != nil {
		return nil, err
	}
	store, err := jobgraph.StorageStream("storage-stream", 6, 5, 12<<20)
	if err != nil {
		return nil, err
	}
	mk := func(i int, name string, kind jobgraph.JobKind, g *jobgraph.Graph, hosts []int) jobgraph.JobSpec {
		return jobgraph.JobSpec{
			Name: name, Kind: kind, Graph: g, Alg: alg, Paths: paths,
			Placement: placement, PlacementSeed: seed + uint64(i),
			Hosts: hosts,
		}
	}
	// Hosts 0-15 sit in segment 0, 16-31 in segment 1; every job's set
	// straddles the segment boundary and overlaps its neighbours'.
	return []jobgraph.JobSpec{
		mk(0, "train-"+workload.Table1()[0].Name, jobgraph.Training, trainA,
			[]int{0, 1, 2, 3, 16, 17, 18, 19}),
		mk(1, "train-"+workload.Table1()[1].Name, jobgraph.Training, trainB,
			[]int{4, 5, 6, 7, 20, 21, 22, 23}),
		mk(2, "inference-burst", jobgraph.Inference, infer,
			[]int{2, 3, 4, 5, 18, 19, 20, 21}),
		mk(3, "storage-stream", jobgraph.Storage, store,
			[]int{0, 1, 6, 7, 16, 17, 22, 23}),
	}, nil
}

// ContendedCluster is the multi-job interference experiment: the
// four-job schedule above, swept over placement policy x transport
// stack. For every cell each job first runs alone on a fresh fleet
// (its isolated baseline), then the whole schedule shares one fleet;
// the slowdown column is contended/isolated makespan, and the cell's
// peak uplink queue is the fabric-level interference signal. This is
// Fig 15/16's single-job story promoted to contended-cluster numbers.
func ContendedCluster(s *Session) (*Table, error) {
	t := &Table{
		ID:     "contended-cluster",
		Title:  "Multi-job replay: per-job slowdown under fabric contention",
		Header: []string{"placement", "stack", "job", "kind", "isolated (ms)", "contended (ms)", "slowdown", "cell max uplink q (KB)"},
	}
	type cellCfg struct {
		placement workload.Placement
		stack     string
		alg       multipath.Algorithm
		paths     int
	}
	var cells []cellCfg
	for _, placement := range []workload.Placement{workload.Reranked, workload.RandomRanking} {
		for _, stack := range []struct {
			name  string
			alg   multipath.Algorithm
			paths int
		}{
			{"cx7 single-path", multipath.SinglePath, 128},
			{"stellar obs/128", multipath.OBS, 128},
		} {
			cells = append(cells, cellCfg{placement, stack.name, stack.alg, stack.paths})
		}
	}
	type cellOut struct {
		outcomes []jobgraph.Outcome
		maxQ     uint64
	}
	outs := make([]cellOut, len(cells))
	err := s.runCells(len(cells), func(i int) error {
		cfg := cells[i]
		jobs, err := contendedJobs(s.Seed, cfg.placement, cfg.alg, cfg.paths)
		if err != nil {
			return err
		}
		// RunContended builds the shared fleet last, so f is the fabric
		// the whole schedule contended on.
		var f *fabric.Fabric
		outcomes, err := jobgraph.RunContended(func() (*sim.Engine, []*transport.Endpoint, error) {
			eng, fab, eps := s.cluster(netConfig(16, 60), transport.Config{})
			f = fab
			return eng, eps, s.armChaos(eng, fab)
		}, jobs)
		if err != nil {
			return err
		}
		outs[i] = cellOut{outcomes: outcomes, maxQ: maxUplinkQueue(f, 2)}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i, cfg := range cells {
		for _, o := range outs[i].outcomes {
			t.AddRow(cfg.placement.String(), cfg.stack, o.Name, string(o.Kind),
				fmt.Sprintf("%.2f", o.Isolated.Seconds()*1e3),
				fmt.Sprintf("%.2f", o.Contended.Seconds()*1e3),
				fmt.Sprintf("%.3f", o.Slowdown),
				fmt.Sprintf("%.0f", float64(outs[i].maxQ)/1024))
		}
	}
	t.Notes = append(t.Notes,
		"slowdown = contended/isolated makespan on identical fleets; 1.000 means perfect bandwidth isolation",
		"random ranking interleaves every job's ring across segments, so contention concentrates on shared uplinks; spraying (obs/128) spreads it")
	return t, nil
}

// JobGraphRunner wraps a graph loaded from -jobgraph <file> as a
// one-off experiment: the graph replays on a fleet sized to its rank
// count under both the single-path baseline and the Stellar stack.
func JobGraphRunner(g *jobgraph.Graph) Runner {
	id := "jobgraph:" + g.Name
	return Runner{
		ID:   id,
		Desc: fmt.Sprintf("replay of job graph %q (%d ranks, %d ops)", g.Name, g.Ranks, len(g.Ops)),
		Fn: func(s *Session) (*Table, error) {
			t := &Table{
				ID:     id,
				Title:  fmt.Sprintf("Job-graph replay: %s (%d ranks, %d ops)", g.Name, g.Ranks, len(g.Ops)),
				Header: []string{"stack", "makespan (ms)", "wire (MB)", "slowest rank", "rank spread (ms)"},
			}
			hostsPerSeg := (g.Ranks + 1) / 2
			if hostsPerSeg < 2 {
				hostsPerSeg = 2
			}
			for _, stack := range []struct {
				name  string
				alg   multipath.Algorithm
				paths int
			}{
				{"cx7 single-path", multipath.SinglePath, 128},
				{"stellar obs/128", multipath.OBS, 128},
			} {
				eng, f, eps := s.cluster(netConfig(hostsPerSeg, 60), transport.Config{})
				if err := s.armChaos(eng, f); err != nil {
					return nil, err
				}
				res, err := jobgraph.Run(eng, eps, g, jobgraph.Options{
					Alg: stack.alg, Paths: stack.paths, FlowBase: 1,
				})
				if err != nil {
					return nil, err
				}
				slowest, first, last := 0, res.RankEnd[0], res.RankEnd[0]
				for r, end := range res.RankEnd {
					if end > last {
						last, slowest = end, r
					}
					if end < first {
						first = end
					}
				}
				t.AddRow(stack.name,
					fmt.Sprintf("%.3f", res.Makespan.Seconds()*1e3),
					fmt.Sprintf("%.1f", float64(res.WireBytes)/1e6),
					fmt.Sprintf("%d", slowest),
					fmt.Sprintf("%.3f", last.Sub(first).Seconds()*1e3))
			}
			st := g.Stats()
			t.Notes = append(t.Notes,
				fmt.Sprintf("graph: %d ops (%d compute, %d send, %d recv, %d collective), %.2f MB on the wire over %d send pair(s), %v compute across ranks, max op fan-in %d",
					st.Ops, st.ByKind[jobgraph.OpCompute], st.ByKind[jobgraph.OpSend], st.ByKind[jobgraph.OpRecv],
					st.ByKind[jobgraph.OpCollective], float64(st.Bytes)/1e6, st.PairsUsed, st.Compute, st.MaxFanIn),
				"rank spread is the gap between the first and last rank to finish - the straggler signature")
			return t, nil
		},
	}
}
