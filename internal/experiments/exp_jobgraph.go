package experiments

import (
	"fmt"
	"time"

	"repro/internal/jobgraph"
	"repro/internal/multipath"
	"repro/internal/sim"
	"repro/internal/transport"
	"repro/internal/workload"
)

// contendedJob is one job of the contended-cluster schedule: its graph,
// the fleet hosts offered to it and the seed a random placement
// shuffles them with.
type contendedJob struct {
	name, kind string
	g          *jobgraph.Graph
	hosts      []int
	seed       uint64
}

// place seats the job on a fleet: its offered hosts, ordered by the
// placement policy, one per rank.
func (j contendedJob) place(fleet []*transport.Endpoint, p workload.Placement) []*transport.Endpoint {
	offered := make([]*transport.Endpoint, len(j.hosts))
	for k, h := range j.hosts {
		offered[k] = fleet[h]
	}
	return workload.OrderHosts(offered, p, j.seed)[:j.g.Ranks]
}

// contendedJobs is the fixed four-job schedule of the contended-cluster
// experiment: two Table-1 training jobs, an inference burst and a
// storage stream, on deliberately overlapping host sets that span both
// segments (so rings cross the aggregation layer and jobs compete for
// the same uplinks and host NICs). Job i places with seed+i.
func contendedJobs(seed uint64) ([]contendedJob, error) {
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
	// Hosts 0-15 sit in segment 0, 16-31 in segment 1; every job's set
	// straddles the segment boundary and overlaps its neighbours'.
	jobs := []contendedJob{
		{name: "train-" + workload.Table1()[0].Name, kind: "training", g: trainA,
			hosts: []int{0, 1, 2, 3, 16, 17, 18, 19}},
		{name: "train-" + workload.Table1()[1].Name, kind: "training", g: trainB,
			hosts: []int{4, 5, 6, 7, 20, 21, 22, 23}},
		{name: "inference-burst", kind: "inference", g: infer,
			hosts: []int{2, 3, 4, 5, 18, 19, 20, 21}},
		{name: "storage-stream", kind: "storage", g: store,
			hosts: []int{0, 1, 6, 7, 16, 17, 22, 23}},
	}
	for i := range jobs {
		jobs[i].seed = seed + uint64(i)
	}
	return jobs, nil
}

// ContendedCluster is the multi-job interference experiment: the
// four-job schedule above, swept over placement policy x transport
// stack. For every cell each job first runs alone on a fresh fleet
// (its isolated baseline), then the whole schedule shares one more
// fleet, each job replaying on the same engine with its own flow-ID
// range; the slowdown column is contended/isolated makespan, and the
// shared fleet's peak uplink queue is the fabric-level interference
// signal. This is Fig 15/16's single-job story promoted to
// contended-cluster numbers.
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
	rows := make([][][]string, len(cells))
	err := s.runCells(len(cells), func(i int) error {
		cfg := cells[i]
		jobs, err := contendedJobs(s.Seed)
		if err != nil {
			return err
		}
		opts := jobgraph.Options{Alg: cfg.alg, Paths: cfg.paths, FlowBase: 1}
		isolated := make([]sim.Duration, len(jobs))
		for k, j := range jobs {
			eng, f, eps := s.cluster(netConfig(16, 60), transport.Config{})
			if err := s.armChaos(eng, f); err != nil {
				return err
			}
			res, err := jobgraph.Run(eng, j.place(eps, cfg.placement), j.g, opts)
			if err != nil {
				return fmt.Errorf("isolated %q: %w", j.name, err)
			}
			isolated[k] = res.Makespan
		}
		eng, f, eps := s.cluster(netConfig(16, 60), transport.Config{})
		if err := s.armChaos(eng, f); err != nil {
			return err
		}
		replays := make([]*jobgraph.Replay, len(jobs))
		for k, j := range jobs {
			opts.FlowBase = 1 + uint64(k)<<20
			rp, err := jobgraph.NewReplay(eng, j.place(eps, cfg.placement), j.g, opts)
			if err != nil {
				return fmt.Errorf("contended %q: %w", j.name, err)
			}
			defer rp.Close()
			rp.Start(nil)
			replays[k] = rp
		}
		eng.RunAll()
		maxQ := fmt.Sprintf("%.0f", float64(maxUplinkQueue(f, 2))/1024)
		for k, rp := range replays {
			res, err := rp.Result()
			if err != nil {
				return fmt.Errorf("contended %q: %w", jobs[k].name, err)
			}
			iso, con := isolated[k].Seconds(), res.Makespan.Seconds()
			rows[i] = append(rows[i], []string{cfg.placement.String(), cfg.stack, jobs[k].name, jobs[k].kind,
				fmt.Sprintf("%.2f", iso*1e3), fmt.Sprintf("%.2f", con*1e3), fmt.Sprintf("%.3f", con/iso), maxQ})
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, cell := range rows {
		t.Rows = append(t.Rows, cell...)
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
			// Spread and slowest rank count only ranks that own or join
			// an op: an idle rank never finishes anything.
			active := make([]bool, g.Ranks)
			for _, op := range g.Ops {
				if op.Kind == jobgraph.OpCollective {
					for _, r := range op.Ranks {
						active[r] = true
					}
				} else {
					active[op.Rank] = true
				}
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
				slowest := -1
				var first, last sim.Time
				for r, end := range res.RankEnd {
					switch {
					case !active[r]:
					case slowest < 0:
						slowest, first, last = r, end, end
					case end > last:
						slowest, last = r, end
					case end < first:
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
