package experiments

import (
	"fmt"
	"time"

	"repro/internal/collective"
	"repro/internal/fabric"
	"repro/internal/multipath"
	"repro/internal/sim"
	"repro/internal/transport"
	"repro/internal/workload"
)

// Fig9 regenerates the permutation-traffic queue-depth comparison: every
// algorithm at 4 and 128 paths.
func Fig9(s *Session) (*Table, error) {
	t := &Table{
		ID:     "fig9",
		Title:  "ToR queue depth, permutation traffic (paper: 128 paths cut avg/max queues ~90%)",
		Header: []string{"algorithm", "paths", "avg queue (KB)", "max queue (KB)", "goodput (GB/s)"},
	}
	for _, alg := range multipath.Algorithms() {
		for _, paths := range []int{4, 128} {
			if alg == multipath.SinglePath && paths != 4 {
				continue // single path ignores fan-out
			}
			eng, f, eps := s.cluster(netConfig(30, 60), transport.Config{})
			s.armChaos(eng, f)
			res, err := collective.RunPermutation(eng, f, eps, collective.PermutationConfig{
				Alg: alg, Paths: paths, BytesPerFlow: 8 << 20,
				SamplePeriod: sim.Duration(25 * time.Microsecond), Seed: s.Seed + 1,
			})
			if err != nil {
				return nil, err
			}
			t.AddRow(alg.String(), fmt.Sprintf("%d", paths),
				fmt.Sprintf("%.1f", res.AvgQueue/1024),
				fmt.Sprintf("%.0f", float64(res.MaxQueue)/1024),
				fmt.Sprintf("%.1f", res.Goodput/1e9))
		}
	}
	t.Notes = append(t.Notes, "expect: single-path worst; all multi-path algorithms converge at 128 paths")
	return t, nil
}

// interleave orders ring members alternately across the two segments so
// every ring edge crosses the aggregation layer.
func interleave(eps []*transport.Endpoint, n, hostsPerSeg int) []*transport.Endpoint {
	var out []*transport.Endpoint
	for i := 0; i < n/2; i++ {
		out = append(out, eps[i], eps[hostsPerSeg+i])
	}
	return out
}

// Fig10a regenerates the static-background AllReduce comparison.
func Fig10a(s *Session) (*Table, error) {
	t := &Table{
		ID:     "fig10a",
		Title:  "AllReduce bus bandwidth under static background (paper: RR/OBS@128 reach line rate; BestRTT/DWRR lag)",
		Header: []string{"algorithm", "paths", "bus bw (GB/s)"},
	}
	// The paper's test is three 512-GPU tasks; scaled to three 16-host
	// rings interleaved across segments on the 60-agg fabric.
	const ringSize = 16
	for _, alg := range []multipath.Algorithm{multipath.SinglePath, multipath.BestRTT, multipath.DWRR, multipath.RoundRobin, multipath.MPRDMA, multipath.OBS} {
		for _, paths := range []int{128} {
			hps := 3*ringSize/2 + 8
			eng, f, eps := s.cluster(netConfig(hps, 60), transport.Config{})
			s.armChaos(eng, f)
			// Two background rings on interleaved members.
			bg1 := interleave(eps, ringSize, hps)
			bg2 := interleave(eps[ringSize/2:], ringSize, hps)
			for i, members := range [][]*transport.Endpoint{bg1, bg2} {
				ring, err := collective.NewRing(members, uint64(1000+i*100), multipath.OBS, 128)
				if err != nil {
					return nil, err
				}
				var loop func(collective.Result)
				loop = func(collective.Result) { ring.Reduce(eng, 2<<20, loop) }
				ring.Reduce(eng, 2<<20, loop)
			}
			// Test ring on the remaining interleaved hosts.
			test := interleave(eps[ringSize:], ringSize, hps)
			ring, err := collective.NewRing(test, 5000, alg, paths)
			if err != nil {
				return nil, err
			}
			res, err := reduceRounds(eng, ring, 4<<20, 1, 200*time.Millisecond, fmt.Sprintf("fig10a: %s/%d", alg, paths))
			if err != nil {
				return nil, err
			}
			t.AddRow(alg.String(), fmt.Sprintf("%d", paths), fmt.Sprintf("%.2f", res[0].BusBW/1e9))
		}
	}
	return t, nil
}

// Fig10b regenerates the bursty-background comparison: OBS vs RR at 4
// and 128 paths against an on/off background task.
func Fig10b(s *Session) (*Table, error) {
	t := &Table{
		ID:     "fig10b",
		Title:  "AllReduce bus bandwidth under bursty background (paper: 128 paths mitigate; OBS > RR)",
		Header: []string{"algorithm", "paths", "mean bus bw (GB/s)", "min bus bw (GB/s)"},
	}
	for _, alg := range []multipath.Algorithm{multipath.RoundRobin, multipath.OBS} {
		for _, paths := range []int{4, 128} {
			eng, f, eps := s.cluster(netConfig(24, 60), transport.Config{})
			s.armChaos(eng, f)
			// Bursty background: 2 ms on / 2 ms off.
			bgMembers := interleave(eps, 16, 24)
			bgRing, err := collective.NewRing(bgMembers, 1000, multipath.OBS, 128)
			if err != nil {
				return nil, err
			}
			cyc := collective.NewCyclic(eng, bgRing, 4<<20, sim.Duration(2*time.Millisecond), sim.Duration(2*time.Millisecond))
			cyc.Start()

			test := interleave(eps[16:], 16, 24)
			ring, err := collective.NewRing(test, 5000, alg, paths)
			if err != nil {
				return nil, err
			}
			res, err := reduceRounds(eng, ring, 4<<20, 8, 500*time.Millisecond, fmt.Sprintf("fig10b: %s/%d", alg, paths))
			if err != nil {
				return nil, err
			}
			var sum, minBW float64
			for _, r := range res {
				sum += r.BusBW
				if minBW == 0 || r.BusBW < minBW {
					minBW = r.BusBW
				}
			}
			t.AddRow(alg.String(), fmt.Sprintf("%d", paths),
				fmt.Sprintf("%.2f", sum/float64(len(res))/1e9),
				fmt.Sprintf("%.2f", minBW/1e9))
		}
	}
	return t, nil
}

// Fig11 regenerates the link-failure experiment: random loss on one
// uplink, algorithms at 128 paths (plus single-path reference).
func Fig11(s *Session) (*Table, error) {
	t := &Table{
		ID:     "fig11",
		Title:  "AllReduce under random loss on one link (paper: 128 paths make 1-3% loss imperceptible)",
		Header: []string{"algorithm", "paths", "loss", "bus bw (GB/s)", "relative"},
	}
	// Long-running jobs amortise retransmission tails, so measure
	// aggregate bus bandwidth over several back-to-back large reduce
	// rounds — the paper's AllReduce tasks run for minutes, so a 250 µs
	// RTO is invisible next to a round. A coarser simulation MTU keeps
	// the event count tractable at this volume.
	run := func(alg multipath.Algorithm, paths int, loss float64) (float64, error) {
		const rounds = 3
		eng, f, eps := s.cluster(netConfig(24, 60), transport.Config{MTU: 16 << 10, InitialWindow: 1 << 20})
		s.armChaos(eng, f)
		if loss > 0 {
			if err := f.SetFault(fabric.Uplink(0, 0), fabric.Fault{DropProb: loss}); err != nil {
				return 0, err
			}
		}
		members := interleave(eps, 24, 24)
		ring, err := collective.NewRing(members, 100, alg, paths)
		if err != nil {
			return 0, err
		}
		start := eng.Now()
		res, err := reduceRounds(eng, ring, 48<<20, rounds, time.Second, fmt.Sprintf("fig11: %s/%d at %.0f%% loss", alg, paths, loss*100))
		if err != nil {
			return 0, err
		}
		var vol uint64
		for _, r := range res {
			vol += r.VolumePerFlow
		}
		return float64(vol) / res[rounds-1].End.Sub(start).Seconds(), nil
	}
	// Each (algorithm, loss) cell builds a private engine and fabric, so
	// the sweep runs on the session's worker pool; the loss-free cell
	// doubles as the baseline (it is the same deterministic run), and
	// rows are assembled in cell order — byte-identical to a serial run.
	algs := []multipath.Algorithm{multipath.SinglePath, multipath.RoundRobin, multipath.OBS}
	losses := []float64{0, 0.01, 0.03}
	bws := make([]float64, len(algs)*len(losses))
	err := s.runCells(len(bws), func(i int) error {
		alg := algs[i/len(losses)]
		paths := 128
		if alg == multipath.SinglePath {
			paths = 1
		}
		bw, err := run(alg, paths, losses[i%len(losses)])
		bws[i] = bw
		return err
	})
	if err != nil {
		return nil, err
	}
	for ai, alg := range algs {
		paths := 128
		if alg == multipath.SinglePath {
			paths = 1
		}
		base := bws[ai*len(losses)] // the loss-free cell
		for li, loss := range losses {
			bw := bws[ai*len(losses)+li]
			rel := 0.0
			if base > 0 {
				rel = bw / base
			}
			t.AddRow(alg.String(), fmt.Sprintf("%d", paths), fmt.Sprintf("%.0f%%", loss*100),
				fmt.Sprintf("%.2f", bw/1e9), fmt.Sprintf("%.2f", rel))
		}
	}
	t.Notes = append(t.Notes,
		"spraying over 128 paths divides the perceived loss rate by the fan-out; the short RTO repaths residual losses")
	return t, nil
}

// Fig12 regenerates the port-imbalance sweep: 16 connections between
// two hosts, path counts 4..256 over 60 aggregation switches.
func Fig12(s *Session) (*Table, error) {
	t := &Table{
		ID:     "fig12",
		Title:  "ToR uplink max-min load delta vs path count (paper: balanced only at >=128 over 60 aggs)",
		Header: []string{"paths", "imbalance (max-min/mean)", "uplinks touched"},
	}
	// One cell per path count, each on a private engine/fabric; rows
	// land at their cell index so the table is byte-identical at any
	// session parallelism.
	pathCounts := []int{4, 8, 16, 32, 64, 128, 256}
	rows := make([][]string, len(pathCounts))
	err := s.runCells(len(pathCounts), func(ci int) error {
		paths := pathCounts[ci]
		eng, f, eps := s.cluster(netConfig(2, 60), transport.Config{})
		s.armChaos(eng, f)
		var conns int
		done := 0
		for i := 0; i < 16; i++ {
			c, err := transport.Connect(eps[0], eps[2], uint64(100+i), multipath.OBS, paths)
			if err != nil {
				return err
			}
			conns++
			c.Send(4<<20, func(sim.Time) { done++ })
		}
		eng.RunAll()
		if done != conns {
			return fmt.Errorf("fig12: %d/%d flows completed", done, conns)
		}
		touched := 0
		for _, st := range f.UplinkStats(0) {
			if st.BytesTx > 0 {
				touched++
			}
		}
		rows[ci] = []string{fmt.Sprintf("%d", paths), fmt.Sprintf("%.2f", f.Imbalance(0)), fmt.Sprintf("%d/60", touched)}
		return nil
	})
	if err != nil {
		return nil, err
	}
	t.Rows = append(t.Rows, rows...)
	t.Notes = append(t.Notes, "with fewer paths than aggregation switches, some uplinks carry nothing; imbalance collapses at 128+")
	return t, nil
}

// fig16 runs the Stellar vs CX7 training comparison for one placement.
func fig16(s *Session, placement workload.Placement, id, title string) (*Table, error) {
	t := &Table{
		ID:     id,
		Title:  title,
		Header: []string{"model", "placement-seed", "cx7 steps/s", "stellar steps/s", "improvement"},
	}
	models := workload.Table1()[:2] // the Megatron jobs
	var avgSum float64
	var maxImp float64
	var n int
	for _, m := range models {
		for _, pseed := range []uint64{s.Seed + 9, s.Seed + 23} {
			speeds := map[string]float64{}
			for _, stack := range []struct {
				name  string
				alg   multipath.Algorithm
				paths int
				virt  float64
			}{
				{"cx7", multipath.SinglePath, 128, 0},
				{"stellar", multipath.OBS, 128, 0},
			} {
				// 128 hosts = 1,024 GPUs. A coarse MTU and a large simulated
				// reduce keep the measurement in steady state, where the
				// placement-dependent collision behaviour lives.
				eng, f, eps := s.cluster(netConfig(64, 60), transport.Config{MTU: 16 << 10, InitialWindow: 1 << 20})
				res, err := workload.RunStep(eng, f, eps, workload.JobConfig{
					Model: m, Platform: workload.DefaultPlatform(),
					Alg: stack.alg, Paths: stack.paths,
					Placement: placement, PlacementSeed: pseed,
					SimBytes: 24 << 20, OverlapFactor: 0.5, VirtOverhead: stack.virt,
				})
				if err != nil {
					return nil, err
				}
				speeds[stack.name] = res.Speed()
			}
			imp := speeds["stellar"]/speeds["cx7"] - 1
			avgSum += imp
			if imp > maxImp {
				maxImp = imp
			}
			n++
			t.AddRow(m.Name, fmt.Sprintf("%d", pseed),
				fmt.Sprintf("%.4f", speeds["cx7"]),
				fmt.Sprintf("%.4f", speeds["stellar"]),
				fmt.Sprintf("%+.2f%%", imp*100))
		}
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("avg improvement %+.2f%%, max %+.2f%%", avgSum/float64(n)*100, maxImp*100))
	return t, nil
}

// Fig16a is the reranked-placement comparison (paper: avg +0.72%).
func Fig16a(s *Session) (*Table, error) {
	return fig16(s, workload.Reranked,
		"fig16a", "Stellar vs CX7, reranked 1,024-GPU jobs (paper: avg +0.72%)")
}

// Fig16b is the random-ranking comparison (paper: avg +6%, max +14%).
func Fig16b(s *Session) (*Table, error) {
	return fig16(s, workload.RandomRanking,
		"fig16b", "Stellar vs CX7, randomly-ranked 1,024-GPU jobs (paper: avg +6%, max +14%)")
}

// Fig15 compares regular vs secure containers on the same Stellar
// transport: 256 GPUs (32 hosts), random ranking.
func Fig15(s *Session) (*Table, error) {
	t := &Table{
		ID:     "fig15",
		Title:  "Training speed, regular vs secure container (paper: nearly identical)",
		Header: []string{"container", "steps/s"},
	}
	m := workload.Table1()[0]
	for _, c := range []struct {
		name string
		virt float64
	}{
		{"regular (bare Stellar)", 0},
		{"secure (vStellar)", 0}, // direct-mapped data path: no overhead
	} {
		eng, f, eps := s.cluster(netConfig(16, 60), transport.Config{}) // 32 hosts = 256 GPUs
		s.armChaos(eng, f)
		res, err := workload.RunStep(eng, f, eps, workload.JobConfig{
			Model: m, Platform: workload.DefaultPlatform(),
			Alg: multipath.OBS, Paths: 128,
			Placement: workload.RandomRanking, PlacementSeed: s.Seed + 3,
			SimBytes: 2 << 20, OverlapFactor: 0.5, VirtOverhead: c.virt,
		})
		if err != nil {
			return nil, err
		}
		t.AddRow(c.name, fmt.Sprintf("%.4f", res.Speed()))
	}
	t.Notes = append(t.Notes, "vStellar's data path is direct-mapped, so secure containers train at bare-metal speed")
	return t, nil
}

// AblationPerPathCC compares the shared congestion-control context at
// 128 paths against per-path contexts at 4 paths (§9's trade-off).
func AblationPerPathCC(s *Session) (*Table, error) {
	t := &Table{
		ID:     "ablation-perpath-cc",
		Title:  "Shared CCC @128 paths vs per-path CCC @4 paths (§9)",
		Header: []string{"cc", "paths", "bus bw (GB/s)", "max queue (KB)"},
	}
	for _, mode := range []struct {
		name    string
		perPath bool
		paths   int
	}{
		{"shared", false, 128},
		{"per-path", true, 4},
	} {
		eng, f, eps := s.cluster(netConfig(16, 60), transport.Config{PerPathCC: mode.perPath})
		members := interleave(eps, 16, 16)
		ring, err := collective.NewRing(members, 100, multipath.OBS, mode.paths)
		if err != nil {
			return nil, err
		}
		var res collective.Result
		ring.Reduce(eng, 4<<20, func(r collective.Result) { res = r })
		eng.RunAll()
		maxQ := maxUplinkQueue(f, 2)
		t.AddRow(mode.name, fmt.Sprintf("%d", mode.paths),
			fmt.Sprintf("%.2f", res.BusBW/1e9), fmt.Sprintf("%.0f", float64(maxQ)/1024))
	}
	t.Notes = append(t.Notes, "high fan-out with one shared window maximises path diversity for regular AI traffic")
	return t, nil
}

// AblationRTO sweeps the retransmission timeout under loss: the 250 µs
// production value against slower alternatives.
func AblationRTO(s *Session) (*Table, error) {
	t := &Table{
		ID:     "ablation-rto",
		Title:  "RTO sensitivity under 1% loss on one uplink (production: 250 us)",
		Header: []string{"rto", "completion (ms)", "retransmits"},
	}
	for _, rto := range []time.Duration{250 * time.Microsecond, time.Millisecond, 4 * time.Millisecond} {
		eng, f, eps := s.cluster(netConfig(4, 8), transport.Config{RTO: rto})
		for a := 0; a < 8; a++ {
			if err := f.SetFault(fabric.Uplink(0, a), fabric.Fault{DropProb: 0.01}); err != nil {
				return nil, err
			}
		}
		c, err := transport.Connect(eps[0], eps[4], 1, multipath.OBS, 8)
		if err != nil {
			return nil, err
		}
		var doneAt sim.Time
		c.Send(16<<20, func(at sim.Time) { doneAt = at })
		eng.RunAll()
		if doneAt == 0 {
			return nil, fmt.Errorf("ablation-rto: transfer incomplete at rto=%v", rto)
		}
		t.AddRow(rto.String(), fmt.Sprintf("%.2f", doneAt.Seconds()*1e3), fmt.Sprintf("%d", c.Retransmits))
	}
	t.Notes = append(t.Notes, "longer RTOs stall recovery after loss; 250 us suits the low-latency topology")
	return t, nil
}
