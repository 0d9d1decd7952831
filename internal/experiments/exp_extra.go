package experiments

import (
	"fmt"
	"time"

	"repro/internal/collective"
	"repro/internal/multipath"
	"repro/internal/rund"
	"repro/internal/sim"
	"repro/internal/transport"
)

// Prob6Core reproduces the motivation for multi-path RDMA (§3.1
// Problem ⑥): a training job deployed across multiple pods pushes its
// traffic through the core "escape" layer, where single-path ECMP
// hashing collides while spraying stays balanced.
func Prob6Core(s *Session) (*Table, error) {
	t := &Table{
		ID:     "prob6-core",
		Title:  "Cross-pod traffic at the core layer (Problem ⑥: ECMP hash imbalance)",
		Header: []string{"transport", "core imbalance", "goodput (GB/s)"},
	}
	run := func(alg multipath.Algorithm, paths int) (float64, float64, error) {
		fc := netConfig(8, 16)
		fc.Segments, fc.SegmentsPerPod, fc.CoreSwitches, fc.CoreLinkBW = 4, 2, 8, 50e9
		eng, f, eps := s.cluster(fc, transport.Config{})
		// Cross-pod permutation: pod-0 hosts (0..15) to pod-1 hosts
		// (16..31), every flow crossing the core.
		done, total := 0, 0
		var last sim.Time
		const bytesPerFlow = 8 << 20
		for i := 0; i < 16; i++ {
			c, err := transport.Connect(eps[i], eps[16+i], uint64(100+i), alg, paths)
			if err != nil {
				return 0, 0, err
			}
			total++
			c.Send(bytesPerFlow, func(at sim.Time) {
				done++
				if at > last {
					last = at
				}
			})
		}
		eng.RunAll()
		if done != total {
			return 0, 0, fmt.Errorf("prob6: %d/%d flows completed", done, total)
		}
		goodput := float64(total*bytesPerFlow) / last.Seconds()
		return f.CoreImbalance(), goodput, nil
	}
	for _, tc := range []struct {
		name  string
		alg   multipath.Algorithm
		paths int
	}{
		{"single-path ecmp", multipath.SinglePath, 128},
		{"stellar obs/128", multipath.OBS, 128},
	} {
		imb, gp, err := run(tc.alg, tc.paths)
		if err != nil {
			return nil, err
		}
		t.AddRow(tc.name, fmt.Sprintf("%.2f", imb), fmt.Sprintf("%.1f", gp/1e9))
	}
	t.Notes = append(t.Notes,
		"single-path flows hash onto few core switches and bottleneck; spraying covers the escape layer uniformly")
	return t, nil
}

// AblationFlowlet evaluates flowlet switching on RDMA bulk traffic —
// §7.1: "flowlet-based solutions are often ineffective for RDMA load
// balancing due to RDMA's bulk traffic patterns."
func AblationFlowlet(s *Session) (*Table, error) {
	t := &Table{
		ID:     "ablation-flowlet",
		Title:  "Flowlet switching vs spraying on RDMA bulk traffic (§7.1)",
		Header: []string{"policy", "paths", "avg queue (KB)", "max queue (KB)", "goodput (GB/s)"},
	}
	for _, tc := range []struct {
		alg   multipath.Algorithm
		paths int
	}{
		{multipath.Flowlet, 128},
		{multipath.OBS, 128},
		{multipath.SinglePath, 1},
	} {
		eng, f, eps := s.cluster(netConfig(16, 60), transport.Config{})
		s.armChaos(eng, f)
		res, err := collective.RunPermutation(eng, f, eps, collective.PermutationConfig{
			Alg: tc.alg, Paths: tc.paths, BytesPerFlow: 8 << 20,
			SamplePeriod: sim.Duration(25 * time.Microsecond), Seed: s.Seed + 1,
		})
		if err != nil {
			return nil, err
		}
		t.AddRow(multipath.Algorithm.String(tc.alg), fmt.Sprintf("%d", tc.paths),
			fmt.Sprintf("%.1f", res.AvgQueue/1024),
			fmt.Sprintf("%.0f", float64(res.MaxQueue)/1024),
			fmt.Sprintf("%.1f", res.Goodput/1e9))
	}
	t.Notes = append(t.Notes,
		"bulk RDMA rarely pauses long enough to open a flowlet boundary, so flowlet degenerates toward single-path")
	return t, nil
}

// AblationPathAware compares the §9 path-aware sprayer against plain
// OBS on regular AI traffic, where the paper found "no significant
// performance advantage".
func AblationPathAware(s *Session) (*Table, error) {
	t := &Table{
		ID:     "ablation-pathaware",
		Title:  "Path-aware (REPS-style) spraying vs OBS on regular traffic (§9)",
		Header: []string{"policy", "bus bw (GB/s)"},
	}
	for _, alg := range []multipath.Algorithm{multipath.OBS, multipath.PathAware} {
		eng, f, eps := s.cluster(netConfig(24, 60), transport.Config{})
		s.armChaos(eng, f)
		// Static background ring plus a test ring, both cross-segment.
		bg := interleave(eps, 16, 24)
		bgRing, err := collective.NewRing(bg, 1000, multipath.OBS, 128)
		if err != nil {
			return nil, err
		}
		var loop func(collective.Result)
		loop = func(collective.Result) { bgRing.Reduce(eng, 2<<20, loop) }
		bgRing.Reduce(eng, 2<<20, loop)

		test := interleave(eps[16:], 16, 24)
		ring, err := collective.NewRing(test, 5000, alg, 128)
		if err != nil {
			return nil, err
		}
		res, err := reduceRounds(eng, ring, 4<<20, 1, 200*time.Millisecond, "ablation-pathaware: "+alg.String())
		if err != nil {
			return nil, err
		}
		t.AddRow(alg.String(), fmt.Sprintf("%.2f", res[0].BusBW/1e9))
	}
	t.Notes = append(t.Notes,
		"with regular, permutation-like traffic and abundant paths, congestion awareness buys little over oblivious spraying")
	return t, nil
}

// Deploy reproduces the paper's headline deployment statistics (§1):
// container initialization 15x faster, switch queue length down ~90%,
// and training speed improved by up to 14% — each measured with the
// corresponding experiment at summary scale.
func Deploy(s *Session) (*Table, error) {
	t := &Table{
		ID:     "deploy",
		Title:  "Headline deployment statistics (§1 abstract claims)",
		Header: []string{"claim", "paper", "measured"},
	}

	// Container initialization speed-up at 1.6 TB.
	h, err := s.host(podHost(4 << 40))
	if err != nil {
		return nil, err
	}
	cFull, err := h.Hypervisor.CreateContainer(rund.DefaultConfig("d-full", 1600<<30))
	if err != nil {
		return nil, err
	}
	fullBoot, err := cFull.Start(rund.PinFull)
	if err != nil {
		return nil, err
	}
	cPV, err := h.Hypervisor.CreateContainer(rund.DefaultConfig("d-pv", 1600<<30))
	if err != nil {
		return nil, err
	}
	pvBoot, err := cPV.Start(rund.PinOnDemand)
	if err != nil {
		return nil, err
	}
	t.AddRow("container init speed-up", "15x", fmt.Sprintf("%.0fx", fullBoot.Seconds()/pvBoot.Seconds()))

	// Switch queue reduction: single-path vs OBS/128 permutation.
	queue := func(alg multipath.Algorithm, paths int) (float64, error) {
		eng, f, eps := s.cluster(netConfig(16, 60), transport.Config{})
		s.armChaos(eng, f)
		res, err := collective.RunPermutation(eng, f, eps, collective.PermutationConfig{
			Alg: alg, Paths: paths, BytesPerFlow: 4 << 20,
			SamplePeriod: sim.Duration(25 * time.Microsecond), Seed: s.Seed + 1,
		})
		if err != nil {
			return 0, err
		}
		return res.AvgQueue, nil
	}
	qSingle, err := queue(multipath.SinglePath, 1)
	if err != nil {
		return nil, err
	}
	qSpray, err := queue(multipath.OBS, 128)
	if err != nil {
		return nil, err
	}
	t.AddRow("switch queue length reduction", "~90%", fmt.Sprintf("%.0f%%", (1-qSpray/qSingle)*100))

	// Training speed improvement (random ranking, worst observed seed).
	fig16, err := Fig16b(s)
	if err != nil {
		return nil, err
	}
	var maxImp string
	for _, n := range fig16.Notes {
		maxImp = n
	}
	t.AddRow("training speed improvement", "avg 6%, up to 14%", maxImp)
	return t, nil
}
