package experiments

import (
	"fmt"
	"time"

	"repro/internal/collective"
	"repro/internal/multipath"
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
		const bytesPerFlow = 8 << 20
		var conns []*transport.Conn
		for i := 0; i < 16; i++ {
			c, err := transport.Connect(eps[i], eps[16+i], uint64(100+i), alg, paths)
			if err != nil {
				return 0, 0, err
			}
			conns = append(conns, c)
		}
		var res collective.Result
		collective.SendAll(eng, conns, bytesPerFlow, func(r collective.Result) { res = r })
		eng.RunAll()
		if res.End == 0 {
			return 0, 0, fmt.Errorf("prob6: %s flows incomplete", alg)
		}
		goodput := float64(len(conns)*bytesPerFlow) / res.End.Seconds()
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
		if err := s.armChaos(eng, f); err != nil {
			return nil, err
		}
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
		if err := s.armChaos(eng, f); err != nil {
			return nil, err
		}
		// Static background ring (on for twice the horizon) plus a test
		// ring, both cross-segment.
		const horizon = 200 * time.Millisecond
		bg := interleave(eps, 16, 24)
		bgRing, err := collective.NewRing(bg, 1000, multipath.OBS, 128)
		if err != nil {
			return nil, err
		}
		collective.NewCyclic(eng, bgRing, 2<<20, 2*horizon, 0).Start()

		test := interleave(eps[16:], 16, 24)
		ring, err := collective.NewRing(test, 5000, alg, 128)
		if err != nil {
			return nil, err
		}
		res, err := ring.Rounds(eng, 4<<20, 1, horizon, "ablation-pathaware: "+alg.String())
		if err != nil {
			return nil, err
		}
		t.AddRow(alg.String(), fmt.Sprintf("%.2f", res[0].BusBW/1e9))
	}
	t.Notes = append(t.Notes,
		"with regular, permutation-like traffic and abundant paths, congestion awareness buys little over oblivious spraying")
	return t, nil
}
