package experiments

import (
	"fmt"
	"time"

	"repro/internal/collective"
	"repro/internal/multipath"
	"repro/internal/sim"
	"repro/internal/transport"
)

// AblationCC sweeps the in-house congestion control's two knobs — the
// ECN multiplicative-decrease beta and the RTT target — around the
// production point, measuring AllReduce bandwidth and peak queueing.
// §7.2 holds CC constant across all experiments; this ablation shows
// the operating point is on the flat part of the trade-off, not a
// cliff.
func AblationCC(s *Session) (*Table, error) {
	t := &Table{
		ID:     "ablation-cc",
		Title:  "CC sensitivity: ECN beta × RTT target around the production point",
		Header: []string{"ecn-beta", "target-rtt", "bus bw (GB/s)", "max queue (KB)", "ecn acks"},
	}
	run := func(beta float64, target sim.Duration) (float64, uint64, uint64, error) {
		// A deliberately under-provisioned fabric (8 aggs) plus a
		// persistent background ring so the CC actually sees marks.
		fc := netConfig(24, 8)
		fc.ECNThreshold = 128 << 10
		eng, f, eps := s.cluster(fc, transport.Config{ECNBeta: beta, TargetRTT: target})
		bg, err := collective.NewRing(interleave(eps, 16, 24), 1000, multipath.OBS, 128)
		if err != nil {
			return 0, 0, 0, err
		}
		const horizon = 500 * time.Millisecond
		collective.NewCyclic(eng, bg, 2<<20, 2*horizon, 0).Start() // on for the whole cell

		ring, err := collective.NewRing(interleave(eps[16:], 16, 24), 100, multipath.OBS, 128)
		if err != nil {
			return 0, 0, 0, err
		}
		res, err := ring.Rounds(eng, 8<<20, 1, horizon,
			fmt.Sprintf("ablation-cc: beta %.2f target %v", beta, target))
		if err != nil {
			return 0, 0, 0, err
		}
		maxQ := maxUplinkQueue(f, 2)
		var ecnAcks uint64
		for _, c := range ring.Conns() {
			ecnAcks += c.ECNAcks
		}
		return res[0].BusBW, maxQ, ecnAcks, nil
	}
	for _, beta := range []float64{0.5, 0.8, 0.95} {
		for _, target := range []sim.Duration{sim.Duration(30 * time.Microsecond), sim.Duration(60 * time.Microsecond), sim.Duration(120 * time.Microsecond)} {
			bw, maxQ, ecn, err := run(beta, target)
			if err != nil {
				return nil, err
			}
			mark := ""
			if beta == 0.8 && target == sim.Duration(60*time.Microsecond) {
				mark = " *"
			}
			t.AddRow(
				fmt.Sprintf("%.2f%s", beta, mark),
				sim.Duration(target).String(),
				fmt.Sprintf("%.2f", bw/1e9),
				fmt.Sprintf("%.0f", float64(maxQ)/1024),
				fmt.Sprintf("%d", ecn))
		}
	}
	t.Notes = append(t.Notes,
		"* production point (beta 0.8, target 60 us): gentler back-off (0.95) buys some bandwidth but multiplies ECN marks and deepens the worst queue; aggressive back-off (0.5) under-utilises")
	return t, nil
}
