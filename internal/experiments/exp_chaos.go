package experiments

import (
	"fmt"
	"time"

	"repro/internal/chaos"
	"repro/internal/fabric"
	"repro/internal/multipath"
	"repro/internal/sim"
	"repro/internal/transport"
)

// FailureSweep extends Figure 11 beyond random loss: every §7.2
// selector is driven through a hard uplink failure, a gray-failing
// uplink (loss + latency inflation + a bandwidth cap) and a whole
// aggregation-switch reboot, with the chaos engine injecting the faults
// and the recovery observer measuring per-flow time-to-detect,
// time-to-recover, goodput-dip area and stalls. Path blacklisting with
// probe-based reinstatement is armed on every connection and fed by the
// chaos event bus.
func FailureSweep(s *Session) (*Table, error) {
	t := &Table{
		ID:    "failure-sweep",
		Title: "Goodput and recovery across fault classes (paper: 128-path spraying makes single-link faults near-invisible)",
		Header: []string{"algorithm", "paths", "fault", "goodput (GB/s)", "relative",
			"detected", "ttd (us)", "ttr (us)", "dip (MB)", "stalls", "max retry"},
	}
	// Scaled to smoke-test size: a coarse MTU and a short horizon keep
	// the 24-run sweep tractable; the fault window still spans a reboot
	// cycle plus settling time.
	const (
		faultAt = 3 * time.Millisecond
		horizon = 12 * time.Millisecond
		flows   = 4
	)
	conditions := []struct {
		name string
		sc   *chaos.Scenario
	}{
		{"healthy", chaos.NewScenario("healthy")},
		{"link-down", chaos.NewScenario("link-down").
			LinkDown(faultAt, fabric.Uplink(0, 0), 0)},
		{"gray", chaos.NewScenario("gray").
			Gray(faultAt, fabric.Uplink(0, 0),
				chaos.GraySpec{Loss: 0.02, Delay: 50 * time.Microsecond, BWFactor: 0.5}, 0)},
		{"switch-reboot", chaos.NewScenario("switch-reboot").
			SwitchReboot(faultAt, fabric.SwitchAgg, 0, 4*time.Millisecond)},
	}
	const aggs = 60
	run := func(alg multipath.Algorithm, paths int, sc *chaos.Scenario) (float64, []chaos.FlowRecovery, int, uint64, error) {
		eng, f, eps := s.cluster(netConfig(flows, aggs), transport.Config{MTU: 16 << 10, InitialWindow: 1 << 20})
		ce := chaos.New(eng, f)
		rec := chaos.NewRecovery(eng)
		rec.Attach(ce)
		var bls []*multipath.Blacklist
		var conns []*transport.Conn
		for i := 0; i < flows; i++ {
			flow := uint64(1 + i)
			bl := multipath.WithBlacklist(
				multipath.New(alg, paths, eng.RNG().Fork(flow*2+1)))
			c, err := transport.ConnectWithSelector(eps[i], eps[flows+i], flow, bl)
			if err != nil {
				return 0, nil, 0, 0, err
			}
			c.Send(1<<30, nil) // effectively unbounded for the horizon
			bls = append(bls, bl)
			conns = append(conns, c)
			rec.Watch(fmt.Sprintf("flow-%d", flow), chaos.FlowSource{
				Rx:   c.PeerReceivedBytes,
				Retx: func() uint64 { return c.Retransmits },
			})
		}
		// Feed fabric faults into every connection's path blacklist: a
		// dead ToR↔Agg link (an uplink, or every link of a rebooting
		// aggregation switch) quarantines the paths that hash onto its
		// agg; the clear lets the probes reinstate them.
		ce.Subscribe(func(fr chaos.Firing) {
			for _, ref := range fr.Links {
				if ref.Tier != fabric.TierTorAgg {
					continue
				}
				for _, bl := range bls {
					for p := ref.Agg; p < bl.NumPaths(); p += aggs {
						if fr.Phase == chaos.PhaseInject {
							bl.MarkDown(p)
						} else {
							bl.MarkUp(p)
						}
					}
				}
			}
		})
		rec.Start()
		if err := ce.Play(sc); err != nil {
			return 0, nil, 0, 0, err
		}
		eng.Run(sim.Time(horizon))
		var bytes uint64
		var maxRetry uint64
		for _, c := range conns {
			bytes += c.PeerReceivedBytes()
			if c.MaxRetries > maxRetry {
				maxRetry = c.MaxRetries
			}
		}
		report := rec.Report()
		stalls := len(rec.Stalls())
		for _, c := range conns {
			c.Close()
		}
		return float64(bytes) / horizon.Seconds(), report, stalls, maxRetry, nil
	}
	// Each (algorithm, fault) cell builds its own engine and fabric, so
	// cells run independently on the session's worker pool; rows are
	// assembled from the cell slice in sweep order afterwards, keeping
	// the table byte-identical at any parallelism. conditions[0] is the
	// healthy baseline each algorithm's relative column divides by.
	type cellRes struct {
		gp       float64
		report   []chaos.FlowRecovery
		stalls   int
		maxRetry uint64
	}
	algs := multipath.Algorithms()
	pathsFor := func(alg multipath.Algorithm) int {
		if alg == multipath.SinglePath {
			return 1
		}
		return 128
	}
	cells := make([]cellRes, len(algs)*len(conditions))
	err := s.runCells(len(cells), func(ci int) error {
		alg := algs[ci/len(conditions)]
		cond := conditions[ci%len(conditions)]
		gp, report, stalls, maxRetry, err := run(alg, pathsFor(alg), cond.sc)
		if err != nil {
			return fmt.Errorf("failure-sweep %s/%s: %w", alg, cond.name, err)
		}
		cells[ci] = cellRes{gp, report, stalls, maxRetry}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for ai, alg := range algs {
		paths := pathsFor(alg)
		var healthy float64
		for cj, cond := range conditions {
			c := cells[ai*len(conditions)+cj]
			if cond.name == "healthy" {
				healthy = c.gp
			}
			rel := "-"
			if healthy > 0 {
				rel = fmt.Sprintf("%+.1f%%", 100*(c.gp-healthy)/healthy)
			}
			detected, ttdSum, ttrSum, recovered := 0, 0.0, 0.0, 0
			var dip float64
			for _, fr := range c.report {
				if fr.Detected {
					detected++
					ttdSum += fr.TimeToDetect.Seconds()
				}
				if fr.Recovered {
					recovered++
					ttrSum += fr.TimeToRecover.Seconds()
				}
				dip += fr.DipBytes
			}
			ttd, ttr := "-", "-"
			if detected > 0 {
				ttd = fmt.Sprintf("%.0f", ttdSum/float64(detected)*1e6)
			}
			if recovered > 0 {
				ttr = fmt.Sprintf("%.0f", ttrSum/float64(recovered)*1e6)
			}
			det := "-"
			if cond.name != "healthy" {
				det = fmt.Sprintf("%d/%d", detected, flows)
			}
			t.AddRow(alg.String(), fmt.Sprintf("%d", paths), cond.name,
				fmt.Sprintf("%.1f", c.gp/1e9), rel, det, ttd, ttr,
				fmt.Sprintf("%.1f", dip/1e6),
				fmt.Sprintf("%d", c.stalls), fmt.Sprintf("%d", c.maxRetry))
		}
	}
	t.Notes = append(t.Notes,
		"fault hits uplink/switch agg 0 at 3 ms; goodput over a 12 ms horizon; ttd/ttr are means over flows that detected/recovered (100 us sampling)",
		"expect: 128-path spraying holds goodput within ~10% through any single fault; single-path collapses because every flow hashes to the failed agg")
	return t, nil
}
