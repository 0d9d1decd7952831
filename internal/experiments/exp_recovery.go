package experiments

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/chaos"
	"repro/internal/fabric"
	"repro/internal/iommu"
	"repro/internal/mem"
	"repro/internal/multipath"
	"repro/internal/pcie"
	"repro/internal/rnic"
	"repro/internal/sim"
	"repro/internal/transport"
)

// ChaosRecovery is the end-to-end failure-recovery drill: a transfer is
// hit mid-flight by a whole-NIC fault, and the run measures whether the
// stack completes it anyway. Two fault classes:
//
//   - qp-reset: RNIC firmware resets every QP. The WQE flush propagates
//     through OnQPError → Conn.Fail, the flow quiesces in FlowError, and
//     (with recovery on) a controller re-cycles the QP to RTS and calls
//     Reconnect.
//   - rto-budget: the host's links blackhole. Exponential RTO backoff
//     (with seeded jitter) spreads the retries; the retry budget then
//     moves the flow to FlowError instead of retransmitting forever, and
//     the controller reconnects after the link repairs.
//
// Each condition runs with the recovery controller on and off; a second
// flow on an unaffected host rides along as the control. The watchdog
// observes both flows' goodput for stalls. With recovery the faulted
// flow must complete every message; without it the flow must end the
// run parked in FlowError — the assertions in exp_recovery_test.go.
func ChaosRecovery(s *Session) (*Table, error) {
	t := &Table{
		ID:    "chaos-recovery",
		Title: "End-to-end failure recovery: QP reset and retry-budget exhaustion, with and without reconnect",
		Header: []string{"condition", "recovery", "flow", "msgs", "state", "err",
			"retx", "max retry", "reconnects", "recovered-at (us)", "stalls", "max stall (us)"},
	}
	const (
		flows          = 2 // flow-1 rides the faulted NIC, flow-2 is the control
		msgs           = 16
		msgSize        = 2 << 20
		faultAt        = 500 * time.Microsecond
		stallFor       = 2 * time.Millisecond
		reconnectDelay = 200 * time.Microsecond
		horizon        = 10 * time.Millisecond
	)
	type flowRow struct {
		msgs        uint64
		state       string
		err         string
		retx        uint64
		maxRetry    uint64
		reconnects  uint64
		recoveredAt sim.Time
		stalls      int
		maxStall    sim.Duration
	}
	run := func(cond string, withRec bool) ([]flowRow, error) {
		eng := s.newEngine()
		f := fabric.New(eng, fabric.Config{
			Segments: 2, HostsPerSegment: flows, Aggs: 8,
			HostLinkBW: 50e9, FabricLinkBW: 50e9,
			LinkDelay: 2 * time.Microsecond, QueueLimit: 16 << 20, ECNThreshold: 512 << 10,
		})
		var eps []*transport.Endpoint
		for h := 0; h < f.NumHosts(); h++ {
			eps = append(eps, transport.NewEndpoint(f, fabric.HostID(h), transport.Config{
				MTU: 16 << 10, InitialWindow: 1 << 20,
				RTOBackoff: 2, RTOMax: time.Millisecond, RTOJitter: 0.1,
				RetryBudget: 3,
			}))
		}

		// The faulted flow's hardware context: one RNIC on host 0's PCIe
		// complex, one QP cycled up to RTS.
		u, err := iommu.New(iommu.Config{Mode: iommu.ModeNoPT, ATSEnabled: true})
		if err != nil {
			return nil, err
		}
		px := pcie.NewComplex(pcie.Config{}, u, mem.New(mem.Config{TotalBytes: 8 << 30}))
		sw := px.AddSwitch("sw0")
		nic, err := rnic.New(px, sw, rnic.DefaultConfig("rnic0"))
		if err != nil {
			return nil, err
		}
		if s.Tracer != nil {
			nic.SetTracer(s.Tracer, "host0")
		}
		pd := nic.AllocPD()
		qp, err := nic.CreateQP(pd)
		if err != nil {
			return nil, err
		}
		if err := nic.RecoverQP(qp); err != nil { // RESET→INIT→RTR→RTS
			return nil, err
		}

		wd := chaos.NewWatchdog(eng, chaos.WatchdogConfig{})
		var conns []*transport.Conn
		for i := 0; i < flows; i++ {
			flow := uint64(1 + i)
			c, err := transport.ConnectWithSelector(eps[i], eps[flows+i], flow,
				multipath.New(multipath.OBS, 128, eng.RNG().Fork(flow*2+1)))
			if err != nil {
				return nil, err
			}
			name := fmt.Sprintf("flow-%d", i+1)
			for j := 0; j < msgs; j++ {
				var done func(sim.Time)
				if j == msgs-1 { // finished flows are quiet, not stalled
					done = func(sim.Time) { wd.MarkDone(name) }
				}
				c.Send(msgSize, done)
			}
			wd.Watch(name, c.PeerReceivedBytes)
			conns = append(conns, c)
		}

		// QP error → flow error: the propagation wiring under test.
		nic.OnQPError(func(*rnic.QP) { conns[0].Fail(rnic.ErrWQEFlushed) })

		rows := make([]flowRow, flows)
		if withRec {
			// The recovery controller: on FlowError, cycle the QP back to
			// RTS and reconnect after a re-establish delay. If the fabric
			// is still black-holed the flow re-enters FlowError on budget
			// and the controller goes around again.
			conns[0].OnStateChange(func(_, s transport.FlowState) {
				if s != transport.FlowError {
					return
				}
				eng.After(reconnectDelay, func() {
					if err := nic.RecoverQP(qp); err != nil {
						panic(err) // QPReset is valid from any state
					}
					conns[0].Reconnect()
					rows[0].recoveredAt = eng.Now()
				})
			})
		}

		ce := chaos.New(eng, f)
		ce.RegisterNIC(nic)
		wd.Start()

		sc := chaos.NewScenario(cond)
		switch cond {
		case "qp-reset":
			sc.ResetQPs(faultAt, "*")
		case "rto-budget":
			sc.HostStall(faultAt, 0, stallFor)
		default:
			return nil, fmt.Errorf("chaos-recovery: unknown condition %q", cond)
		}
		if err := ce.Play(sc); err != nil {
			return nil, err
		}
		eng.Run(sim.Time(horizon))

		for i, c := range conns {
			r := &rows[i]
			r.msgs = c.CompletedMessages()
			r.state = c.State().String()
			r.err = "-"
			switch ferr := c.Err(); {
			case ferr == nil:
			case errors.Is(ferr, transport.ErrRetryBudget):
				r.err = "retry-budget"
			case errors.Is(ferr, rnic.ErrWQEFlushed):
				r.err = "wqe-flushed"
			default:
				r.err = "other"
			}
			r.retx = c.Retransmits
			r.maxRetry = c.MaxRetries
			r.reconnects = c.Reconnects
		}
		end := sim.Time(horizon)
		for _, s := range wd.Stalls() {
			i := 0
			if s.Flow == "flow-2" {
				i = 1
			}
			rows[i].stalls++
			if d := s.Duration(end); d > rows[i].maxStall {
				rows[i].maxStall = d
			}
		}
		for _, c := range conns {
			c.Close()
		}
		return rows, nil
	}
	for _, cond := range []string{"qp-reset", "rto-budget"} {
		for _, withRec := range []bool{true, false} {
			rows, err := run(cond, withRec)
			if err != nil {
				return nil, fmt.Errorf("chaos-recovery %s/recover=%v: %w", cond, withRec, err)
			}
			rec := "off"
			if withRec {
				rec = "on"
			}
			for i, r := range rows {
				recAt := "-"
				if r.recoveredAt != 0 {
					recAt = fmt.Sprintf("%.0f", float64(r.recoveredAt)/1e3)
				}
				t.AddRow(cond, rec, fmt.Sprintf("flow-%d", i+1),
					fmt.Sprintf("%d/%d", r.msgs, msgs), r.state, r.err,
					fmt.Sprintf("%d", r.retx), fmt.Sprintf("%d", r.maxRetry),
					fmt.Sprintf("%d", r.reconnects), recAt,
					fmt.Sprintf("%d", r.stalls),
					fmt.Sprintf("%.0f", r.maxStall.Seconds()*1e6))
			}
		}
	}
	t.Notes = append(t.Notes,
		"fault at 500 us into a 2x16x2MiB transfer; retry budget 3, RTO backoff 2x capped at 1 ms with 10% seeded jitter; reconnect 200 us after FlowError",
		"expect: with recovery on, flow-1 completes 16/16 and ends active; with recovery off it parks in error (wqe-flushed / retry-budget) while the control flow-2 is untouched")
	return t, nil
}
