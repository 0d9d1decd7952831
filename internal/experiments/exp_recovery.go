package experiments

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/chaos"
	stellar "repro/internal/core"
	"repro/internal/multipath"
	"repro/internal/rnic"
	"repro/internal/sim"
	"repro/internal/transport"
)

// ChaosRecovery is the end-to-end failure-recovery drill: a transfer is
// hit mid-flight by a whole-NIC fault, and the run measures whether the
// stack completes it anyway. Two fault classes:
//
//   - qp-reset: RNIC firmware resets every QP; the run calls the
//     RNIC's ResetQPs at the fault time, since it is no fabric fault.
//     The WQE flush propagates through OnQPError → Conn.Fail, the flow
//     fails and quiesces, and (with recovery on) a controller re-cycles
//     the QP to RTS and calls Reconnect.
//   - rto-budget: a chaos host stall blackholes the host's links.
//     Exponential RTO backoff (with seeded jitter) spreads the retries;
//     the retry budget then fails the flow instead of retransmitting
//     forever, and the controller reconnects after the link repairs.
//
// Each condition runs with the recovery controller on and off; a second
// flow on an unaffected host rides along as the control. The recovery
// observer watches both flows' goodput for stalls. With recovery the faulted
// flow must complete every message; without it the flow must end the
// run failed — the assertions of TestChaosRecoveryOutcomes in
// claims_test.go.
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
		eng, f, eps := s.cluster(netConfig(flows, 8), transport.Config{
			MTU: 16 << 10, InitialWindow: 1 << 20,
			RTOBackoff: 2, RTOMax: time.Millisecond, RTOJitter: 0.1,
			RetryBudget: 3,
		})

		// The faulted flow's hardware context: host 0's one RNIC, one QP
		// cycled up to RTS.
		hc := stellar.DefaultHostConfig()
		hc.MemoryBytes, hc.NumSwitches, hc.NumRNICs, hc.NumGPUs = 8<<30, 1, 1, 1
		h, err := s.host(hc)
		if err != nil {
			return nil, err
		}
		nic := h.RNICs[0]
		pd := nic.AllocPD()
		qp, err := nic.CreateQP(pd)
		if err != nil {
			return nil, err
		}
		if err := nic.RecoverQP(qp); err != nil { // RESET→INIT→RTR→RTS
			return nil, err
		}

		obs := chaos.NewRecovery(eng)
		var conns []*transport.Conn
		for i := 0; i < flows; i++ {
			flow := uint64(1 + i)
			c, err := transport.Connect(eps[i], eps[flows+i], flow, multipath.OBS, 128)
			if err != nil {
				return nil, err
			}
			name := fmt.Sprintf("flow-%d", i+1)
			for j := 0; j < msgs; j++ {
				var done func(sim.Time)
				if j == msgs-1 { // finished flows are quiet, not stalled
					done = func(sim.Time) { obs.MarkDone(name) }
				}
				c.Send(msgSize, done)
			}
			obs.Watch(name, chaos.FlowSource{
				Rx:   c.PeerReceivedBytes,
				Retx: func() uint64 { return c.Retransmits },
			})
			conns = append(conns, c)
		}

		// QP error → flow error: the propagation wiring under test.
		nic.OnQPError(func(*rnic.QP) { conns[0].Fail(rnic.ErrWQEFlushed) })

		rows := make([]flowRow, flows)
		if withRec {
			// The recovery controller: on failure, cycle the QP back to
			// RTS and reconnect after a re-establish delay. If the fabric
			// is still black-holed the flow fails again on budget and the
			// controller goes around again.
			conns[0].OnFail(func(error) {
				eng.After(reconnectDelay, func() {
					if err := nic.RecoverQP(qp); err != nil {
						panic(err) // QPReset is valid from any state
					}
					conns[0].Reconnect()
					rows[0].recoveredAt = eng.Now()
				})
			})
		}

		obs.Start()

		switch cond {
		case "qp-reset":
			eng.At(eng.Now().Add(faultAt), func() { nic.ResetQPs() })
		case "rto-budget":
			sc := chaos.NewScenario(cond).HostStall(faultAt, 0, stallFor)
			if err := chaos.New(eng, f).Play(sc); err != nil {
				return nil, err
			}
		default:
			return nil, fmt.Errorf("chaos-recovery: unknown condition %q", cond)
		}
		eng.Run(sim.Time(horizon))

		for i, c := range conns {
			r := &rows[i]
			r.msgs = c.CompletedMessages()
			r.state, r.err = "active", "-"
			if ferr := c.Err(); ferr != nil {
				r.state, r.err = "error", "other"
				switch {
				case errors.Is(ferr, transport.ErrRetryBudget):
					r.err = "retry-budget"
				case errors.Is(ferr, rnic.ErrWQEFlushed):
					r.err = "wqe-flushed"
				}
			}
			r.retx = c.Retransmits
			r.maxRetry = c.MaxRetries
			r.reconnects = c.Reconnects
		}
		end := sim.Time(horizon)
		for _, s := range obs.Stalls() {
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
	// "FlowError" is the failed flow (Err() != nil) under the name the
	// pinned output has always printed.
	t.Notes = append(t.Notes,
		"fault at 500 us into a 2x16x2MiB transfer; retry budget 3, RTO backoff 2x capped at 1 ms with 10% seeded jitter; reconnect 200 us after FlowError",
		"expect: with recovery on, flow-1 completes 16/16 and ends active; with recovery off it parks in error (wqe-flushed / retry-budget) while the control flow-2 is untouched")
	return t, nil
}
