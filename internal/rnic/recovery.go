package rnic

import (
	"errors"

	"repro/internal/trace"
)

// QP error semantics: when a queue pair enters QPError — a firmware
// fault (ResetQPs), an explicit ModifyQP, or any future error source —
// the hardware flushes the work queued on it, and registered observers
// (the transport wiring) are notified so the fault propagates instead
// of silently stranding the flow. The model executes verbs as they are
// called and queues no work, so the flush is what the observers report.

// ErrWQEFlushed is the completion status of work flushed by a QP's
// transition to the error state (IB's WR_FLUSH_ERR); observers fail
// their flows with it.
var ErrWQEFlushed = errors.New("rnic: WQE flushed (QP in error state)")

// OnQPError registers an observer invoked (in registration order)
// every time a QP transitions into QPError. This is the propagation
// hook: the host stack wires it to transport.Conn.Fail so a NIC fault
// surfaces as a flow error.
func (r *RNIC) OnQPError(fn func(*QP)) {
	r.qpErrFns = append(r.qpErrFns, fn)
}

// enterQPError moves qp into QPError. Reports false (and does nothing)
// when the QP is already in error — the transition and the callbacks
// fire exactly once per error episode.
func (r *RNIC) enterQPError(qp *QP) bool {
	if qp.State == QPError {
		return false
	}
	qp.State = QPError
	if r.tr.Enabled() {
		r.tr.Instant(r.host, r.cfg.Name, "rnic", "qp-error", trace.U("qpn", uint64(qp.Number)))
	}
	for _, fn := range r.qpErrFns {
		fn(qp)
	}
	return true
}

// RecoverQP cycles an errored (or fresh) QP back to ready:
// RESET→INIT→RTR→RTS, the verbs sequence a driver replays after a
// fault.
func (r *RNIC) RecoverQP(qp *QP) error {
	for _, st := range []QPState{QPReset, QPInit, QPReadyToReceive, QPReadyToSend} {
		if err := r.ModifyQP(qp, st); err != nil {
			return err
		}
	}
	return nil
}
