// Flow-level failure recovery: the retry budget that turns endless
// retransmission into a surfaced error, Fail, and Reconnect — the
// software half of recovering from an RNIC QP reset.
//
// The paper's transport hides single-path faults behind repathing
// (§7.2), so a healthy flow retransmits without failing. Whole-NIC
// faults (firmware QP reset, ATC loss) and budget exhaustion fail the
// flow: Err turns non-nil and the flow stays quiesced — no timers
// armed, acks ignored, backlog held — until the operator (or the
// recovery controller in experiments) re-establishes the QP and calls
// Reconnect.
package transport

import (
	"errors"
	"math"

	"repro/internal/sim"
	"repro/internal/trace"
)

// ErrRetryBudget is wrapped by the error a flow surfaces when one
// packet exhausts Config.RetryBudget retransmissions.
var ErrRetryBudget = errors.New("transport: retry budget exhausted")

// Err reports why the flow failed: non-nil from the failure until
// Reconnect, nil while the flow is healthy.
func (c *Conn) Err() error { return c.ferr }

// OnFail registers a callback invoked each time the flow fails, after
// it has quiesced. One callback per connection; later calls replace
// earlier ones.
func (c *Conn) OnFail(fn func(error)) { c.failCB = fn }

// Fail fails the flow with err — the hook QP-error propagation uses
// when the RNIC flushes the flow's WQEs out from under it. A failed
// flow is one whose Err is non-nil, so a nil err is a programming error
// and panics.
func (c *Conn) Fail(err error) {
	if err == nil {
		panic("transport: Fail(nil): a failed flow needs a non-nil error")
	}
	c.fail(err)
}

// fail quiesces the flow: every pending RTO is detached (nothing
// retransmits out of an errored QP), acks are ignored from here on,
// and unacked state is retained so Reconnect can replay it. A flow
// that has already failed keeps its first error.
func (c *Conn) fail(err error) {
	if c.ferr != nil {
		return
	}
	c.ferr = err
	c.unacked.each(c.detachRTO)
	if tr := c.eng.Tracer(); tr.Enabled() {
		tr.Instant(c.src.label, "transport", "flow", "fail",
			trace.U("flow", c.Flow), trace.S("err", err.Error()))
	}
	if c.failCB != nil {
		c.failCB(err)
	}
}

// Reconnect re-establishes a failed flow, modelling the software path
// after the QP has been cycled back to RTS: congestion state restarts
// from the initial window, every unacked packet is replayed (in seq
// order, on freshly selected paths, with a new transmit epoch so
// pre-failure acks are recognised as stale) and queued backlog
// resumes. Valid on any flow; on a healthy one it is a forced
// re-establish.
func (c *Conn) Reconnect() {
	c.ferr = nil
	c.Reconnects++
	if tr := c.eng.Tracer(); tr.Enabled() {
		tr.Instant(c.src.label, "transport", "flow", "reconnect", trace.U("flow", c.Flow))
	}
	c.resetCC()
	// The ring iterates in ascending seq order by construction — the
	// replay order the map-backed implementation had to sort for.
	c.unacked.each(func(o *outstanding) {
		c.detachRTO(o)
		o.retries = 0
		o.epoch++
		o.path = c.sel.NextPath()
		o.sentAt = c.eng.Now()
		c.charge(o.path, o.size)
		c.transmit(o)
	})
	c.pump()
}

// arm arms o's RTO to fire after d. Its key is (now+d, a seq from
// Reserve): the seq a per-packet timer event would take here, so every
// other event keeps its own. The record is filed in the armed list,
// which stays sorted by (deadline, rtoSeq), the order per-packet timers
// would fire in. o holds the newest rtoSeq, so the scan back from the
// tail stops at the first record due no later than o; with a fixed RTO
// that is the tail itself, and only a backed-off or jittered retransmit
// walks back. A new head moves the deadline to it.
func (c *Conn) arm(o *outstanding, d sim.Duration) {
	o.deadline, o.rtoSeq = c.eng.Now().Add(d), c.eng.Reserve()
	at := c.armTail
	for at != nil && at.deadline > o.deadline {
		at = at.prev
	}
	o.prev = at
	if at == nil {
		o.next, c.armHead = c.armHead, o
		c.eng.SetDeadline(&c.rto, o.deadline, o.rtoSeq)
	} else {
		o.next, at.next = at.next, o
	}
	if o.next == nil {
		c.armTail = o
	} else {
		o.next.prev = o
	}
}

// detachRTO unlinks the packet's RTO from the armed list, if it is
// armed. Unlinking the head points the deadline at the new head, due no
// earlier, which only rewrites the deadline's fields; emptying the list
// stops it. Nothing of the packet's stays in the engine, so recycling
// the record is safe at once.
func (c *Conn) detachRTO(o *outstanding) {
	switch {
	case o.prev != nil:
		o.prev.next = o.next
	case c.armHead == o:
		c.armHead = o.next
		if h := o.next; h != nil {
			c.eng.SetDeadline(&c.rto, h.deadline, h.rtoSeq)
		} else {
			c.rto.Stop()
		}
	default:
		return // not armed
	}
	if o.next == nil {
		c.armTail = o.prev
	} else {
		o.next.prev = o.prev
	}
	o.next, o.prev = nil, nil
}

// fireRTO is the deadline's callback: the armed list's head is the RTO
// due now.
func fireRTO(a any) {
	c := a.(*Conn)
	o := c.armHead
	c.detachRTO(o)
	c.timeout(o)
}

// rtoInterval is the timeout for the packet's next (re)transmission:
// the base RTO on first transmit, then exponential backoff with a cap
// and seeded jitter. The jitter stream is forked per connection and
// consumed only on retransmissions, in event-dispatch order, so it is
// byte-identical from run to run.
func (c *Conn) rtoInterval(o *outstanding) sim.Duration {
	d := c.cfg.RTO
	if o.retries == 0 {
		return d
	}
	if c.cfg.RTOBackoff > 1 {
		f := float64(d) * math.Pow(c.cfg.RTOBackoff, float64(o.retries))
		if f > float64(c.cfg.RTOMax) {
			f = float64(c.cfg.RTOMax)
		}
		d = sim.Duration(f)
	}
	if c.cfg.RTOJitter > 0 {
		if span := int(float64(d) * c.cfg.RTOJitter); span > 0 {
			d += sim.Duration(c.rtoRNG.Intn(span))
		}
	}
	return d
}
