// Flow-level failure recovery: the per-flow state machine, the retry
// budget that turns endless retransmission into a surfaced error, and
// Reconnect — the software half of recovering from an RNIC QP reset.
//
// The paper's transport hides single-path faults behind repathing
// (§7.2), so the steady state is Active with occasional Degraded
// excursions. Whole-NIC faults (firmware QP reset, ATC loss) and
// budget exhaustion push the flow to Error, where it stays quiesced —
// no timers armed, acks ignored, backlog held — until the operator
// (or the recovery controller in experiments) re-establishes the QP
// and calls Reconnect.
package transport

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/sim"
	"repro/internal/trace"
)

// ErrRetryBudget is wrapped by the error a flow surfaces when one
// packet exhausts Config.RetryBudget retransmissions.
var ErrRetryBudget = errors.New("transport: retry budget exhausted")

// FlowState is the connection's recovery state.
type FlowState uint8

// Flow states, in recovery order: Active ⇄ Degraded, either → Error
// (budget exhaustion or Fail), Error → Reconnecting → Active.
const (
	FlowActive FlowState = iota
	FlowDegraded
	FlowError
	FlowReconnecting
)

func (s FlowState) String() string {
	switch s {
	case FlowActive:
		return "active"
	case FlowDegraded:
		return "degraded"
	case FlowError:
		return "error"
	case FlowReconnecting:
		return "reconnecting"
	default:
		return fmt.Sprintf("FlowState(%d)", uint8(s))
	}
}

// State reports the flow's recovery state.
func (c *Conn) State() FlowState { return c.state }

// Err reports why the flow is in FlowError (nil otherwise).
func (c *Conn) Err() error { return c.ferr }

// OnStateChange registers a callback invoked on every state
// transition, after the new state is installed. One callback per
// connection; later calls replace earlier ones.
func (c *Conn) OnStateChange(fn func(old, new FlowState)) { c.stateCB = fn }

// setState installs a new flow state and notifies the observer.
func (c *Conn) setState(s FlowState) {
	if c.state == s {
		return
	}
	old := c.state
	c.state = s
	if tr := c.eng.Tracer(); tr.Enabled() {
		tr.Instant(c.src.label, "transport", "flow", "state",
			trace.U("flow", c.Flow), trace.S("from", old.String()), trace.S("to", s.String()))
	}
	if c.stateCB != nil {
		c.stateCB(old, s)
	}
}

// Fail forces the flow into FlowError — the hook QP-error propagation
// uses when the RNIC flushes the flow's WQEs out from under it.
func (c *Conn) Fail(err error) { c.fail(err) }

// fail quiesces the flow: every pending RTO is detached (nothing
// retransmits out of an errored QP), acks are ignored from here on,
// and unacked state is retained so Reconnect can replay it.
func (c *Conn) fail(err error) {
	if c.state == FlowError {
		return
	}
	c.ferr = err
	c.unacked.each(c.detachRTO)
	c.setState(FlowError)
}

// Reconnect re-establishes a failed flow, modelling the software path
// after the QP has been cycled back to RTS: congestion state restarts
// from the initial window, every unacked packet is replayed (in seq
// order, on freshly selected paths, with a new transmit epoch so
// pre-failure acks are recognised as stale) and queued backlog
// resumes. Valid from any state; on a healthy flow it is a forced
// re-establish.
func (c *Conn) Reconnect() {
	c.setState(FlowReconnecting)
	c.ferr = nil
	c.Reconnects++

	c.window = float64(c.cfg.InitialWindow)
	c.inflight = 0
	if c.cfg.PerPathCC {
		per := float64(c.cfg.InitialWindow) / float64(len(c.pathWindow))
		if per < float64(c.cfg.MTU) {
			per = float64(c.cfg.MTU)
		}
		for i := range c.pathWindow {
			c.pathWindow[i] = per
			c.pathInflight[i] = 0
		}
	}

	c.setState(FlowActive)
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

// detachRTO cancels and drops the packet's pending RTO. The canceled
// queue entry still holds the outstanding record until the engine
// reaps it, but it never fires, so recycling the record is safe;
// dropping the handle keeps a later detach from canceling whatever
// event the engine reuses it for.
func (c *Conn) detachRTO(o *outstanding) {
	if o.rto != nil {
		o.rto.Cancel()
		o.rto = nil
	}
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
