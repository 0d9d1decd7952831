package chaos

import (
	"time"

	"repro/internal/sim"
	"repro/internal/trace"
)

// The observer's thresholds are fixed: every experiment and test reads
// flows at the same granularity.
const (
	// samplePeriod is the goodput sampling interval.
	samplePeriod sim.Duration = 100 * time.Microsecond
	// settle is the fraction of pre-fault baseline goodput at which a
	// flow counts as recovered.
	settle = 0.9
	// stallAfter is how long a flow's received-bytes counter must sit
	// still before the observer flags a stall: four RTOs, so repathing
	// that works never trips it.
	stallAfter sim.Duration = time.Millisecond
)

// FlowSource exposes one flow's cumulative counters to the observer.
// The transport side: Rx is the receiver's deduplicated payload bytes
// (Conn.PeerReceivedBytes), Retx the sender's RTO retransmit count.
type FlowSource struct {
	Rx   func() uint64
	Retx func() uint64
}

// FlowRecovery is the per-flow verdict after a fault episode.
type FlowRecovery struct {
	Name string
	// Baseline is the pre-fault goodput in bytes/sec.
	Baseline float64
	// Detected: the flow saw the fault (a retransmit fired after it).
	// TimeToDetect is fault→first-retransmit, at sampling granularity.
	Detected     bool
	TimeToDetect sim.Duration
	// Recovered: goodput returned to ≥ settle×Baseline after having
	// dipped below it. A flow that never left the settle band reports
	// Recovered with a zero TimeToRecover — no outage observed.
	Recovered     bool
	TimeToRecover sim.Duration
	// DipBytes is the goodput-dip area: bytes the flow fell short of
	// its baseline between the fault and recovery (or observation end).
	DipBytes float64
}

// Stall is one detected liveness violation on a watched flow.
type Stall struct {
	Flow string
	// Since is the last time progress was observed; At is when the
	// observer flagged the stall (Since + stallAfter, at sampling
	// granularity).
	Since sim.Time
	At    sim.Time
	// ClearedAt is when progress resumed; zero while still stalled.
	ClearedAt sim.Time
}

// Duration reports how long the flow was actually stalled (progress
// gap, not detection gap). Open stalls report against end, the
// observation end passed to the caller's accounting (typically the
// run horizon).
func (s Stall) Duration(end sim.Time) sim.Duration {
	if s.ClearedAt != 0 {
		return s.ClearedAt.Sub(s.Since)
	}
	return end.Sub(s.Since)
}

// Recovery watches transport counters, measuring per-flow
// time-to-detect, time-to-recover and goodput-dip area across a fault
// episode. Wire it to a chaos engine with Attach (the first injected
// fault starts the episode), then read Report after the run. It also
// flags stalls — flows whose received bytes sit still for stallAfter,
// like a failed flow held until Reconnect — read with Stalls and traced
// on the "watchdog" lane.
type Recovery struct {
	eng *sim.Engine

	flows   []*flowState
	faultAt sim.Time
	faulted bool
	started bool
	stalls  []Stall
}

type flowState struct {
	name string
	src  FlowSource

	lastRx      uint64
	preSamples  int
	preBytes    uint64
	baseline    float64 // bytes/sec, frozen at first fault
	retxAtFault uint64
	dipped      bool // goodput fell below the settle band post-fault

	rec FlowRecovery
	// span is the per-flow recovery trace span (zero when untraced).
	span trace.ID

	// Stall detection state: lastMoveAt is the last sample at which Rx
	// advanced; done flows (MarkDone) are quiet legitimately.
	moved      bool
	lastMoveAt sim.Time
	done       bool
	stalled    bool
	open       int      // index into stalls of the open episode
	stallSpan  trace.ID // stall trace span (zero when untraced)
}

// NewRecovery builds an observer on the engine's virtual clock.
func NewRecovery(eng *sim.Engine) *Recovery {
	return &Recovery{eng: eng}
}

// Watch adds a flow. Call before Start.
func (r *Recovery) Watch(name string, src FlowSource) {
	r.flows = append(r.flows, &flowState{name: name, src: src})
}

// Attach subscribes the observer to a chaos engine: the first injected
// fault marks the episode start.
func (r *Recovery) Attach(ce *Engine) {
	ce.Subscribe(func(f Firing) {
		if f.Phase == PhaseInject {
			r.NoteFault()
		}
	})
}

// NoteFault marks the fault instant (first call wins; later faults are
// part of the same episode).
func (r *Recovery) NoteFault() {
	if r.faulted {
		return
	}
	r.faulted = true
	r.faultAt = r.eng.Now()
	tr := r.eng.Tracer()
	for _, fs := range r.flows {
		if fs.preSamples > 0 {
			window := sim.Duration(fs.preSamples) * samplePeriod
			fs.baseline = float64(fs.preBytes) / window.Seconds()
		}
		fs.retxAtFault = fs.src.Retx()
		if tr.Enabled() {
			fs.span = tr.NewID()
			tr.SpanBegin(fs.span, "chaos", "recovery", "flow", fs.name,
				trace.F("baseline-gbps", fs.baseline/1e9))
		}
	}
}

// Start begins sampling. The pre-fault samples build each flow's
// baseline; post-fault samples drive detection and recovery; every
// sample drives stall detection.
func (r *Recovery) Start() {
	if r.started {
		return
	}
	r.started = true
	now := r.eng.Now()
	for _, fs := range r.flows {
		fs.lastRx = fs.src.Rx()
		fs.lastMoveAt = now
	}
	r.eng.After(samplePeriod, r.tick)
}

// MarkDone ends stall detection on a flow: a transfer that has
// delivered everything is quiet legitimately, not stalled. Any open
// stall episode on the flow is closed at the current time. The flow
// keeps its recovery verdict.
func (r *Recovery) MarkDone(name string) {
	for _, fs := range r.flows {
		if fs.name == name && !fs.done {
			fs.done = true
			if fs.stalled {
				r.clearStall(fs, r.eng.Now())
			}
			return
		}
	}
}

// Stalls returns every stall episode recorded so far, in detection
// order. Episodes still open have a zero ClearedAt.
func (r *Recovery) Stalls() []Stall { return r.stalls }

// tick takes one sample: the recovery pass over every flow, then the
// stall pass over the flows not yet done. The order fixes where stall
// spans fall among recovery spans in the trace.
func (r *Recovery) tick() {
	now := r.eng.Now()
	periodSec := samplePeriod.Seconds()
	tr := r.eng.Tracer()
	for _, fs := range r.flows {
		rx := fs.src.Rx()
		delta := rx - fs.lastRx
		fs.lastRx = rx
		fs.moved = delta != 0
		if !r.faulted {
			fs.preSamples++
			fs.preBytes += delta
			continue
		}
		if !fs.rec.Detected && fs.src.Retx() > fs.retxAtFault {
			fs.rec.Detected = true
			fs.rec.TimeToDetect = now.Sub(r.faultAt)
			if tr.Enabled() {
				tr.SpanStep(fs.span, "chaos", "recovery", "flow", "detected",
					trace.D("ttd", fs.rec.TimeToDetect))
			}
		}
		if fs.rec.Recovered {
			continue
		}
		rate := float64(delta) / periodSec
		short := fs.baseline*periodSec - float64(delta)
		if !fs.dipped {
			// Recovery only counts after an actual outage: wait for the
			// rate to leave the settle band before arming the detector.
			if rate < settle*fs.baseline {
				fs.dipped = true
				if short > 0 {
					fs.rec.DipBytes += short
				}
			}
			continue
		}
		if short > 0 {
			fs.rec.DipBytes += short
		}
		if rate >= settle*fs.baseline {
			fs.rec.Recovered = true
			fs.rec.TimeToRecover = now.Sub(r.faultAt)
			if tr.Enabled() {
				tr.SpanEnd(fs.span, "chaos", "recovery", "flow", fs.name,
					trace.D("ttr", fs.rec.TimeToRecover), trace.F("dip-bytes", fs.rec.DipBytes))
			}
		}
	}
	for _, fs := range r.flows {
		if fs.done {
			continue
		}
		if fs.moved {
			if fs.stalled {
				r.clearStall(fs, now)
			}
			fs.lastMoveAt = now
			continue
		}
		if !fs.stalled && now.Sub(fs.lastMoveAt) >= stallAfter {
			fs.stalled = true
			fs.open = len(r.stalls)
			r.stalls = append(r.stalls, Stall{Flow: fs.name, Since: fs.lastMoveAt, At: now})
			if tr.Enabled() {
				fs.stallSpan = tr.NewID()
				tr.SpanBegin(fs.stallSpan, "chaos", "watchdog", "flow", fs.name,
					trace.D("quiet", now.Sub(fs.lastMoveAt)))
			}
		}
	}
	r.eng.After(samplePeriod, r.tick)
}

// clearStall closes a flow's open stall episode at now.
func (r *Recovery) clearStall(fs *flowState, now sim.Time) {
	fs.stalled = false
	r.stalls[fs.open].ClearedAt = now
	if tr := r.eng.Tracer(); tr.Enabled() {
		tr.SpanEnd(fs.stallSpan, "chaos", "watchdog", "flow", fs.name,
			trace.D("stalled-for", now.Sub(r.stalls[fs.open].Since)))
	}
}

// Report returns the per-flow verdicts in Watch order.
func (r *Recovery) Report() []FlowRecovery {
	out := make([]FlowRecovery, len(r.flows))
	for i, fs := range r.flows {
		rec := fs.rec
		rec.Name = fs.name
		rec.Baseline = fs.baseline
		if r.faulted && !fs.dipped {
			rec.Recovered = true // never left the settle band
		}
		out[i] = rec
	}
	return out
}
