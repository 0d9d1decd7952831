package chaos

import (
	"fmt"
	"math"
	"time"

	"repro/internal/fabric"
	"repro/internal/sim"
	"repro/internal/trace"
)

// NIC is the chaos-facing surface of an RDMA NIC: the QP-error entry
// point (rnic.RNIC implements it).
type NIC interface {
	// Name identifies the NIC for scenario targeting.
	Name() string
	// ResetQPs forces every queue pair into the error state, returning
	// how many were live.
	ResetQPs() int
}

// Phase says whether a firing injected a fault or cleared one.
type Phase uint8

// Firing phases.
const (
	PhaseInject Phase = iota
	PhaseClear
)

// String names the phase.
func (p Phase) String() string {
	if p == PhaseClear {
		return "clear"
	}
	return "inject"
}

// Firing is one applied fault action, delivered to subscribers and kept
// in the engine's log.
type Firing struct {
	// At is the virtual time the action was applied (jitter included).
	At sim.Time
	// Phase distinguishes injection from the automatic For-clear.
	Phase Phase
	// Event is the scenario event that fired.
	Event Event
	// Links are the links whose Down bit this action set (inject) or
	// cleared (clear), which is how subscribers learn what a fault takes
	// down. Gray and reroute actions leave it empty.
	Links []fabric.LinkRef
	// Detail is a human-readable outcome ("reset 12 QPs").
	Detail string
}

// Engine binds scenarios to one fabric (and any registered NICs) on one
// sim engine. Jitter is drawn from a forked RNG stream at Play time, in
// scenario order, so the failure timeline is a pure function of
// (scenario, seed) — independent of event-dispatch interleaving and of
// everything else the simulation does with randomness.
type Engine struct {
	eng *sim.Engine
	fab *fabric.Fabric // nil: link faults are rejected at Play
	rng *sim.RNG

	nics     map[string]NIC
	nicOrder []string
	subs     []func(Firing)
	log      []Firing
}

// New creates a chaos engine. fab may be nil for host-only (NIC fault)
// playback.
func New(eng *sim.Engine, fab *fabric.Fabric) *Engine {
	return &Engine{
		eng:  eng,
		fab:  fab,
		rng:  eng.RNG().Fork(0xc4a05),
		nics: make(map[string]NIC),
	}
}

// RegisterNIC makes a NIC targetable by scenario events.
func (e *Engine) RegisterNIC(n NIC) {
	if _, dup := e.nics[n.Name()]; !dup {
		e.nicOrder = append(e.nicOrder, n.Name())
	}
	e.nics[n.Name()] = n
}

// Subscribe registers an observer called synchronously for every applied
// fault action (injection and clearing). The transport-facing wiring —
// path blacklisting, recovery observers — hangs off this bus.
func (e *Engine) Subscribe(fn func(Firing)) { e.subs = append(e.subs, fn) }

// Log returns every fault action applied so far, in application order.
func (e *Engine) Log() []Firing { return e.log }

// Play validates the scenario against the bound topology and schedules
// every event, drawing jitter now. Playback offsets are relative to the
// current virtual time, so a scenario can be replayed mid-run.
func (e *Engine) Play(sc *Scenario) error {
	if err := sc.Validate(); err != nil {
		return err
	}
	base := e.eng.Now()
	type planned struct {
		at    sim.Time
		ev    Event
		phase Phase
	}
	var plan []planned
	for i, ev := range sc.Events {
		if err := e.bindCheck(ev); err != nil {
			return fmt.Errorf("chaos: %s event %d: %w", sc.Name, i, err)
		}
		// The clear action lands at most At+Jitter+For past base.
		if sim.Duration(math.MaxInt64-base) < ev.At+ev.Jitter+ev.For {
			return fmt.Errorf("chaos: %s event %d: offset %v from now %v overflows virtual time",
				sc.Name, i, ev.At+ev.Jitter+ev.For, base)
		}
		at := base.Add(ev.At)
		if ev.Jitter > 0 {
			at = at.Add(time.Duration(e.rng.Intn(int(ev.Jitter))))
		}
		plan = append(plan, planned{at: at, ev: ev, phase: PhaseInject})
		if ev.For > 0 {
			plan = append(plan, planned{at: at.Add(ev.For), ev: ev, phase: PhaseClear})
		}
	}
	for _, p := range plan {
		p := p
		e.eng.At(p.at, func() { e.apply(p.ev, p.phase) })
	}
	return nil
}

// bindCheck validates an event against the bound fabric/NICs without
// mutating anything.
func (e *Engine) bindCheck(ev Event) error {
	switch ev.Kind {
	case LinkDown, Gray, Reroute:
		if e.fab == nil {
			return fmt.Errorf("no fabric bound for %s", ev.Kind)
		}
		_, err := e.fab.FaultOf(ev.Link)
		return err
	case SwitchReboot:
		if e.fab == nil {
			return fmt.Errorf("no fabric bound for %s", ev.Kind)
		}
		_, err := e.fab.SwitchLinks(ev.Switch, ev.Index)
		return err
	case HostStall:
		if e.fab == nil {
			return fmt.Errorf("no fabric bound for %s", ev.Kind)
		}
		_, err := e.fab.FaultOf(fabric.HostLink(fabric.HostID(ev.Host), fabric.DirUp))
		return err
	case NICResetQPs:
		if ev.NIC != "" && ev.NIC != "*" {
			if _, ok := e.nics[ev.NIC]; !ok {
				return fmt.Errorf("unknown NIC %q", ev.NIC)
			}
		} else if len(e.nics) == 0 {
			return fmt.Errorf("no NICs registered for %s", ev.Kind)
		}
	}
	return nil
}

// targets resolves the NIC set an event addresses, in registration
// order (deterministic).
func (e *Engine) targets(name string) []NIC {
	if name != "" && name != "*" {
		return []NIC{e.nics[name]}
	}
	out := make([]NIC, 0, len(e.nicOrder))
	for _, n := range e.nicOrder {
		out = append(out, e.nics[n])
	}
	return out
}

// setDown flips only the Down bit of each link, preserving gray and
// routing state.
func (e *Engine) setDown(refs []fabric.LinkRef, down bool) {
	for _, ref := range refs {
		ft, _ := e.fab.FaultOf(ref)
		ft.Down = down
		_ = e.fab.SetFault(ref, ft)
	}
}

// apply executes one fault action at its fire time. Play's bindCheck
// has already resolved every link the event names, and validate has
// rejected every fault SetFault refuses, so the fabric calls here
// cannot fail.
func (e *Engine) apply(ev Event, phase Phase) {
	var links []fabric.LinkRef
	detail := ""
	clear := phase == PhaseClear
	switch ev.Kind {
	case LinkDown:
		links = []fabric.LinkRef{ev.Link}
	case SwitchReboot:
		links, _ = e.fab.SwitchLinks(ev.Switch, ev.Index)
	case HostStall:
		links = []fabric.LinkRef{
			fabric.HostLink(fabric.HostID(ev.Host), fabric.DirUp),
			fabric.HostLink(fabric.HostID(ev.Host), fabric.DirDown),
		}
	case Gray:
		ft, _ := e.fab.FaultOf(ev.Link)
		g := ev.Gray
		if clear {
			g = GraySpec{}
		}
		ft.DropProb, ft.ExtraDelay, ft.BWFactor = g.Loss, g.Delay, g.BWFactor
		_ = e.fab.SetFault(ev.Link, ft)
	case Reroute:
		ft, _ := e.fab.FaultOf(ev.Link)
		ft.Withdrawn = !clear
		_ = e.fab.SetFault(ev.Link, ft)
	case NICResetQPs:
		n := 0
		for _, nic := range e.targets(ev.NIC) {
			n += nic.ResetQPs()
		}
		detail = fmt.Sprintf("reset %d QPs", n)
	}
	e.setDown(links, !clear)
	f := Firing{At: e.eng.Now(), Phase: phase, Event: ev, Links: links, Detail: detail}
	e.log = append(e.log, f)
	if tr := e.eng.Tracer(); tr.Enabled() {
		tr.Instant("chaos", "chaos", "fault", string(ev.Kind),
			trace.S("phase", phase.String()), trace.S("detail", detail))
	}
	for _, s := range e.subs {
		s(f)
	}
}
