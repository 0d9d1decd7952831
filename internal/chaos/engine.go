package chaos

import (
	"fmt"
	"math"
	"time"

	"repro/internal/fabric"
	"repro/internal/sim"
	"repro/internal/trace"
)

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

// Firing is one applied fault action, delivered to subscribers.
type Firing struct {
	// At is the virtual time the action was applied (jitter included).
	At sim.Time
	// Phase distinguishes injection from the automatic For-clear.
	Phase Phase
	// Event is the scenario event that fired.
	Event Event
	// Links are the links whose Down bit this action flipped: set
	// (inject) or cleared (clear). A link another active fault still
	// holds down is not cleared, so it is not listed. Gray and reroute
	// actions leave it empty.
	Links []fabric.LinkRef
}

// Engine binds scenarios to one fabric on one sim engine. Jitter is
// drawn from a forked RNG stream at Play time, in scenario order, so
// the failure timeline is a pure function of (scenario, seed) —
// independent of event-dispatch interleaving and of everything else the
// simulation does with randomness.
type Engine struct {
	eng  *sim.Engine
	fab  *fabric.Fabric
	rng  *sim.RNG
	subs []func(Firing)
	// held counts, per link (keyed by its canonical name), the active
	// link-down, switch-reboot and host-stall faults holding it down.
	held map[string]int
}

// New creates a chaos engine that plays faults on fab.
func New(eng *sim.Engine, fab *fabric.Fabric) *Engine {
	return &Engine{
		eng:  eng,
		fab:  fab,
		rng:  eng.RNG().Fork(0xc4a05),
		held: make(map[string]int),
	}
}

// Subscribe registers an observer called synchronously for every applied
// fault action (injection and clearing). The transport-facing wiring —
// path blacklisting, recovery observers — hangs off this bus.
func (e *Engine) Subscribe(fn func(Firing)) { e.subs = append(e.subs, fn) }

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
		links []fabric.LinkRef
		phase Phase
	}
	var plan []planned
	for i, ev := range sc.Events {
		links, err := e.bind(ev)
		if err != nil {
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
		plan = append(plan, planned{at: at, ev: ev, links: links, phase: PhaseInject})
		if ev.For > 0 {
			plan = append(plan, planned{at: at.Add(ev.For), ev: ev, links: links, phase: PhaseClear})
		}
	}
	for _, p := range plan {
		p := p
		e.eng.At(p.at, func() { e.apply(p.ev, p.links, p.phase) })
	}
	return nil
}

// bind resolves the links an event addresses on the bound fabric: the
// named link, every link incident to a switch, or a host's two access
// links. It fails for a target the topology does not have.
func (e *Engine) bind(ev Event) ([]fabric.LinkRef, error) {
	switch ev.Kind {
	case SwitchReboot:
		return e.fab.SwitchLinks(ev.Switch, ev.Index)
	case HostStall:
		h := fabric.HostID(ev.Host)
		links := []fabric.LinkRef{fabric.HostLink(h, fabric.DirUp), fabric.HostLink(h, fabric.DirDown)}
		_, err := e.fab.FaultOf(links[0])
		return links, err
	default:
		_, err := e.fab.FaultOf(ev.Link)
		return []fabric.LinkRef{ev.Link}, err
	}
}

// hold adds delta to each link's count of active faults holding it down
// and sets the link's Down bit to count > 0, preserving gray and routing
// state, so the first of two overlapping faults to clear leaves the link
// down. It returns the links whose Down bit flipped.
func (e *Engine) hold(links []fabric.LinkRef, delta int) []fabric.LinkRef {
	var flipped []fabric.LinkRef
	for _, ref := range links {
		key := ref.String()
		n := e.held[key] + delta
		e.held[key] = n
		ft, _ := e.fab.FaultOf(ref)
		if down := n > 0; ft.Down != down {
			ft.Down = down
			_ = e.fab.SetFault(ref, ft)
			flipped = append(flipped, ref)
		}
	}
	return flipped
}

// apply executes one fault action at its fire time. Play's bind has
// already resolved every link the event names, and validate has
// rejected every fault SetFault refuses, so the fabric calls here
// cannot fail.
func (e *Engine) apply(ev Event, links []fabric.LinkRef, phase Phase) {
	clear := phase == PhaseClear
	var flipped []fabric.LinkRef
	switch ev.Kind {
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
	default:
		delta := 1
		if clear {
			delta = -1
		}
		flipped = e.hold(links, delta)
	}
	f := Firing{At: e.eng.Now(), Phase: phase, Event: ev, Links: flipped}
	if tr := e.eng.Tracer(); tr.Enabled() {
		tr.Instant("chaos", "chaos", "fault", string(ev.Kind), trace.S("phase", phase.String()))
	}
	for _, s := range e.subs {
		s(f)
	}
}
