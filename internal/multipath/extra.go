package multipath

import (
	"time"

	"repro/internal/sim"
)

// Additional policies from the paper's discussion sections: flowlet
// switching (§7.1 — "we appreciate the simplicity ... and plan to
// enable it in our older-generation GPU clusters") and a path-aware
// sprayer in the spirit of SMaRTT-REPS/STrack (§9 — implemented by the
// authors, found to offer no significant advantage over OBS for
// regular AI traffic).
const (
	// Flowlet switches paths only after an idle gap within the flow.
	Flowlet Algorithm = iota + OBS + 1
	// PathAware sprays while avoiding recently-congested paths and
	// recycling paths that just delivered clean acks (REPS-style).
	PathAware
)

// ClockedSelector is implemented by selectors that need virtual time
// (flowlet gap detection). The transport wires the engine clock in
// after construction; without a clock the selector sees a frozen time
// and never detects a gap.
type ClockedSelector interface {
	Selector
	SetClock(now func() sim.Time)
}

// DefaultFlowletGap is the inter-packet gap that opens a new flowlet.
const DefaultFlowletGap = 50 * time.Microsecond

// flowlet keeps the current path while packets keep flowing and
// re-picks pseudo-randomly after an idle gap. RDMA's bulk transfers
// rarely pause, which is exactly why the paper finds flowlets
// ineffective for RDMA load balancing.
type flowlet struct {
	n        int
	gap      sim.Duration
	rng      *sim.RNG
	now      func() sim.Time
	path     int
	lastSend sim.Time
	started  bool
	switches uint64
}

func newFlowlet(n int, rng *sim.RNG) *flowlet {
	return &flowlet{
		n:    n,
		gap:  sim.Duration(DefaultFlowletGap),
		rng:  rng,
		now:  func() sim.Time { return 0 },
		path: rng.Intn(n),
	}
}

func (f *flowlet) NumPaths() int { return f.n }

// SetClock installs the virtual-time source.
func (f *flowlet) SetClock(now func() sim.Time) { f.now = now }

// Switches reports how many flowlet boundaries were detected.
func (f *flowlet) Switches() uint64 { return f.switches }

func (f *flowlet) NextPath() int {
	t := f.now()
	if f.started && t.Sub(f.lastSend) > f.gap {
		f.path = f.rng.Intn(f.n)
		f.switches++
	}
	f.started = true
	f.lastSend = t
	return f.path
}

func (f *flowlet) Feedback(int, sim.Duration, bool, bool) {}

// pathAware is a REPS-flavoured sprayer: paths that return clean acks
// are recycled preferentially; paths that signal congestion cool down;
// otherwise it sprays obliviously. On the regular, low-entropy traffic
// of AI training this collapses to OBS-like behaviour — the paper's §9
// observation.
type pathAware struct {
	n        int
	rng      *sim.RNG
	recycle  []int
	cooldown []uint8
}

func newPathAware(n int, rng *sim.RNG) *pathAware {
	return &pathAware{n: n, rng: rng, cooldown: make([]uint8, n)}
}

func (p *pathAware) NumPaths() int { return p.n }

func (p *pathAware) NextPath() int {
	// Prefer recycled clean paths.
	for len(p.recycle) > 0 {
		i := p.recycle[len(p.recycle)-1]
		p.recycle = p.recycle[:len(p.recycle)-1]
		if p.cooldown[i] == 0 {
			return i
		}
	}
	// Otherwise spray, skipping cooling paths a few times.
	for tries := 0; tries < 4; tries++ {
		i := p.rng.Intn(p.n)
		if p.cooldown[i] == 0 {
			return i
		}
		p.cooldown[i]--
	}
	return p.rng.Intn(p.n)
}

func (p *pathAware) Feedback(path int, rtt sim.Duration, ecn, lost bool) {
	if path < 0 || path >= p.n {
		return
	}
	switch {
	case lost:
		p.cooldown[path] = 8
	case ecn:
		p.cooldown[path] = 4
	default:
		if len(p.recycle) < 2*p.n {
			p.recycle = append(p.recycle, path)
		}
	}
}

// SwitchAR marks the connection as delegating path choice to the
// switches (Adaptive Routing, §7.1's third category): the selector
// returns PathSwitchDecides and the fabric's AR-enabled ToR picks the
// least-loaded uplink per packet. The paper rejects AR not on
// performance ("comparable gains") but on operability: packets with
// identical headers scatter across paths, blinding monitoring systems.
const SwitchAR Algorithm = PathAware + 1

// PathSwitchDecides is the sentinel path an AR connection stamps on
// every packet.
const PathSwitchDecides = -1

type switchAR struct{ n int }

func (s *switchAR) NextPath() int                          { return PathSwitchDecides }
func (s *switchAR) Feedback(int, sim.Duration, bool, bool) {}
func (s *switchAR) NumPaths() int                          { return s.n }

// NewPinned returns a selector permanently bound to one path — the
// building block for Traffic Engineering (§7.1's first category), where
// a central controller computes each flow's path up front.
func NewPinned(path, numPaths int) Selector {
	if path < 0 || path >= numPaths {
		panic("multipath: pinned path out of range")
	}
	return &pinned{path: path, n: numPaths}
}

type pinned struct{ path, n int }

func (p *pinned) NextPath() int                          { return p.path }
func (p *pinned) Feedback(int, sim.Duration, bool, bool) {}
func (p *pinned) NumPaths() int                          { return p.n }
