// Package multipath implements the path-selection algorithms compared in
// §7.2: the single-path baseline, Round Robin, Dynamic Weighted Round
// Robin, BestRTT, an MP-RDMA-style congestion-aware selector, and the
// Oblivious Packet Spraying (OBS) algorithm Stellar ships with 128
// paths. Selectors are per-connection objects the transport consults for
// every packet, feeding back per-path RTT/ECN/loss observations from
// acks.
package multipath

import (
	"fmt"
	"time"

	"repro/internal/sim"
)

// Algorithm names a path-selection policy.
type Algorithm uint8

// The algorithms evaluated in Figure 9/10/11/12.
const (
	SinglePath Algorithm = iota
	RoundRobin
	DWRR
	BestRTT
	MPRDMA
	OBS
)

func (a Algorithm) String() string {
	switch a {
	case SinglePath:
		return "single-path"
	case RoundRobin:
		return "rr"
	case DWRR:
		return "dwrr"
	case BestRTT:
		return "best-rtt"
	case MPRDMA:
		return "mprdma"
	case OBS:
		return "obs"
	case Flowlet:
		return "flowlet"
	case PathAware:
		return "path-aware"
	case SwitchAR:
		return "switch-ar"
	default:
		return fmt.Sprintf("Algorithm(%d)", uint8(a))
	}
}

// Algorithms lists the §7.2 selectors for sweep harnesses. The
// discussion-section policies (Flowlet, PathAware) are constructed the
// same way but swept separately by their ablation experiments.
func Algorithms() []Algorithm {
	return []Algorithm{SinglePath, RoundRobin, DWRR, BestRTT, MPRDMA, OBS}
}

// Selector chooses a path in [0, NumPaths) for each outgoing packet.
type Selector interface {
	// NextPath returns the path for the next packet.
	NextPath() int
	// Feedback reports an ack/loss observation for a path.
	Feedback(path int, rtt sim.Duration, ecn, lost bool)
	// NumPaths returns the configured fan-out.
	NumPaths() int
}

// New constructs a selector with the given fan-out. rng must be a
// per-connection stream (fork it) so connections decorrelate.
func New(alg Algorithm, numPaths int, rng *sim.RNG) Selector {
	if numPaths < 1 {
		panic("multipath: numPaths must be >= 1")
	}
	switch alg {
	case SinglePath:
		return &singlePath{path: rng.Intn(numPaths), n: numPaths}
	case RoundRobin:
		return &roundRobin{n: numPaths, next: rng.Intn(numPaths)}
	case DWRR:
		return newDWRR(numPaths, rng)
	case BestRTT:
		return newBestRTT(numPaths, rng)
	case MPRDMA:
		return newMPRDMA(numPaths, rng)
	case OBS:
		return &obs{n: numPaths, rng: rng}
	case Flowlet:
		return newFlowlet(numPaths, rng)
	case PathAware:
		return newPathAware(numPaths, rng)
	case SwitchAR:
		return &switchAR{n: numPaths}
	default:
		panic(fmt.Sprintf("multipath: unknown algorithm %v", alg))
	}
}

// singlePath pins the connection to one path — the legacy RNIC
// behaviour of Problem ⑥.
type singlePath struct {
	path, n int
}

func (s *singlePath) NextPath() int                          { return s.path }
func (s *singlePath) Feedback(int, sim.Duration, bool, bool) {}
func (s *singlePath) NumPaths() int                          { return s.n }

// roundRobin cycles deterministically through all paths.
type roundRobin struct {
	n, next int
}

func (r *roundRobin) NextPath() int {
	p := r.next
	r.next = (r.next + 1) % r.n
	return p
}
func (r *roundRobin) Feedback(int, sim.Duration, bool, bool) {}
func (r *roundRobin) NumPaths() int                          { return r.n }

// obs is Oblivious Packet Spraying: an independent pseudo-random path
// per packet. Its lack of state is what makes it "simple to implement in
// hardware" and, per §7.2, what interacts best with the CC algorithm
// under bursty load.
type obs struct {
	n   int
	rng *sim.RNG
}

func (o *obs) NextPath() int                          { return o.rng.Intn(o.n) }
func (o *obs) Feedback(int, sim.Duration, bool, bool) {}
func (o *obs) NumPaths() int                          { return o.n }

// dwrr is Dynamic Weighted Round Robin: deficit round robin whose
// per-path weights track inverse smoothed RTT and collapse on
// congestion signals. Under feedback it concentrates weight on the
// currently-fastest paths — the behaviour that makes it "activate only
// a small number of paths" in Figure 10a.
type dwrr struct {
	n       int
	weights []float64
	deficit []float64
	srtt    []float64 // seconds, EWMA
	cursor  int
}

func newDWRR(n int, rng *sim.RNG) *dwrr {
	d := &dwrr{
		n:       n,
		weights: make([]float64, n),
		deficit: make([]float64, n),
		srtt:    make([]float64, n),
	}
	for i := range d.weights {
		d.weights[i] = 1
	}
	d.cursor = rng.Intn(n)
	return d
}

func (d *dwrr) NumPaths() int { return d.n }

func (d *dwrr) NextPath() int {
	for round := 0; round < 2*d.n; round++ {
		i := d.cursor
		d.cursor = (d.cursor + 1) % d.n
		d.deficit[i] += d.weights[i]
		if d.deficit[i] >= 1 {
			d.deficit[i]--
			return i
		}
	}
	// Degenerate weights: fall back to the heaviest path.
	best := 0
	for i := 1; i < d.n; i++ {
		if d.weights[i] > d.weights[best] {
			best = i
		}
	}
	return best
}

func (d *dwrr) Feedback(path int, rtt sim.Duration, ecn, lost bool) {
	if path < 0 || path >= d.n {
		return
	}
	const alpha = 0.2
	r := rtt.Seconds()
	if d.srtt[path] == 0 {
		d.srtt[path] = r
	} else {
		d.srtt[path] = (1-alpha)*d.srtt[path] + alpha*r
	}
	switch {
	case lost:
		d.weights[path] *= 0.25
	case ecn:
		d.weights[path] *= 0.5
	default:
		// Weight toward faster paths: inverse RTT normalised to the
		// fastest seen so far.
		min := d.srtt[path]
		for _, v := range d.srtt {
			if v > 0 && v < min {
				min = v
			}
		}
		d.weights[path] = min / d.srtt[path]
	}
	if d.weights[path] < 0.01 {
		d.weights[path] = 0.01
	}
}

// bestRTT always sends on the path with the lowest smoothed RTT,
// probing a random path occasionally so estimates stay alive. It tends
// to herd onto few paths (Figure 9/10's weakness).
type bestRTT struct {
	n     int
	srtt  []float64
	rng   *sim.RNG
	count uint64
}

func newBestRTT(n int, rng *sim.RNG) *bestRTT {
	return &bestRTT{n: n, srtt: make([]float64, n), rng: rng}
}

func (b *bestRTT) NumPaths() int { return b.n }

func (b *bestRTT) NextPath() int {
	b.count++
	if b.count%16 == 0 { // 1/16 probes keep stale paths measurable
		return b.rng.Intn(b.n)
	}
	best, bestV := 0, -1.0
	for i, v := range b.srtt {
		if v == 0 {
			// Unmeasured paths look optimal until proven otherwise —
			// but only the first one wins, which is the herding.
			return i
		}
		if bestV < 0 || v < bestV {
			best, bestV = i, v
		}
	}
	return best
}

func (b *bestRTT) Feedback(path int, rtt sim.Duration, ecn, lost bool) {
	if path < 0 || path >= b.n {
		return
	}
	r := rtt.Seconds()
	if ecn || lost {
		r *= 2 // congestion inflates the effective estimate
	}
	const alpha = 0.25
	if b.srtt[path] == 0 {
		b.srtt[path] = r
	} else {
		b.srtt[path] = (1-alpha)*b.srtt[path] + alpha*r
	}
}

// mprdma approximates MP-RDMA's congestion-aware spraying: round robin
// over paths, skipping any path whose last congestion signal is fresher
// than a cool-down. Unlike DWRR it never concentrates; unlike OBS it
// reacts to marks.
type mprdma struct {
	n        int
	next     int
	cooldown []uint64 // packets remaining before the path is eligible
}

func newMPRDMA(n int, rng *sim.RNG) *mprdma {
	return &mprdma{n: n, next: rng.Intn(n), cooldown: make([]uint64, n)}
}

func (m *mprdma) NumPaths() int { return m.n }

func (m *mprdma) NextPath() int {
	for tries := 0; tries < m.n; tries++ {
		p := m.next
		m.next = (m.next + 1) % m.n
		if m.cooldown[p] == 0 {
			return p
		}
		m.cooldown[p]--
	}
	// Everything cooling down: use the next path anyway.
	p := m.next
	m.next = (m.next + 1) % m.n
	return p
}

func (m *mprdma) Feedback(path int, rtt sim.Duration, ecn, lost bool) {
	if path < 0 || path >= m.n {
		return
	}
	if lost {
		m.cooldown[path] = 8
	} else if ecn {
		m.cooldown[path] = 4
	}
}

// PathRTTBudget is a helper exporting a plausible base RTT for
// low-latency data centers, matching the 250 µs RTO's design point.
const PathRTTBudget = 25 * time.Microsecond
