package multipath

import "repro/internal/sim"

// Blacklist defaults: probe a quarantined path every 16th pick, and
// auto-quarantine a path after 3 consecutive losses on it.
const (
	DefaultProbeEvery = 16
	DefaultLossStreak = 3
)

// WithBlacklist wraps a selector with a path-health mask. Paths marked
// down — by the chaos wiring on a fault event, or automatically after a
// loss streak — are skipped, except that every ProbeEvery-th pick sends
// a probe down one quarantined path; a clean ack on a quarantined path
// reinstates it. With no quarantined paths the wrapper is pass-through,
// so a healthy run is numerically identical to an unwrapped one.
func WithBlacklist(inner Selector) *Blacklist {
	return &Blacklist{
		inner:       inner,
		down:        make([]bool, inner.NumPaths()),
		streak:      make([]int, inner.NumPaths()),
		probeEvery:  DefaultProbeEvery,
		streakLimit: DefaultLossStreak,
	}
}

// Blacklist is the quarantining selector wrapper; see WithBlacklist.
type Blacklist struct {
	inner Selector

	down  []bool
	nDown int
	// streak counts consecutive losses per path; streakLimit trips the
	// auto-quarantine.
	streak      []int
	streakLimit int

	// Every probeEvery-th pick (while anything is quarantined) probes a
	// quarantined path, rotating through them with probeCursor.
	probeEvery  int
	probeCursor int
	picks       uint64
}

func (b *Blacklist) NumPaths() int { return b.inner.NumPaths() }

// NextPath skips quarantined paths, except for periodic probes that
// test whether one has come back.
func (b *Blacklist) NextPath() int {
	if b.nDown == 0 {
		return b.inner.NextPath()
	}
	b.picks++
	if b.picks%uint64(b.probeEvery) == 0 {
		if p := b.nextDown(); p >= 0 {
			return p
		}
	}
	// All paths down: nothing healthy to skip to, let the inner pick
	// stand (it will be lost, keeping RTO/loss machinery honest).
	if b.nDown == len(b.down) {
		return b.inner.NextPath()
	}
	for tries := 0; tries < 4*len(b.down); tries++ {
		p := b.inner.NextPath()
		if !b.down[p] {
			return p
		}
	}
	// Inner selector is pinned to a dead path (e.g. single-path):
	// deterministically step to the first healthy one.
	for p := range b.down {
		if !b.down[p] {
			return p
		}
	}
	return b.inner.NextPath()
}

// nextDown rotates through quarantined paths for probing.
func (b *Blacklist) nextDown() int {
	n := len(b.down)
	for i := 0; i < n; i++ {
		p := (b.probeCursor + i) % n
		if b.down[p] {
			b.probeCursor = (p + 1) % n
			return p
		}
	}
	return -1
}

// Feedback reinstates a quarantined path on a clean ack, trips the
// auto-quarantine on a loss streak, and forwards to the inner selector.
func (b *Blacklist) Feedback(path int, rtt sim.Duration, ecn, lost bool) {
	if path >= 0 && path < len(b.down) {
		if lost {
			b.streak[path]++
			if b.streak[path] >= b.streakLimit {
				b.MarkDown(path)
			}
		} else {
			b.streak[path] = 0
			if b.down[path] {
				b.MarkUp(path)
			}
		}
	}
	b.inner.Feedback(path, rtt, ecn, lost)
}

// MarkDown quarantines a path (idempotent). The chaos wiring calls this
// when a fault takes out the fabric resources behind it.
func (b *Blacklist) MarkDown(path int) {
	if path < 0 || path >= len(b.down) || b.down[path] {
		return
	}
	b.down[path] = true
	b.nDown++
}

// MarkUp reinstates a path (idempotent).
func (b *Blacklist) MarkUp(path int) {
	if path < 0 || path >= len(b.down) || !b.down[path] {
		return
	}
	b.down[path] = false
	b.streak[path] = 0
	b.nDown--
}

// Down reports whether a path is currently quarantined.
func (b *Blacklist) Down(path int) bool {
	return path >= 0 && path < len(b.down) && b.down[path]
}

// NumDown returns how many paths are quarantined.
func (b *Blacklist) NumDown() int { return b.nDown }

// SetClock forwards the virtual clock to the wrapped selector, keeping
// the wrapper transparent to the transport's ClockedSelector wiring.
func (b *Blacklist) SetClock(now func() sim.Time) {
	if cs, ok := b.inner.(ClockedSelector); ok {
		cs.SetClock(now)
	}
}
