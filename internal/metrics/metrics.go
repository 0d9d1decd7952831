// Package metrics provides the counters, histograms and time series used
// by every experiment harness in the repository. It mirrors the role that
// Neohost, pcm-iio and the authors' online monitoring play in the paper:
// the figures are all read off counters like these.
package metrics

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing count. Lock-free: hot paths
// (per-packet, per-TLP) bump counters, so contention on a mutex would
// dominate the work being counted.
type Counter struct {
	v atomic.Uint64
}

// Add increments the counter by n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a value that can move both ways, tracking its maximum.
// Value and maximum are updated lock-free; the high-water mark is
// maintained with a CAS loop, so Max never reports less than the
// largest level Add/Set ever produced.
type Gauge struct {
	v   atomic.Int64
	max atomic.Int64
}

// raiseMax lifts the high-water mark to at least v.
func (g *Gauge) raiseMax(v int64) {
	for {
		cur := g.max.Load()
		if v <= cur || g.max.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Add moves the gauge by delta (which may be negative).
func (g *Gauge) Add(delta int64) {
	g.raiseMax(g.v.Add(delta))
}

// Value returns the current level.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Max returns the high-water mark.
func (g *Gauge) Max() int64 { return g.max.Load() }

// Histogram accumulates float64 samples and answers summary queries. It
// stores raw samples (experiments here are small enough) so percentiles
// are exact.
type Histogram struct {
	mu      sync.Mutex
	samples []float64
	sorted  bool
	sum     float64
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	h.mu.Lock()
	h.samples = append(h.samples, v)
	h.sorted = false
	h.sum += v
	h.mu.Unlock()
}

// Count returns the number of samples.
func (h *Histogram) Count() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.samples)
}

// Mean returns the sample mean, or 0 with no samples.
func (h *Histogram) Mean() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.samples) == 0 {
		return 0
	}
	return h.sum / float64(len(h.samples))
}

func (h *Histogram) ensureSortedLocked() {
	if !h.sorted {
		sort.Float64s(h.samples)
		h.sorted = true
	}
}

// Quantile returns the q-th quantile (0 <= q <= 1) by nearest-rank, or 0
// with no samples.
func (h *Histogram) Quantile(q float64) float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	n := len(h.samples)
	if n == 0 {
		return 0
	}
	h.ensureSortedLocked()
	if q <= 0 {
		return h.samples[0]
	}
	if q >= 1 {
		return h.samples[n-1]
	}
	idx := int(math.Ceil(q*float64(n))) - 1
	if idx < 0 {
		idx = 0
	}
	return h.samples[idx]
}

// Max returns the largest sample, or 0 with no samples.
func (h *Histogram) Max() float64 { return h.Quantile(1) }
