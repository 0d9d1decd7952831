package metrics

import (
	"sync"
	"testing"
	"testing/quick"
)

func TestCounter(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Errorf("Value() = %d, want 5", c.Value())
	}
}

func TestCounterConcurrent(t *testing.T) {
	var c Counter
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if c.Value() != 8000 {
		t.Errorf("concurrent Value() = %d, want 8000", c.Value())
	}
}

func TestGaugeTracksMax(t *testing.T) {
	var g Gauge
	g.Add(5)
	g.Add(10)
	g.Add(-12)
	if g.Value() != 3 {
		t.Errorf("Value() = %d, want 3", g.Value())
	}
	if g.Max() != 15 {
		t.Errorf("Max() = %d, want 15", g.Max())
	}
}

func TestHistogramSummary(t *testing.T) {
	var h Histogram
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i))
	}
	if h.Count() != 100 {
		t.Errorf("Count = %d", h.Count())
	}
	if h.Mean() != 50.5 {
		t.Errorf("Mean = %v, want 50.5", h.Mean())
	}
	if h.Quantile(0.5) != 50 {
		t.Errorf("p50 = %v, want 50", h.Quantile(0.5))
	}
	if h.Quantile(0.99) != 99 {
		t.Errorf("p99 = %v, want 99", h.Quantile(0.99))
	}
	if h.Quantile(0) != 1 || h.Max() != 100 {
		t.Errorf("p0/Max = %v/%v", h.Quantile(0), h.Max())
	}
}

func TestHistogramEmpty(t *testing.T) {
	var h Histogram
	if h.Mean() != 0 || h.Quantile(0.5) != 0 {
		t.Error("empty histogram should report zeros")
	}
}

func TestHistogramObserveAfterQuantile(t *testing.T) {
	var h Histogram
	h.Observe(10)
	_ = h.Quantile(0.5)
	h.Observe(1) // must re-sort
	if h.Quantile(0) != 1 {
		t.Errorf("p0 after late observe = %v, want 1", h.Quantile(0))
	}
}

func TestHistogramQuantileMonotone(t *testing.T) {
	f := func(vals []float64) bool {
		if len(vals) == 0 {
			return true
		}
		var h Histogram
		for _, v := range vals {
			h.Observe(v)
		}
		return h.Quantile(0.1) <= h.Quantile(0.5) &&
			h.Quantile(0.5) <= h.Quantile(0.9) &&
			h.Quantile(0) <= h.Max()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
