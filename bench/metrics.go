package main

import (
	"math"
	"sort"
)

// metricDef names a metric as BENCHMARK.json lists it.
// benchmark_json_test.go checks the two agree.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// e2eMetric is an end-to-end metric and how to read it off one pass.
type e2eMetric struct {
	metricDef
	value func(p *passResult) float64
}

// endToEnd are the metrics a user of the simulator sees, each read from
// untraced passes. Bounds are the share of the baseline median by which
// a metric may worsen before a change counts as a regression. The time
// bounds are wide because on a shared 2-core container whole runs slow
// by up to a fifth while a neighbour is busy (README.md, "Noise").
//
// Time is reported per simulated event because a workload's event
// count moves with its seed (loss's single-path cells retransmit
// between 0.3 M and 0.9 M times), so raw seconds would vary with the
// seed as much as with the code.
var endToEnd = []e2eMetric{
	{metricDef{"events_per_s", "1/s", "higher", 0.24}, func(p *passResult) float64 { return float64(p.Counts.Events) / p.WallS }},
	{metricDef{"cpu_ns_per_event", "ns", "lower", 0.24}, func(p *passResult) float64 { return p.CPUS * 1e9 / float64(p.Counts.Events) }},
	{metricDef{"setup_s", "s", "lower", 0.25}, func(p *passResult) float64 { return p.SetupS }},
	{metricDef{"peak_rss_mib", "MiB", "lower", 0.20}, func(p *passResult) float64 { return p.PeakRSSMiB }},
	{metricDef{"alloc_mib", "MiB", "lower", 0.20}, func(p *passResult) float64 { return p.AllocMiB }},
}

// extraMetrics are printed and written to -json but are not
// BENCHMARK.json metrics: raw seconds move with the seed, churn's
// natural unit is zero on the network workloads, and loss runs with no
// GC cycle at all.
var extraMetrics = []e2eMetric{
	{metricDef{"wall_s", "s", "lower", 0}, func(p *passResult) float64 { return p.WallS }},
	{metricDef{"cpu_s", "s", "lower", 0}, func(p *passResult) float64 { return p.CPUS }},
	{metricDef{"gc_cycles", "count", "lower", 0}, func(p *passResult) float64 { return float64(p.GCCycles) }},
	{metricDef{"lifecycles_per_s", "1/s", "higher", 0}, func(p *passResult) float64 { return float64(p.Counts.Lifecycles) / p.WallS }},
}

// reported are every untraced-pass metric, in report order.
var reported = append(append([]e2eMetric(nil), endToEnd...), extraMetrics...)

// perLayer are the traced run's metrics, in report order.
var perLayer = func() []metricDef {
	var defs []metricDef
	for _, l := range selfLayers {
		defs = append(defs, metricDef{Name: l + ".self_s", Unit: "s", Better: "lower"})
	}
	defs = append(defs,
		metricDef{Name: "sim.self_ns_per_event", Unit: "ns", Better: "lower"},
		metricDef{Name: "fabric.self_ns_per_packet", Unit: "ns", Better: "lower"},
		metricDef{Name: "tracing.wall_inflation", Unit: "ratio", Better: "lower"},
		metricDef{Name: "tracing.self_coverage", Unit: "ratio", Better: "higher"},
		metricDef{Name: "runtime.gc_cycles", Unit: "count", Better: "lower"},
		metricDef{Name: "sim.events", Unit: "count", Better: "lower"},
		metricDef{Name: "fabric.delivered", Unit: "count", Better: "higher"},
		metricDef{Name: "fabric.dropped", Unit: "count", Better: "lower"},
		metricDef{Name: "transport.retransmits", Unit: "count", Better: "lower"},
		metricDef{Name: "transport.stale_acks", Unit: "count", Better: "lower"},
		metricDef{Name: "churn.lifecycles", Unit: "count", Better: "higher"},
		metricDef{Name: "churn.evictions", Unit: "count", Better: "lower"},
		metricDef{Name: "churn.waited_grants", Unit: "count", Better: "lower"},
	)
	for _, p := range probes {
		unit := "ns"
		if p.perUnit == 1e6 {
			unit = "ms"
		}
		defs = append(defs, metricDef{Name: p.metric, Unit: unit, Better: "lower"})
		if p.allocs != "" {
			defs = append(defs, metricDef{Name: p.allocs, Unit: "count", Better: "lower"})
		}
	}
	return defs
}()

// countMetrics maps the exact-count metrics to their pass counters.
var countMetrics = map[string]func(c counts) uint64{
	"sim.events":            func(c counts) uint64 { return c.Events },
	"fabric.delivered":      func(c counts) uint64 { return c.Delivered },
	"fabric.dropped":        func(c counts) uint64 { return c.Dropped },
	"transport.retransmits": func(c counts) uint64 { return c.Retransmits },
	"transport.stale_acks":  func(c counts) uint64 { return c.StaleAcks },
	"churn.lifecycles":      func(c counts) uint64 { return c.Lifecycles },
	"churn.evictions":       func(c counts) uint64 { return c.Evictions },
	"churn.waited_grants":   func(c counts) uint64 { return c.WaitedGrants },
}

// summary is a sample's median, quartiles and size.
type summary struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
}

// summarize computes the median and the quartiles by the "exclusive"
// method of Python's statistics.quantiles, the usual reference.
func summarize(xs []float64) summary {
	if len(xs) == 0 {
		return summary{Median: math.NaN(), Q1: math.NaN(), Q3: math.NaN()}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	sum := summary{N: n, Median: (s[(n-1)/2] + s[n/2]) / 2}
	if n == 1 {
		sum.Q1, sum.Q3 = s[0], s[0]
		return sum
	}
	q := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	sum.Q1, sum.Q3 = q(1), q(3)
	return sum
}
