package rnic

import (
	"sort"

	"repro/internal/trace"
)

// ResetQPs forces every live queue pair into the error state — the
// blast radius of an RNIC firmware fault. Each transition fires the
// OnQPError observers, so the fault propagates to the flows riding the
// QPs. Returns how many QPs were
// not already in QPError. QPs are visited in QPN order so the trace
// and observer sequence are deterministic.
func (r *RNIC) ResetQPs() int {
	qpns := make([]uint32, 0, len(r.qps))
	for qpn := range r.qps {
		qpns = append(qpns, qpn)
	}
	sort.Slice(qpns, func(i, j int) bool { return qpns[i] < qpns[j] })
	n := 0
	for _, qpn := range qpns {
		if r.enterQPError(r.qps[qpn]) {
			n++
		}
	}
	if r.tr.Enabled() {
		r.tr.Instant(r.host, r.cfg.Name, "rnic", "qp-reset",
			trace.I("qps", int64(n)))
	}
	return n
}
