package rnic

import (
	"sort"

	"repro/internal/trace"
)

// FlushATC models a NIC-side gray failure: the address translation
// cache is invalidated wholesale (firmware reset, stale-entry purge),
// forcing every in-flight translation back through ATS. Returns the
// number of entries lost. Satisfies the chaos fault injector's NIC
// surface.
func (r *RNIC) FlushATC() int {
	n := r.atc.Len()
	r.atc.Flush()
	if r.tr.Enabled() {
		r.tr.Instant(r.host, r.cfg.Name, "rnic", "atc-flush",
			trace.I("entries", int64(n)))
	}
	return n
}

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
