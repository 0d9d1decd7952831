package transport

import (
	"testing"
	"time"

	"repro/internal/fabric"
	"repro/internal/multipath"
	"repro/internal/sim"
)

// TestRTOPathAllocBudget pins the retransmission path's allocation
// budget: with every data packet dropped in the fabric, each RTO cycle
// (timer fires → repath → retransmit → hops → drop → re-arm) must stay
// within a small constant budget. The pooled event, outstanding, and
// packet records make the steady state allocation-free; the budget
// leaves headroom for incidental runtime noise, not for a per-cycle
// allocation sneaking back in.
func TestRTOPathAllocBudget(t *testing.T) {
	const rto = 250 * time.Microsecond
	r := newRig(t, 1, smallCfg(), Config{
		RTO:         sim.Duration(rto),
		RetryBudget: 1 << 20,
	})
	// Cross-segment pair with every uplink fully lossy: the single
	// MTU-sized packet below retransmits forever, one cycle per RTO.
	faultSegment(t, r.f, 0, fabric.Fault{DropProb: 1.0})
	c, err := Connect(r.eps[0], r.eps[4], 1, multipath.OBS, 8)
	if err != nil {
		t.Fatal(err)
	}
	c.Send(1024, func(sim.Time) {})
	cycle := func() {
		r.eng.Run(r.eng.Now().Add(sim.Duration(rto)))
	}
	for i := 0; i < 64; i++ {
		cycle()
	}
	if allocs := testing.AllocsPerRun(100, cycle); allocs > 10 {
		t.Errorf("RTO cycle allocates %.2f objects/op, budget 10", allocs)
	}
}
