package transport

import (
	"errors"
	"testing"
	"time"

	"repro/internal/fabric"
	"repro/internal/multipath"
	"repro/internal/sim"
)

// rig builds a 2-segment fabric with one transport endpoint per host.
type rig struct {
	eng *sim.Engine
	f   *fabric.Fabric
	eps []*Endpoint
}

func newRig(t *testing.T, seed uint64, fcfg fabric.Config, tcfg Config) *rig {
	t.Helper()
	eng := sim.NewEngine(seed)
	f := fabric.New(eng, fcfg)
	r := &rig{eng: eng, f: f}
	for h := 0; h < f.NumHosts(); h++ {
		r.eps = append(r.eps, NewEndpoint(f, fabric.HostID(h), tcfg))
	}
	return r
}

// faultSegment installs ft on every ToR→Agg uplink of segment seg,
// failing the test if the fabric has no such uplink.
func faultSegment(t testing.TB, f *fabric.Fabric, seg int, ft fabric.Fault) {
	t.Helper()
	for a := 0; a < f.Config().Aggs; a++ {
		if err := f.SetFault(fabric.Uplink(seg, a), ft); err != nil {
			t.Fatal(err)
		}
	}
}

func smallCfg() fabric.Config {
	return fabric.Config{
		Segments: 2, HostsPerSegment: 4, Aggs: 8,
		HostLinkBW: 12.5e9, FabricLinkBW: 12.5e9,
		LinkDelay: 2 * time.Microsecond, QueueLimit: 4 << 20, ECNThreshold: 256 << 10,
	}
}

func TestMessageDelivery(t *testing.T) {
	r := newRig(t, 1, smallCfg(), Config{})
	c, err := Connect(r.eps[0], r.eps[4], 1, multipath.OBS, 16)
	if err != nil {
		t.Fatal(err)
	}
	var doneAt sim.Time
	c.Send(1<<20, func(at sim.Time) { doneAt = at })
	r.eng.RunAll()
	if doneAt == 0 {
		t.Fatal("message never completed")
	}
	if got := c.PeerReceivedBytes(); got != 1<<20 {
		t.Errorf("PeerReceivedBytes = %d, want %d", got, 1<<20)
	}
	if c.BytesAcked != 1<<20 {
		t.Errorf("BytesAcked = %d", c.BytesAcked)
	}
	if c.CompletedMessages() != 1 {
		t.Errorf("CompletedMessages = %d", c.CompletedMessages())
	}
	if c.Outstanding() != 0 {
		t.Errorf("Outstanding = %d after completion", c.Outstanding())
	}
}

func TestDuplicateFlowRejected(t *testing.T) {
	r := newRig(t, 1, smallCfg(), Config{})
	if _, err := Connect(r.eps[0], r.eps[4], 1, multipath.OBS, 4); err != nil {
		t.Fatal(err)
	}
	if _, err := Connect(r.eps[0], r.eps[5], 1, multipath.OBS, 4); err == nil {
		t.Error("duplicate flow accepted")
	}
}

// TestConnectRejectsBadPathCount: a fan-out outside [1, MaxPaths] is a
// typed error, and the rejected connection leaves no flow behind.
func TestConnectRejectsBadPathCount(t *testing.T) {
	r := newRig(t, 1, smallCfg(), Config{})
	for _, n := range []int{0, -1, MaxPaths + 1} {
		if _, err := Connect(r.eps[0], r.eps[4], 1, multipath.OBS, n); !errors.Is(err, ErrPathCount) {
			t.Errorf("Connect with %d paths: err = %v, want ErrPathCount", n, err)
		}
	}
	if _, err := Connect(r.eps[0], r.eps[4], 1, multipath.OBS, MaxPaths); err != nil {
		t.Errorf("Connect with MaxPaths paths: %v", err)
	}
}

func TestMultipleMessagesFIFOCompletion(t *testing.T) {
	r := newRig(t, 2, smallCfg(), Config{})
	c, _ := Connect(r.eps[0], r.eps[4], 1, multipath.RoundRobin, 8)
	var order []int
	c.Send(256<<10, func(sim.Time) { order = append(order, 1) })
	c.Send(256<<10, func(sim.Time) { order = append(order, 2) })
	c.Send(100, func(sim.Time) { order = append(order, 3) })
	r.eng.RunAll()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Errorf("completion order = %v", order)
	}
}

func TestThroughputApproachesLineRate(t *testing.T) {
	// One flow, idle fabric: goodput should reach a solid fraction of
	// the 12.5 GB/s host link.
	r := newRig(t, 3, smallCfg(), Config{})
	c, _ := Connect(r.eps[0], r.eps[4], 1, multipath.OBS, 128)
	const total = 64 << 20
	var doneAt sim.Time
	c.Send(total, func(at sim.Time) { doneAt = at })
	r.eng.RunAll()
	if doneAt == 0 {
		t.Fatal("transfer incomplete")
	}
	gbps := float64(total) / doneAt.Seconds() / 1e9
	if gbps < 6 {
		t.Errorf("goodput = %.1f GB/s, want > 6 (half of line rate)", gbps)
	}
}

func TestRetransmitRecoversFromLoss(t *testing.T) {
	r := newRig(t, 4, smallCfg(), Config{})
	// 10% loss on every uplink path 0..7 for segment 0.
	faultSegment(t, r.f, 0, fabric.Fault{DropProb: 0.10})
	c, _ := Connect(r.eps[0], r.eps[4], 1, multipath.OBS, 8)
	var doneAt sim.Time
	c.Send(4<<20, func(at sim.Time) { doneAt = at })
	r.eng.RunAll()
	if doneAt == 0 {
		t.Fatal("transfer never completed under loss")
	}
	if c.Retransmits == 0 {
		t.Error("no retransmits despite 10% loss")
	}
	if c.Err() != nil {
		t.Errorf("Err() = %v: repathing after an RTO is not a failure", c.Err())
	}
	if got := c.PeerReceivedBytes(); got != 4<<20 {
		t.Errorf("PeerReceivedBytes = %d", got)
	}
}

func TestRetransmitMovesPath(t *testing.T) {
	// With a fully failed path and single-path selection pinned to it,
	// the RTO must move traffic to another path (instant recovery).
	r := newRig(t, 5, smallCfg(), Config{})
	var c *Conn
	// Find a seed/flow whose single-path selector picked path 3.
	for flow := uint64(1); ; flow++ {
		cc, err := Connect(r.eps[0], r.eps[4], flow, multipath.SinglePath, 8)
		if err != nil {
			t.Fatal(err)
		}
		if cc.sel.NextPath() == 3 {
			c = cc
			break
		}
		cc.Close()
	}
	if err := r.f.SetFault(fabric.Uplink(0, 3), fabric.Fault{Down: true}); err != nil {
		t.Fatal(err)
	}
	var doneAt sim.Time
	c.Send(64<<10, func(at sim.Time) { doneAt = at })
	r.eng.RunAll()
	if doneAt == 0 {
		t.Fatal("transfer stuck on failed path")
	}
	if c.Retransmits == 0 {
		t.Error("expected RTO retransmissions")
	}
}

func TestECNSlowsWindow(t *testing.T) {
	// Two flows colliding on one path must see ECN and shrink below the
	// max window.
	cfg := smallCfg()
	cfg.ECNThreshold = 32 << 10
	r := newRig(t, 6, cfg, Config{})
	c1, _ := Connect(r.eps[0], r.eps[4], 1, multipath.SinglePath, 1)
	c2, _ := Connect(r.eps[1], r.eps[5], 2, multipath.SinglePath, 1)
	c1.Send(16<<20, nil)
	c2.Send(16<<20, nil)
	r.eng.RunAll()
	if c1.ECNAcks == 0 && c2.ECNAcks == 0 {
		t.Error("no ECN-marked acks under collision")
	}
	if c1.Window() >= uint64(DefaultConfig().MaxWindow) {
		t.Error("window never backed off")
	}
}

func TestOutOfOrderPlacement(t *testing.T) {
	// Spraying across paths with different queue depths reorders
	// packets; direct packet placement must still deliver every byte
	// exactly once.
	cfg := smallCfg()
	r := newRig(t, 7, cfg, Config{})
	// Pre-load one path with a fat background flow to skew latencies.
	bg, _ := Connect(r.eps[1], r.eps[5], 99, multipath.SinglePath, 1)
	bg.Send(8<<20, nil)
	c, _ := Connect(r.eps[0], r.eps[4], 1, multipath.OBS, 8)
	var doneAt sim.Time
	c.Send(8<<20, func(at sim.Time) { doneAt = at })
	r.eng.RunAll()
	if doneAt == 0 {
		t.Fatal("transfer incomplete")
	}
	if got := c.PeerReceivedBytes(); got != 8<<20 {
		t.Errorf("PeerReceivedBytes = %d (dup or loss in placement)", got)
	}
	if c.dst.rxs[c.rxSlot].reorder == 0 {
		t.Log("note: no reordering observed (acceptable but unusual)")
	}
}

func TestPerPathCCStillCompletes(t *testing.T) {
	r := newRig(t, 8, smallCfg(), Config{PerPathCC: true})
	c, _ := Connect(r.eps[0], r.eps[4], 1, multipath.RoundRobin, 4)
	var doneAt sim.Time
	c.Send(8<<20, func(at sim.Time) { doneAt = at })
	r.eng.RunAll()
	if doneAt == 0 {
		t.Fatal("per-path CC transfer incomplete")
	}
	if got := c.PeerReceivedBytes(); got != 8<<20 {
		t.Errorf("PeerReceivedBytes = %d", got)
	}
}

func TestMeanRTTTracked(t *testing.T) {
	r := newRig(t, 9, smallCfg(), Config{})
	c, _ := Connect(r.eps[0], r.eps[4], 1, multipath.OBS, 16)
	c.Send(1<<20, nil)
	r.eng.RunAll()
	rtt := c.MeanRTT()
	// 8 hops of 2µs propagation plus serialisation: at least 16µs.
	if rtt < 16*time.Microsecond {
		t.Errorf("MeanRTT = %v, implausibly low", rtt)
	}
	if rtt > 5*time.Millisecond {
		t.Errorf("MeanRTT = %v, implausibly high", rtt)
	}
}

func TestCloseStopsFlow(t *testing.T) {
	r := newRig(t, 10, smallCfg(), Config{})
	c, _ := Connect(r.eps[0], r.eps[4], 1, multipath.OBS, 8)
	c.Send(1<<20, nil)
	// Run briefly, then close mid-flight; the engine must drain without
	// panics or stuck timers.
	r.eng.Run(r.eng.Now().Add(50 * time.Microsecond))
	c.Close()
	r.eng.RunAll()
	if _, err := Connect(r.eps[0], r.eps[4], 1, multipath.OBS, 8); err != nil {
		t.Errorf("flow id not reusable after Close: %v", err)
	}
}

// TestClosedFlowPacketsDoNotReachSuccessor closes a flow while its
// packets are still in the fabric and reopens the same flow id on the
// same endpoints: the old flow's packets must be dropped on arrival, not
// counted by the new flow's receiver.
func TestClosedFlowPacketsDoNotReachSuccessor(t *testing.T) {
	r := newRig(t, 1, smallCfg(), Config{})
	c, err := Connect(r.eps[0], r.eps[4], 1, multipath.OBS, 16)
	if err != nil {
		t.Fatal(err)
	}
	c.Send(1<<20, nil)
	r.eng.Run(r.eng.Now().Add(5 * time.Microsecond))
	c.Close()
	next, err := Connect(r.eps[0], r.eps[4], 1, multipath.OBS, 16)
	if err != nil {
		t.Fatal(err)
	}
	r.eng.RunAll()
	if got := next.PeerReceivedBytes(); got != 0 {
		t.Errorf("successor flow received %d bytes of its predecessor's packets, want 0", got)
	}
}

func TestStaleAckDoesNotSampleRTT(t *testing.T) {
	// Karn's algorithm: with the propagation delay far above the RTO,
	// every packet is retransmitted before its first ack returns, so
	// each arriving ack belongs to a superseded transmission. Those
	// acks must complete delivery but never feed the RTT estimator —
	// pre-fix they were measured against the latest retransmit's
	// sentAt, yielding samples far below one true round trip.
	cfg := smallCfg()
	cfg.LinkDelay = 200 * time.Microsecond // true RTT >= 3.2 ms
	r := newRig(t, 12, cfg, Config{RTO: 250 * time.Microsecond})
	c, err := Connect(r.eps[0], r.eps[4], 1, multipath.OBS, 8)
	if err != nil {
		t.Fatal(err)
	}
	var doneAt sim.Time
	c.Send(64<<10, func(at sim.Time) { doneAt = at })
	r.eng.RunAll()
	if doneAt == 0 {
		t.Fatal("transfer incomplete")
	}
	if c.Retransmits == 0 {
		t.Fatal("scenario did not retransmit; RTO never raced the ack")
	}
	if c.StaleAcks == 0 {
		t.Error("no stale acks observed despite RTO < RTT")
	}
	// The one-way trip alone is 4 hops x 200 µs; any genuine sample is
	// above that. A sample below it can only come from measuring an
	// original ack against a retransmit's send time.
	if c.AckCount > 0 && c.MeanRTT() < 800*time.Microsecond {
		t.Errorf("MeanRTT = %v from %d samples: stale acks leaked into the estimator",
			c.MeanRTT(), c.AckCount)
	}
}

func TestFirstECNMarkDecreasesWindow(t *testing.T) {
	// The decrease rate limiter starts with no history: an ECN mark in
	// the first TargetRTT of virtual time (now - zero < TargetRTT) must
	// still shrink the window, or short experiments never back off.
	r := newRig(t, 13, smallCfg(), Config{})
	c, err := Connect(r.eps[0], r.eps[4], 1, multipath.OBS, 8)
	if err != nil {
		t.Fatal(err)
	}
	initial := c.Window()
	c.decrease(0, c.cfg.ECNBeta)
	want := uint64(float64(initial) * c.cfg.ECNBeta)
	if got := c.Window(); got != want {
		t.Errorf("window after first-ever decrease = %d, want %d (initial %d)", got, want, initial)
	}
	// And the limiter still coalesces a burst: an immediate second mark
	// within TargetRTT is one signal, not two.
	c.decrease(0, c.cfg.ECNBeta)
	if got := c.Window(); got != want {
		t.Errorf("window after burst mark = %d, want unchanged %d", got, want)
	}
}

func TestOutOfOrderMessageCompletionTime(t *testing.T) {
	// A message fully acked before the FIFO head completes must report
	// its own completion time, not the head's. Drive handleAck directly
	// with synthetic acks at controlled virtual times.
	r := newRig(t, 14, smallCfg(), Config{RTO: 10 * time.Millisecond})
	c, err := Connect(r.eps[0], r.eps[4], 1, multipath.OBS, 8)
	if err != nil {
		t.Fatal(err)
	}
	var t1, t2 sim.Time
	m1 := &message{remaining: 4096, done: callDone, arg: func(at sim.Time) { t1 = at }}
	m2 := &message{remaining: 4096, done: callDone, arg: func(at sim.Time) { t2 = at }}
	c.messages = []*message{m1, m2}
	for seq, m := range []*message{m1, m2} {
		o := c.allocOutstanding()
		o.seq, o.size, o.msg = uint64(seq), 4096, m
		c.arm(o, c.cfg.RTO)
		c.unacked.put(uint64(seq), o)
		c.charge(o.path, o.size)
	}
	// m2's last byte is acked at 100 µs, m1's only at 300 µs; FIFO order
	// defers m2's callback but must not overwrite its completion time.
	r.eng.At(sim.Time(100*time.Microsecond), func() {
		c.handleAck(&fabric.Packet{Ack: true, Seq: 1})
	})
	r.eng.At(sim.Time(300*time.Microsecond), func() {
		c.handleAck(&fabric.Packet{Ack: true, Seq: 0})
	})
	r.eng.Run(sim.Time(time.Millisecond))
	if t1 != sim.Time(300*time.Microsecond) {
		t.Errorf("m1 completion time = %v, want 300µs", t1)
	}
	if t2 != sim.Time(100*time.Microsecond) {
		t.Errorf("m2 completion time = %v, want 100µs (its own last ack, not the head's)", t2)
	}
}

func TestSharedVsPerPathFanout(t *testing.T) {
	// §9: the shared context supports high fan-out cheaply. Sanity-check
	// both complete the same work; the resource argument (128 vs 4) is
	// a hardware-cost statement, modelled as config.
	for _, perPath := range []bool{false, true} {
		r := newRig(t, 11, smallCfg(), Config{PerPathCC: perPath})
		paths := 128
		if perPath {
			paths = 4
		}
		c, _ := Connect(r.eps[0], r.eps[4], 1, multipath.OBS, paths)
		var doneAt sim.Time
		c.Send(4<<20, func(at sim.Time) { doneAt = at })
		r.eng.RunAll()
		if doneAt == 0 {
			t.Errorf("perPath=%v transfer incomplete", perPath)
		}
	}
}
