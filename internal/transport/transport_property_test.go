package transport

import (
	"testing"
	"testing/quick"
	"time"

	"repro/internal/fabric"
	"repro/internal/multipath"
	"repro/internal/sim"
)

// TestEveryByteDeliveredExactlyOnce is the transport's core invariant:
// regardless of algorithm, fan-out, message sizing and loss, the
// receiver accounts every payload byte exactly once and the sender's
// acked bytes match.
func TestEveryByteDeliveredExactlyOnce(t *testing.T) {
	f := func(seed uint64, algPick, pathPick uint8, sizePick uint16, lossy bool) bool {
		algs := multipath.Algorithms()
		alg := algs[int(algPick)%len(algs)]
		paths := []int{1, 4, 8, 128}[pathPick%4]
		size := uint64(sizePick)%(2<<20) + 1

		eng := sim.NewEngine(seed)
		fb := fabric.New(eng, fabric.Config{
			Segments: 2, HostsPerSegment: 2, Aggs: 8,
			HostLinkBW: 12.5e9, FabricLinkBW: 12.5e9,
			LinkDelay: time.Microsecond, QueueLimit: 4 << 20, ECNThreshold: 256 << 10,
		})
		src := NewEndpoint(fb, 0, Config{})
		dst := NewEndpoint(fb, 2, Config{})
		if lossy {
			faultSegment(t, fb, 0, fabric.Fault{DropProb: 0.05})
		}
		c, err := Connect(src, dst, 1, alg, paths)
		if err != nil {
			return false
		}
		completed := false
		c.Send(size, func(sim.Time) { completed = true })
		eng.RunAll()
		return completed &&
			c.PeerReceivedBytes() == size &&
			c.BytesAcked == size &&
			c.Outstanding() == 0
	}
	cfg := &quick.Config{MaxCount: 60}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// TestWindowStaysWithinBounds checks the CC invariant under arbitrary
// congestion: the shared window stays within [minWindow, MaxWindow], and
// under PerPathCC each of the n paths' windows within [MTU, MaxWindow/n].
// A steep ECN back-off and a small MaxWindow drive every context to
// both ends of its range, so the bounds are exercised, not just obeyed.
func TestWindowStaysWithinBounds(t *testing.T) {
	for _, tc := range []struct {
		cfg    Config
		paths  int
		lo, hi float64
	}{
		{Config{InitialWindow: 32 << 10, MaxWindow: 96 << 10}, 2, minWindow, 96 << 10},
		{Config{InitialWindow: 128 << 10, MaxWindow: 256 << 10, PerPathCC: true}, 8, float64(DefaultConfig().MTU), (256 << 10) / 8},
	} {
		eng := sim.NewEngine(3)
		fb := fabric.New(eng, fabric.Config{
			Segments: 2, HostsPerSegment: 2, Aggs: 2,
			HostLinkBW: 12.5e9, FabricLinkBW: 1e9, // savage bottleneck
			LinkDelay: time.Microsecond, QueueLimit: 256 << 10, ECNThreshold: 32 << 10,
		})
		tc.cfg.LossBeta, tc.cfg.ECNBeta = 0.5, 0.1
		src := NewEndpoint(fb, 0, tc.cfg)
		dst := NewEndpoint(fb, 2, tc.cfg)
		c, err := Connect(src, dst, 1, multipath.OBS, tc.paths)
		if err != nil {
			t.Fatal(err)
		}
		contexts := 1
		if tc.cfg.PerPathCC {
			contexts = tc.paths
		}
		if len(c.cc) != contexts {
			t.Fatalf("PerPathCC=%v: %d CC contexts, want %d", tc.cfg.PerPathCC, len(c.cc), contexts)
		}
		c.Send(8<<20, nil)
		hitLo, hitHi := make([]bool, contexts), make([]bool, contexts)
		for eng.Step() {
			for i, x := range c.cc {
				if x.window < tc.lo || x.window > tc.hi {
					t.Fatalf("PerPathCC=%v: context %d window %.0f outside [%.0f, %.0f]",
						tc.cfg.PerPathCC, i, x.window, tc.lo, tc.hi)
				}
				hitLo[i] = hitLo[i] || x.window == tc.lo
				hitHi[i] = hitHi[i] || x.window == tc.hi
			}
		}
		for i := range c.cc {
			if !hitLo[i] || !hitHi[i] {
				t.Errorf("PerPathCC=%v: context %d reached floor %v, ceiling %v; test is vacuous",
					tc.cfg.PerPathCC, i, hitLo[i], hitHi[i])
			}
		}
	}
}

// TestInflightAccountingBalances verifies that inflight returns to zero
// after arbitrary loss patterns.
func TestInflightAccountingBalances(t *testing.T) {
	f := func(seed uint64, loss uint8) bool {
		eng := sim.NewEngine(seed)
		fb := fabric.New(eng, fabric.Config{
			Segments: 2, HostsPerSegment: 2, Aggs: 4,
			HostLinkBW: 12.5e9, FabricLinkBW: 12.5e9,
			LinkDelay: time.Microsecond, QueueLimit: 4 << 20, ECNThreshold: 256 << 10,
		})
		src := NewEndpoint(fb, 0, Config{})
		dst := NewEndpoint(fb, 2, Config{})
		faultSegment(t, fb, 0, fabric.Fault{DropProb: float64(loss%30) / 100})
		c, err := Connect(src, dst, 1, multipath.RoundRobin, 4)
		if err != nil {
			return false
		}
		c.Send(256<<10, nil)
		c.Send(512<<10, nil)
		eng.RunAll()
		return c.Outstanding() == 0 && c.CompletedMessages() == 2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestPerPathInflightBalances runs the same accounting check for the
// per-path CC ablation mode.
func TestPerPathInflightBalances(t *testing.T) {
	eng := sim.NewEngine(9)
	fb := fabric.New(eng, fabric.Config{
		Segments: 2, HostsPerSegment: 2, Aggs: 4,
		HostLinkBW: 12.5e9, FabricLinkBW: 12.5e9,
		LinkDelay: time.Microsecond, QueueLimit: 4 << 20, ECNThreshold: 256 << 10,
	})
	cfg := Config{PerPathCC: true}
	src := NewEndpoint(fb, 0, cfg)
	dst := NewEndpoint(fb, 2, cfg)
	faultSegment(t, fb, 0, fabric.Fault{DropProb: 0.1})
	c, err := Connect(src, dst, 1, multipath.RoundRobin, 4)
	if err != nil {
		t.Fatal(err)
	}
	c.Send(2<<20, nil)
	eng.RunAll()
	if c.Outstanding() != 0 {
		t.Errorf("Outstanding = %d after drain", c.Outstanding())
	}
	if got := c.PeerReceivedBytes(); got != 2<<20 {
		t.Errorf("PeerReceivedBytes = %d", got)
	}
}

// TestLossBetaBackoffEngages verifies the loss-reactive CC variant
// actually shrinks the window on RTO, unlike the production default.
func TestLossBetaBackoffEngages(t *testing.T) {
	run := func(lossBeta float64) uint64 {
		eng := sim.NewEngine(4)
		fb := fabric.New(eng, fabric.Config{
			Segments: 2, HostsPerSegment: 2, Aggs: 2,
			HostLinkBW: 12.5e9, FabricLinkBW: 12.5e9,
			LinkDelay: time.Microsecond, QueueLimit: 4 << 20, ECNThreshold: 2 << 20,
		})
		cfg := Config{LossBeta: lossBeta}
		src := NewEndpoint(fb, 0, cfg)
		dst := NewEndpoint(fb, 2, cfg)
		faultSegment(t, fb, 0, fabric.Fault{DropProb: 0.2})
		c, _ := Connect(src, dst, 1, multipath.RoundRobin, 2)
		c.Send(4<<20, nil)
		eng.RunAll()
		return c.Window()
	}
	wProduction := run(1)  // no loss back-off
	wReactive := run(0.25) // aggressive back-off
	if wReactive >= wProduction {
		t.Errorf("loss-reactive window %d not below production %d", wReactive, wProduction)
	}
}

// TestFlowletTransportIntegration wires the clocked flowlet selector
// through the real transport: a continuous bulk transfer stays on very
// few paths (RDMA's pattern defeats flowlets), while gapped sends
// spread.
func TestFlowletTransportIntegration(t *testing.T) {
	eng := sim.NewEngine(13)
	fb := fabric.New(eng, fabric.Config{
		Segments: 2, HostsPerSegment: 2, Aggs: 16,
		HostLinkBW: 12.5e9, FabricLinkBW: 12.5e9,
		LinkDelay: time.Microsecond, QueueLimit: 8 << 20, ECNThreshold: 512 << 10,
	})
	src := NewEndpoint(fb, 0, Config{})
	dst := NewEndpoint(fb, 2, Config{})
	c, err := Connect(src, dst, 1, multipath.Flowlet, 16)
	if err != nil {
		t.Fatal(err)
	}
	// One continuous 8 MB message: no inter-packet gaps at the sender.
	c.Send(8<<20, nil)
	eng.RunAll()
	used := 0
	for _, s := range fb.UplinkStats(0) {
		if s.BytesTx > 0 {
			used++
		}
	}
	if used > 3 {
		t.Errorf("bulk flowlet transfer touched %d uplinks; expected near-single-path", used)
	}

	// Gapped sends (1 ms apart, >> the 50 µs flowlet gap) spread.
	eng2 := sim.NewEngine(13)
	fb2 := fabric.New(eng2, fabric.Config{
		Segments: 2, HostsPerSegment: 2, Aggs: 16,
		HostLinkBW: 12.5e9, FabricLinkBW: 12.5e9,
		LinkDelay: time.Microsecond, QueueLimit: 8 << 20, ECNThreshold: 512 << 10,
	})
	src2 := NewEndpoint(fb2, 0, Config{})
	dst2 := NewEndpoint(fb2, 2, Config{})
	c2, err := Connect(src2, dst2, 1, multipath.Flowlet, 16)
	if err != nil {
		t.Fatal(err)
	}
	_ = dst2
	for i := 0; i < 30; i++ {
		i := i
		eng2.At(sim.Time(i)*sim.Time(time.Millisecond), func() { c2.Send(4096, nil) })
	}
	eng2.RunAll()
	used2 := 0
	for _, s := range fb2.UplinkStats(0) {
		if s.BytesTx > 0 {
			used2++
		}
	}
	if used2 <= used {
		t.Errorf("gapped flowlet sends used %d uplinks, not above bulk's %d", used2, used)
	}
}
