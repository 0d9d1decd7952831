package fabric

import (
	"errors"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/sim"
)

func smallFabric(eng *sim.Engine) *Fabric {
	return New(eng, Config{
		Segments:        2,
		HostsPerSegment: 4,
		Aggs:            4,
		HostLinkBW:      1e9,
		FabricLinkBW:    1e9,
		LinkDelay:       time.Microsecond,
		QueueLimit:      1 << 20,
		ECNThreshold:    64 << 10,
	})
}

// setUplink installs ft on uplink (seg, agg), failing the test if the
// fabric has no such link.
func setUplink(t testing.TB, f *Fabric, seg, agg int, ft Fault) {
	t.Helper()
	if err := f.SetFault(Uplink(seg, agg), ft); err != nil {
		t.Fatal(err)
	}
}

func TestDeliveryIntraSegment(t *testing.T) {
	eng := sim.NewEngine(1)
	f := smallFabric(eng)
	var got *Packet
	f.Handle(1, func(p *Packet) { got = p })
	sent := eng.Now()
	if err := f.Send(&Packet{Src: 0, Dst: 1, Size: 1000}); err != nil {
		t.Fatal(err)
	}
	eng.RunAll()
	if got == nil {
		t.Fatal("packet not delivered")
	}
	if f.Delivered() != 1 {
		t.Error("Delivered counter")
	}
	// Two hops: serialization 2x1µs + 2x1µs delay = 4µs.
	want := sim.Duration(2*1000) + 2*time.Microsecond
	if lat := eng.Now().Sub(sent); lat != want {
		t.Errorf("intra-segment latency = %v, want %v", lat, want)
	}
}

func TestDeliveryCrossSegment(t *testing.T) {
	eng := sim.NewEngine(1)
	f := smallFabric(eng)
	var got *Packet
	f.Handle(5, func(p *Packet) { got = p })
	if err := f.Send(&Packet{Src: 0, Dst: 5, Size: 1000, PathID: 2}); err != nil {
		t.Fatal(err)
	}
	eng.RunAll()
	if got == nil {
		t.Fatal("packet not delivered")
	}
	// Path 2 must have used agg 2's uplink.
	stats := f.UplinkStats(0)
	if stats[2].BytesTx != 1000 {
		t.Errorf("agg2 uplink bytes = %d", stats[2].BytesTx)
	}
	for a := 0; a < 4; a++ {
		if a != 2 && stats[a].BytesTx != 0 {
			t.Errorf("agg%d carried traffic for path 2", a)
		}
	}
}

func TestSendValidatesHosts(t *testing.T) {
	eng := sim.NewEngine(1)
	f := smallFabric(eng)
	if err := f.Send(&Packet{Src: 0, Dst: 99, Size: 10}); !errors.Is(err, ErrBadHost) {
		t.Errorf("err = %v", err)
	}
	if err := f.Send(&Packet{Src: -1, Dst: 0, Size: 10}); !errors.Is(err, ErrBadHost) {
		t.Errorf("err = %v", err)
	}
}

func TestPathIDMapsModuloAggs(t *testing.T) {
	eng := sim.NewEngine(1)
	f := smallFabric(eng)
	f.Handle(4, func(*Packet) {})
	// PathID 6 on 4 aggs -> agg 2.
	f.Send(&Packet{Src: 0, Dst: 4, Size: 500, PathID: 6})
	eng.RunAll()
	if f.UplinkStats(0)[2].BytesTx != 500 {
		t.Error("PathID modulo mapping broken")
	}
}

func TestQueueBuildupAndECN(t *testing.T) {
	eng := sim.NewEngine(1)
	// The ToR uplink is the bottleneck (10:1), so the queue builds there.
	f := New(eng, Config{
		Segments: 2, HostsPerSegment: 4, Aggs: 4,
		HostLinkBW: 10e9, FabricLinkBW: 1e9,
		LinkDelay: time.Microsecond, QueueLimit: 4 << 20, ECNThreshold: 64 << 10,
	})
	var marked int
	f.Handle(4, func(p *Packet) {
		if p.ECN() {
			marked++
		}
	})
	// Blast one path far beyond the ECN threshold (64 KB): 200 x 4 KB
	// back-to-back = 800 KB queued at the bottleneck.
	for i := 0; i < 200; i++ {
		f.Send(&Packet{Src: 0, Dst: 4, Size: 4096, PathID: 0, Seq: uint64(i)})
	}
	eng.RunAll()
	if marked == 0 {
		t.Error("no ECN marks despite deep queue")
	}
	st := f.UplinkStats(0)[0]
	if st.MaxQueue < 64<<10 {
		t.Errorf("MaxQueue = %d, want > ECN threshold", st.MaxQueue)
	}
	if st.ECNMarks == 0 {
		t.Error("link ECN counter zero")
	}
}

func TestTailDrop(t *testing.T) {
	eng := sim.NewEngine(1)
	f := New(eng, Config{
		Segments: 2, HostsPerSegment: 2, Aggs: 2,
		HostLinkBW: 1e12, FabricLinkBW: 1e6, // brutal bottleneck at the uplink
		LinkDelay: time.Microsecond, QueueLimit: 16 << 10, ECNThreshold: 8 << 10,
	})
	delivered := 0
	f.Handle(2, func(*Packet) { delivered++ })
	for i := 0; i < 100; i++ {
		f.Send(&Packet{Src: 0, Dst: 2, Size: 4096, PathID: 0})
	}
	eng.RunAll()
	if f.Dropped() == 0 {
		t.Error("no tail drops at a 16 KB queue limit")
	}
	if delivered+int(f.Dropped()) != 100 {
		t.Errorf("delivered %d + dropped %d != 100", delivered, f.Dropped())
	}
}

func TestInjectLoss(t *testing.T) {
	eng := sim.NewEngine(7)
	f := smallFabric(eng)
	delivered := 0
	f.Handle(4, func(*Packet) { delivered++ })
	setUplink(t, f, 0, 0, Fault{DropProb: 0.5})
	const n = 2000
	for i := 0; i < n; i++ {
		f.Send(&Packet{Src: 0, Dst: 4, Size: 100, PathID: 0})
	}
	eng.RunAll()
	lossRate := 1 - float64(delivered)/n
	if lossRate < 0.4 || lossRate > 0.6 {
		t.Errorf("loss rate = %.2f, want ~0.5", lossRate)
	}
	setUplink(t, f, 0, 0, Fault{})
	before := delivered
	f.Send(&Packet{Src: 0, Dst: 4, Size: 100, PathID: 0})
	eng.RunAll()
	if delivered != before+1 {
		t.Error("clearing the fault did not clear loss")
	}
}

func TestFailLink(t *testing.T) {
	eng := sim.NewEngine(1)
	f := smallFabric(eng)
	delivered := 0
	f.Handle(4, func(*Packet) { delivered++ })
	setUplink(t, f, 0, 1, Fault{Down: true})
	f.Send(&Packet{Src: 0, Dst: 4, Size: 100, PathID: 1})
	f.Send(&Packet{Src: 0, Dst: 4, Size: 100, PathID: 0}) // other path fine
	eng.RunAll()
	if delivered != 1 {
		t.Errorf("delivered = %d, want only the healthy path's packet", delivered)
	}
}

func TestImbalanceMetric(t *testing.T) {
	eng := sim.NewEngine(1)
	f := smallFabric(eng)
	f.Handle(4, func(*Packet) {})
	// All traffic on one of four uplinks: max-min = total, mean = total/4,
	// imbalance = 4.
	for i := 0; i < 10; i++ {
		f.Send(&Packet{Src: 0, Dst: 4, Size: 1000, PathID: 0})
	}
	eng.RunAll()
	if got := f.Imbalance(0); got < 3.9 || got > 4.1 {
		t.Errorf("single-path imbalance = %v, want 4.0", got)
	}
	// Perfectly spread traffic: imbalance 0.
	eng2 := sim.NewEngine(1)
	f2 := smallFabric(eng2)
	f2.Handle(4, func(*Packet) {})
	for i := 0; i < 40; i++ {
		f2.Send(&Packet{Src: 0, Dst: 4, Size: 1000, PathID: i % 4})
	}
	eng2.RunAll()
	if got := f2.Imbalance(0); got != 0 {
		t.Errorf("spread imbalance = %v, want 0", got)
	}
	if f.Imbalance(1) != 0 {
		t.Error("idle segment imbalance should be 0")
	}
}

func TestSerializationOrdering(t *testing.T) {
	// Two packets on one path must arrive in order, separated by at
	// least the serialization time of the second.
	eng := sim.NewEngine(1)
	f := smallFabric(eng)
	var arrivals []sim.Time
	f.Handle(4, func(p *Packet) { arrivals = append(arrivals, eng.Now()) })
	f.Send(&Packet{Src: 0, Dst: 4, Size: 10000, PathID: 0, Seq: 0})
	f.Send(&Packet{Src: 0, Dst: 4, Size: 10000, PathID: 0, Seq: 1})
	eng.RunAll()
	if len(arrivals) != 2 {
		t.Fatal("not all delivered")
	}
	gap := arrivals[1] - arrivals[0]
	ser := sim.Time(10 * time.Microsecond) // 10 KB at 1 GB/s
	if gap < ser {
		t.Errorf("arrival gap %v < serialization %v", gap, ser)
	}
}

func TestUplinkQueueDepthSample(t *testing.T) {
	eng := sim.NewEngine(1)
	// Make the fabric link the bottleneck so the ToR uplink backs up.
	f := New(eng, Config{
		Segments: 2, HostsPerSegment: 4, Aggs: 4,
		HostLinkBW: 10e9, FabricLinkBW: 1e9,
		LinkDelay: time.Microsecond, QueueLimit: 4 << 20, ECNThreshold: 64 << 10,
	})
	f.Handle(4, func(*Packet) {})
	for i := 0; i < 50; i++ {
		f.Send(&Packet{Src: 0, Dst: 4, Size: 4096, PathID: 0})
	}
	// Let the first packets reach the ToR, then sample mid-drain.
	eng.Run(eng.Now().Add(60 * time.Microsecond))
	depths := f.UplinkQueueDepths(0)
	if depths[0] == 0 {
		t.Error("no queue sampled on the loaded uplink")
	}
	eng.RunAll()
	depths = f.UplinkQueueDepths(0)
	if depths[0] != 0 {
		t.Error("queue did not drain")
	}
}

func TestSegmentMapping(t *testing.T) {
	eng := sim.NewEngine(1)
	f := smallFabric(eng)
	if f.hostAt[0].seg != 0 || f.hostAt[3].seg != 0 || f.hostAt[4].seg != 1 || f.hostAt[7].seg != 1 {
		t.Error("Segment mapping wrong")
	}
	if f.NumHosts() != 8 {
		t.Errorf("NumHosts = %d", f.NumHosts())
	}
}

func TestConservationProperty(t *testing.T) {
	// Every packet sent is eventually delivered or dropped — never
	// duplicated, never lost in the simulator itself — across random
	// topologies, loss rates and path choices.
	f := func(seed uint64, nPkts uint16, lossPct, pathSpread uint8) bool {
		eng := sim.NewEngine(seed)
		fb := New(eng, Config{
			Segments: 4, HostsPerSegment: 2, Aggs: 6,
			SegmentsPerPod: 2, CoreSwitches: 3,
			HostLinkBW: 1e9, FabricLinkBW: 1e9,
			LinkDelay: time.Microsecond, QueueLimit: 64 << 10, ECNThreshold: 16 << 10,
		})
		delivered := 0
		for h := 0; h < fb.NumHosts(); h++ {
			fb.Handle(HostID(h), func(*Packet) { delivered++ })
		}
		setUplink(t, fb, 0, 0, Fault{DropProb: float64(lossPct%50) / 100})
		rng := sim.NewRNG(seed + 1)
		sent := int(nPkts%500) + 1
		for i := 0; i < sent; i++ {
			p := &Packet{
				Src:    HostID(rng.Intn(fb.NumHosts())),
				Dst:    HostID(rng.Intn(fb.NumHosts())),
				Size:   uint32(rng.Intn(4096) + 1),
				PathID: rng.Intn(int(pathSpread%64) + 1),
				Seq:    uint64(i),
			}
			if p.Src == p.Dst {
				p.Dst = HostID((int(p.Dst) + 1) % fb.NumHosts())
			}
			if err := fb.Send(p); err != nil {
				return false
			}
		}
		eng.RunAll()
		return delivered+int(fb.Dropped()) == sent
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
