package fabric

import (
	"errors"
	"math"
	"slices"
	"testing"
	"time"

	"repro/internal/sim"
)

// TestDropAccountingPerTier pins the counted-drop semantics: a packet
// hitting a failed link at ANY tier — including the destination host's
// down-link — increments both the fabric drop counter and the failing
// link's own stats, rather than silently blackholing. The cross-pod
// route 0→6 with PathID 3 traverses one link of every tier.
func TestDropAccountingPerTier(t *testing.T) {
	// podFabric: 4 segments in 2 pods, 8 aggs, 4 cores; host 0 is in
	// segment 0 (pod 0), host 6 in segment 3 (pod 1). PathID 3 → agg 3,
	// core (3/8)%4 = 0.
	tiers := []struct {
		name string
		ref  LinkRef
	}{
		{"src-host-up", HostLink(0, DirUp)},
		{"tor-agg-up", Uplink(0, 3)},
		{"agg-core-up", CoreLink(0, 3, 0, DirUp)},
		{"agg-core-down", CoreLink(1, 3, 0, DirDown)},
		{"tor-agg-down", Downlink(3, 3)},
		{"dst-host-down", HostLink(6, DirDown)},
	}
	for _, tc := range tiers {
		t.Run(tc.name, func(t *testing.T) {
			eng := sim.NewEngine(1)
			f := podFabric(eng)
			delivered := 0
			f.Handle(6, func(*Packet) { delivered++ })
			if err := f.SetFault(tc.ref, Fault{Down: true}); err != nil {
				t.Fatalf("SetFault(%v): %v", tc.ref, err)
			}
			if err := f.Send(&Packet{Src: 0, Dst: 6, Size: 1000, PathID: 3}); err != nil {
				t.Fatal(err)
			}
			eng.RunAll()
			if delivered != 0 {
				t.Error("packet delivered through a failed link")
			}
			if f.Dropped() != 1 {
				t.Errorf("fabric Dropped = %d, want 1", f.Dropped())
			}
			st, err := f.StatsOf(tc.ref)
			if err != nil {
				t.Fatal(err)
			}
			if st.Drops != 1 {
				t.Errorf("failing link Drops = %d, want 1 (drop not attributed to the failed tier)", st.Drops)
			}
			// The drop must be charged exactly once: every other link on
			// the route stays clean.
			for _, other := range tiers {
				if other.name == tc.name {
					continue
				}
				ost, err := f.StatsOf(other.ref)
				if err != nil {
					t.Fatal(err)
				}
				if ost.Drops != 0 {
					t.Errorf("%s Drops = %d, want 0", other.name, ost.Drops)
				}
			}
			// Clearing the fault restores delivery.
			if err := f.SetFault(tc.ref, Fault{}); err != nil {
				t.Fatal(err)
			}
			if err := f.Send(&Packet{Src: 0, Dst: 6, Size: 1000, PathID: 3}); err != nil {
				t.Fatal(err)
			}
			eng.RunAll()
			if delivered != 1 {
				t.Error("packet not delivered after the fault cleared")
			}
		})
	}
}

// TestFaultOnMissingUplinkErrors: a fault aimed at a segment or agg the
// topology does not have must fail loudly, not run fault-free, and only
// a ToR→Agg uplink can be withdrawn from routing.
func TestFaultOnMissingUplinkErrors(t *testing.T) {
	eng := sim.NewEngine(1)
	f := smallFabric(eng) // 2 segments, 4 aggs
	for _, l := range []struct{ seg, agg int }{{2, 0}, {-1, 0}, {0, 4}, {0, -1}} {
		ref := Uplink(l.seg, l.agg)
		for _, ft := range []Fault{{DropProb: 0.5}, {}, {Down: true, Withdrawn: true}} {
			if err := f.SetFault(ref, ft); err == nil {
				t.Errorf("SetFault(%v, %+v) accepted a nonexistent uplink", ref, ft)
			}
		}
	}
	for _, ref := range []LinkRef{Downlink(0, 1), HostLink(0, DirUp), CoreLink(0, 1, 0, DirUp)} {
		if err := f.SetFault(ref, Fault{Withdrawn: true}); !errors.Is(err, ErrBadFault) {
			t.Errorf("SetFault(%v, Withdrawn) = %v, want ErrBadFault", ref, err)
		}
	}
	for s := range f.aggOverride {
		for a, via := range f.aggOverride[s] {
			if via != a {
				t.Errorf("rejected faults rerouted segment %d agg %d to %d", s, a, via)
			}
		}
	}
}

// TestGrayFaultDegradesWithoutKilling: latency inflation and bandwidth
// caps must slow the link, not drop traffic; clearing restores the
// healthy timings byte-for-byte.
func TestGrayFaultDegradesWithoutKilling(t *testing.T) {
	base := func() sim.Duration {
		eng := sim.NewEngine(1)
		f := smallFabric(eng)
		var lat sim.Duration
		sent := eng.Now()
		f.Handle(1, func(p *Packet) { lat = eng.Now().Sub(sent) })
		if err := f.Send(&Packet{Src: 0, Dst: 1, Size: 1000}); err != nil {
			t.Fatal(err)
		}
		eng.RunAll()
		return lat
	}()

	eng := sim.NewEngine(1)
	f := smallFabric(eng)
	var lat sim.Duration
	sent := eng.Now()
	f.Handle(1, func(p *Packet) { lat = eng.Now().Sub(sent) })
	ft := Fault{ExtraDelay: sim.Duration(5 * time.Microsecond), BWFactor: 0.5}
	if err := f.SetFault(HostLink(0, DirUp), ft); err != nil {
		t.Fatal(err)
	}
	if err := f.Send(&Packet{Src: 0, Dst: 1, Size: 1000}); err != nil {
		t.Fatal(err)
	}
	eng.RunAll()
	// Half capacity doubles the 1 µs serialisation (+1 µs) and the extra
	// delay adds 5 µs on that hop only.
	want := base + sim.Duration(5*time.Microsecond) + sim.Duration(1*time.Microsecond)
	if lat != want {
		t.Errorf("gray latency = %v, want %v (base %v)", lat, want, base)
	}
	if f.Dropped() != 0 {
		t.Errorf("gray fault dropped %d packets", f.Dropped())
	}
	if got, _ := f.FaultOf(HostLink(0, DirUp)); got != ft {
		t.Errorf("FaultOf = %+v, want %+v", got, ft)
	}

	if err := f.SetFault(HostLink(0, DirUp), Fault{}); err != nil {
		t.Fatal(err)
	}
	lat, sent = 0, eng.Now()
	if err := f.Send(&Packet{Src: 0, Dst: 1, Size: 1000}); err != nil {
		t.Fatal(err)
	}
	eng.RunAll()
	if lat != base {
		t.Errorf("post-clear latency = %v, want %v", lat, base)
	}
}

// TestSwitchLinksEnumeration: rebooting a switch must cover exactly the
// links incident to it at each tier.
func TestSwitchLinksEnumeration(t *testing.T) {
	eng := sim.NewEngine(1)
	f := podFabric(eng) // 4 segs / 2 pods / 8 aggs / 4 cores, 2 hosts per seg
	tor, err := f.SwitchLinks(SwitchToR, 1)
	if err != nil {
		t.Fatal(err)
	}
	// ToR 1: 2 host links × 2 dirs + 8 uplinks + 8 downlinks.
	if len(tor) != 2*2+8+8 {
		t.Errorf("ToR links = %d, want %d", len(tor), 2*2+8+8)
	}
	agg, err := f.SwitchLinks(SwitchAgg, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Agg 0: up+down per segment (4 segs) + up+down core attachment per
	// pod per core (2 pods × 4 cores).
	if len(agg) != 4*2+2*4*2 {
		t.Errorf("Agg links = %d, want %d", len(agg), 4*2+2*4*2)
	}
	core, err := f.SwitchLinks(SwitchCore, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Core 2: up+down per pod per agg.
	if len(core) != 2*8*2 {
		t.Errorf("Core links = %d, want %d", len(core), 2*8*2)
	}
	if _, err := f.SwitchLinks(SwitchAgg, 99); err == nil {
		t.Error("out-of-range switch accepted")
	}
}

// TestSetFaultRejectsBadFault: a fault outside its domain is refused
// with ErrBadFault and leaves the link untouched. A negative ExtraDelay
// in particular would schedule the next hop before now and break the
// LinkDelay lookahead the sharded engine relies on.
func TestSetFaultRejectsBadFault(t *testing.T) {
	eng := sim.NewEngine(1)
	f := smallFabric(eng)
	ref := Uplink(0, 0)
	before := Fault{DropProb: 0.25, ExtraDelay: sim.Duration(time.Microsecond), BWFactor: 0.5}
	setUplink(t, f, 0, 0, before)
	for _, ft := range []Fault{
		{ExtraDelay: -sim.Duration(time.Millisecond)},
		{DropProb: -0.1},
		{DropProb: 1.5},
		{BWFactor: -0.5},
		{BWFactor: 2},
		{DropProb: math.NaN()},
		{BWFactor: 1e-300},
		{BWFactor: MinBWFactor / 2},
		{ExtraDelay: math.MaxInt64},
		{ExtraDelay: MaxExtraDelay + 1},
	} {
		if err := f.SetFault(ref, ft); !errors.Is(err, ErrBadFault) {
			t.Errorf("SetFault(%+v) = %v, want ErrBadFault", ft, err)
		}
		if got, _ := f.FaultOf(ref); got != before {
			t.Errorf("rejected SetFault(%+v) changed the link to %+v", ft, got)
		}
	}
	// The link still carries traffic at its pre-existing gray timing.
	setUplink(t, f, 0, 0, Fault{ExtraDelay: before.ExtraDelay, BWFactor: before.BWFactor})
	delivered := 0
	f.Handle(5, func(*Packet) { delivered++ })
	if err := f.Send(&Packet{Src: 0, Dst: 5, Size: 1000}); err != nil {
		t.Fatal(err)
	}
	eng.RunAll()
	if delivered != 1 {
		t.Errorf("delivered %d packets after rejected faults, want 1", delivered)
	}
}

// TestGrayFaultRoundTrip guards the effective rate and delay SetFault
// precomputes: during a gray fault a hop takes exactly the division at
// the capped rate plus the extra delay, and after the clear the link
// times every packet exactly like a twin link that never faulted.
func TestGrayFaultRoundTrip(t *testing.T) {
	// At 0.37 of 1 GB/s, 5809 bytes take 15699 ns by the division but
	// 15700 ns by a reciprocal multiply: the size catches a rate
	// precompute that rounds differently.
	const size = 5809
	extra := sim.Duration(3 * time.Microsecond)
	run := func(gray bool) (grayLat sim.Duration, lats []sim.Duration) {
		eng := sim.NewEngine(1)
		f := smallFabric(eng)
		var last sim.Duration
		var sent, burstSent sim.Time
		f.Handle(1, func(p *Packet) { last = eng.Now().Sub(sent) })
		f.Handle(5, func(p *Packet) { lats = append(lats, eng.Now().Sub(burstSent)) })
		if gray {
			if err := f.SetFault(HostLink(0, DirUp), Fault{BWFactor: 0.37, ExtraDelay: extra}); err != nil {
				t.Fatal(err)
			}
		}
		sent = eng.Now()
		if err := f.Send(&Packet{Src: 0, Dst: 1, Size: size}); err != nil {
			t.Fatal(err)
		}
		eng.RunAll()
		grayLat = last
		if err := f.SetFault(HostLink(0, DirUp), Fault{}); err != nil {
			t.Fatal(err)
		}
		// A same-instant burst of mixed sizes queues behind itself, so
		// every serialisation time shows in the delivery times.
		eng.At(sim.Time(time.Millisecond), func() {
			burstSent = eng.Now()
			for i, sz := range []uint32{1000, 1500, 64, 4096, 999, 1000} {
				if err := f.Send(&Packet{Src: 0, Dst: 5, Size: sz, PathID: i, Seq: uint64(i)}); err != nil {
					t.Fatal(err)
				}
			}
		})
		eng.RunAll()
		return grayLat, lats
	}
	baseLat, baseLats := run(false)
	grayLat, grayLats := run(true)

	capacity := smallFabric(sim.NewEngine(1)).Config().HostLinkBW
	full := sim.Duration(float64(size) / capacity * 1e9)
	capped := sim.Duration(float64(size) / (capacity * 0.37) * 1e9)
	if want := baseLat - full + capped + extra; grayLat != want {
		t.Errorf("gray latency = %v, want %v (base %v, capped ser %v)", grayLat, want, baseLat, capped)
	}
	if len(grayLats) != 6 || !slices.Equal(grayLats, baseLats) {
		t.Errorf("post-clear delivery times %v, never-faulted twin %v", grayLats, baseLats)
	}
}
