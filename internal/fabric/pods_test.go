package fabric

import (
	"testing"
	"time"

	"repro/internal/sim"
)

// podFabric: 4 segments in 2 pods, 8 aggs, 4 cores.
func podFabric(eng *sim.Engine) *Fabric {
	return New(eng, Config{
		Segments: 4, HostsPerSegment: 2, Aggs: 8,
		SegmentsPerPod: 2, CoreSwitches: 4,
		HostLinkBW: 1e9, FabricLinkBW: 1e9,
		LinkDelay: time.Microsecond, QueueLimit: 4 << 20, ECNThreshold: 256 << 10,
	})
}

func TestPodMapping(t *testing.T) {
	eng := sim.NewEngine(1)
	f := podFabric(eng)
	if f.Pods() != 2 {
		t.Fatalf("Pods = %d", f.Pods())
	}
	// Hosts 0..3 in segments 0-1 (pod 0); hosts 4..7 in segments 2-3 (pod 1).
	if f.Pod(0) != 0 || f.Pod(3) != 0 || f.Pod(4) != 1 || f.Pod(7) != 1 {
		t.Error("Pod mapping wrong")
	}
}

// TestHostTable checks the per-host location table on a sharded
// multi-pod fabric (6 pods over 4 shards, so some shards own two pods
// and the segment count is not a multiple of the shard count) against
// the arithmetic it replaces.
func TestHostTable(t *testing.T) {
	const hostsPerSeg, segsPerPod, pods, shards = 3, 2, 6, 4
	se := sim.NewShardedEngine(1, sim.SchedulerWheel, shards)
	f := NewSharded(se, Config{
		Segments: segsPerPod * pods, HostsPerSegment: hostsPerSeg, Aggs: 4,
		SegmentsPerPod: segsPerPod, CoreSwitches: 2,
	})
	for h := 0; h < f.NumHosts(); h++ {
		seg := h / hostsPerSeg
		pod := seg / segsPerPod
		shard := pod * shards / pods
		id := HostID(h)
		if int(f.hostAt[h].seg) != seg || f.Pod(id) != pod || f.ShardOf(id) != shard || f.EngineFor(id) != se.Shard(shard) {
			t.Errorf("host %d: segment %d, pod %d, shard %d; want %d, %d, %d",
				h, f.hostAt[h].seg, f.Pod(id), f.ShardOf(id), seg, pod, shard)
		}
	}
}

func TestCrossPodTraversesCore(t *testing.T) {
	eng := sim.NewEngine(1)
	f := podFabric(eng)
	delivered := 0
	f.Handle(6, func(*Packet) { delivered++ })
	f.Handle(2, func(*Packet) { delivered++ })
	// Host 0 (pod 0) -> host 6 (pod 1): must cross the core.
	if err := f.Send(&Packet{Src: 0, Dst: 6, Size: 1000, PathID: 3}); err != nil {
		t.Fatal(err)
	}
	// Host 0 -> host 2 (pod 0, different segment): agg layer only.
	if err := f.Send(&Packet{Src: 0, Dst: 2, Size: 1000, PathID: 3}); err != nil {
		t.Fatal(err)
	}
	eng.RunAll()
	if delivered != 2 {
		t.Fatalf("delivered = %d", delivered)
	}
	stats := f.CoreStats()
	var coreBytes uint64
	for _, v := range stats {
		coreBytes += v
	}
	// Only the cross-pod packet touched the core: 1000 bytes up + 1000
	// bytes down.
	if coreBytes != 2000 {
		t.Errorf("core carried %d bytes, want 2000", coreBytes)
	}
}

func TestCrossPodLatencyHasExtraHops(t *testing.T) {
	eng := sim.NewEngine(1)
	f := podFabric(eng)
	var intra, cross sim.Time
	sent := eng.Now()
	f.Handle(2, func(p *Packet) { intra = eng.Now() - sent })
	f.Handle(6, func(p *Packet) { cross = eng.Now() - sent })
	// Distinct sources and aggs so the probes share no queue.
	f.Send(&Packet{Src: 0, Dst: 2, Size: 1000, PathID: 0})
	f.Send(&Packet{Src: 1, Dst: 6, Size: 1000, PathID: 1})
	eng.RunAll()
	// Cross-pod adds two hops: 2 more serialization+propagation units.
	want := sim.Time(2*1000) + sim.Time(2*time.Microsecond)
	if cross-intra != want {
		t.Errorf("cross-pod extra latency = %v, want %v", cross-intra, want)
	}
}

func TestCoreHashImbalanceSingleVsSpray(t *testing.T) {
	// Problem ⑥: single-path flows hash onto few core switches and
	// collide; spraying covers the whole core layer.
	run := func(spread bool) float64 {
		eng := sim.NewEngine(5)
		f := podFabric(eng)
		for h := 0; h < f.NumHosts(); h++ {
			f.Handle(HostID(h), func(*Packet) {})
		}
		rng := sim.NewRNG(7)
		// 8 cross-pod flows of 64 packets each.
		for flow := 0; flow < 8; flow++ {
			fixed := rng.Intn(8 * 4) // single-path: one (agg, core) pick
			for i := 0; i < 64; i++ {
				pid := fixed
				if spread {
					pid = rng.Intn(8 * 4)
				}
				f.Send(&Packet{Src: HostID(flow % 4), Dst: HostID(4 + flow%4), Size: 4096, PathID: pid, Seq: uint64(i)})
			}
		}
		eng.RunAll()
		return f.CoreImbalance()
	}
	single := run(false)
	sprayed := run(true)
	if sprayed >= single {
		t.Errorf("spray core imbalance %v not below single-path %v", sprayed, single)
	}
	if single < 0.5 {
		t.Errorf("single-path core imbalance %v suspiciously balanced", single)
	}
}

func TestSinglePodHasNoCore(t *testing.T) {
	eng := sim.NewEngine(1)
	f := New(eng, Config{
		Segments: 2, HostsPerSegment: 2, Aggs: 4,
		HostLinkBW: 1e9, FabricLinkBW: 1e9,
		LinkDelay: time.Microsecond, QueueLimit: 1 << 20, ECNThreshold: 256 << 10,
	})
	if f.Pods() != 1 {
		t.Errorf("Pods = %d", f.Pods())
	}
	if f.CoreImbalance() != 0 || len(f.CoreStats()) != 0 {
		t.Error("single-pod fabric reports core state")
	}
}

// TestWithdrawnUplinkReroutes: a dead uplink drops its paths' packets until
// the control plane withdraws it, then its traffic takes the next agg;
// clearing the fault restores the original route.
func TestWithdrawnUplinkReroutes(t *testing.T) {
	eng := sim.NewEngine(1)
	f := New(eng, Config{
		Segments: 2, HostsPerSegment: 2, Aggs: 4,
		HostLinkBW: 1e9, FabricLinkBW: 1e9,
		LinkDelay: time.Microsecond, QueueLimit: 1 << 20, ECNThreshold: 256 << 10,
	})
	delivered := 0
	f.Handle(2, func(*Packet) { delivered++ })

	setUplink(t, f, 0, 1, Fault{Down: true})
	// Before the control plane withdraws the uplink: path 1 drops.
	f.Send(&Packet{Src: 0, Dst: 2, Size: 100, PathID: 1})
	eng.RunAll()
	if delivered != 0 {
		t.Fatal("packet survived a dead uplink before reroute")
	}
	// Withdrawn: path 1 is steered to agg 2 and delivers.
	withdrawn := Fault{Down: true, Withdrawn: true}
	setUplink(t, f, 0, 1, withdrawn)
	if got, _ := f.FaultOf(Uplink(0, 1)); got != withdrawn {
		t.Errorf("FaultOf = %+v, want %+v", got, withdrawn)
	}
	f.Send(&Packet{Src: 0, Dst: 2, Size: 100, PathID: 1})
	eng.RunAll()
	if delivered != 1 {
		t.Fatal("reroute did not restore delivery")
	}
	if f.UplinkStats(0)[2].BytesTx == 0 {
		t.Error("rerouted traffic did not use the alternate uplink")
	}
	// The zero Fault restores the link and the agg-1 mapping.
	setUplink(t, f, 0, 1, Fault{})
	f.Send(&Packet{Src: 0, Dst: 2, Size: 100, PathID: 1})
	eng.RunAll()
	if delivered != 2 || f.UplinkStats(0)[1].BytesTx == 0 {
		t.Errorf("restored uplink unused: delivered %d, agg-1 BytesTx %d", delivered, f.UplinkStats(0)[1].BytesTx)
	}
}
