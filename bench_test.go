package repro_test

import (
	"testing"
	"time"

	"repro/internal/addr"
	stellar "repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/fabric"
	"repro/internal/multipath"
	"repro/internal/pagetable"
	"repro/internal/rnic"
	"repro/internal/rund"
	"repro/internal/sim"
	"repro/internal/transport"
)

// ---------------------------------------------------------------------
// Figure/table regeneration benches: one per experiment in §5–§8. Each
// runs the full experiment (deterministic, seed 42) per iteration; with
// the default -benchtime the heavy network experiments execute once.
// Run `go test -bench 'Fig|Table|Sec|Ablation' -benchtime 1x` for a full
// regeneration pass, or cmd/stellarbench to see the printed tables.
// ---------------------------------------------------------------------

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	r, ok := experiments.Lookup(id)
	if !ok {
		b.Fatalf("unknown experiment %s", id)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tb, err := r.Fn(experiments.NewSession(42))
		if err != nil {
			b.Fatal(err)
		}
		if len(tb.Rows) == 0 {
			b.Fatal("empty result table")
		}
	}
}

func BenchmarkFig6PodStartup(b *testing.B)         { benchExperiment(b, "fig6") }
func BenchmarkFig8ATCMiss(b *testing.B)            { benchExperiment(b, "fig8") }
func BenchmarkFig9PermutationQueues(b *testing.B)  { benchExperiment(b, "fig9") }
func BenchmarkFig10aStaticBackground(b *testing.B) { benchExperiment(b, "fig10a") }
func BenchmarkFig10bBurstyBackground(b *testing.B) { benchExperiment(b, "fig10b") }
func BenchmarkFig11LinkFailures(b *testing.B)      { benchExperiment(b, "fig11") }
func BenchmarkFig12PortImbalance(b *testing.B)     { benchExperiment(b, "fig12") }
func BenchmarkFig13Microbenchmark(b *testing.B)    { benchExperiment(b, "fig13") }
func BenchmarkFig14GDRThroughput(b *testing.B)     { benchExperiment(b, "fig14") }
func BenchmarkFig15Virtualization(b *testing.B)    { benchExperiment(b, "fig15") }
func BenchmarkFig16aReranked(b *testing.B)         { benchExperiment(b, "fig16a") }
func BenchmarkFig16bRandomRanking(b *testing.B)    { benchExperiment(b, "fig16b") }
func BenchmarkTable1CommRatios(b *testing.B)       { benchExperiment(b, "table1") }
func BenchmarkSec4Agility(b *testing.B)            { benchExperiment(b, "sec4") }
func BenchmarkAblationEMTT(b *testing.B)           { benchExperiment(b, "ablation-emtt") }
func BenchmarkAblationPVDMABlockSize(b *testing.B) { benchExperiment(b, "ablation-pvdma-block") }
func BenchmarkAblationPerPathCC(b *testing.B)      { benchExperiment(b, "ablation-perpath-cc") }
func BenchmarkAblationRTOSensitivity(b *testing.B) { benchExperiment(b, "ablation-rto") }
func BenchmarkAblationFlowlet(b *testing.B)        { benchExperiment(b, "ablation-flowlet") }
func BenchmarkAblationPathAware(b *testing.B)      { benchExperiment(b, "ablation-pathaware") }
func BenchmarkProb6CoreImbalance(b *testing.B)     { benchExperiment(b, "prob6-core") }
func BenchmarkProblemsReplay(b *testing.B)         { benchExperiment(b, "problems") }
func BenchmarkTCPPath(b *testing.B)                { benchExperiment(b, "tcp-path") }
func BenchmarkMoEAllToAll(b *testing.B)            { benchExperiment(b, "moe-alltoall") }
func BenchmarkLinkFailRecovery(b *testing.B)       { benchExperiment(b, "linkfail-recovery") }
func BenchmarkAblationCC(b *testing.B)             { benchExperiment(b, "ablation-cc") }
func BenchmarkLBTaxonomy(b *testing.B)             { benchExperiment(b, "lb-taxonomy") }

// benchRunAll measures the parallel harness: a fixed batch of
// experiments on a bounded worker pool. The subset mixes sim-heavy and
// host-side experiments so the pool actually has imbalance to absorb.
func benchRunAll(b *testing.B, workers int) {
	runners, err := experiments.Select("fig12,fig13,table1,tcp-path,prob6-core,chaos-recovery,sec4,ablation-emtt")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := experiments.NewSession(42)
		s.Parallelism = workers
		results, err := experiments.RunAll(s, runners)
		if err != nil {
			b.Fatal(err)
		}
		for _, res := range results {
			if len(res.Table.Rows) == 0 {
				b.Fatal("empty result table")
			}
		}
	}
}

func BenchmarkRunAllParallel1(b *testing.B) { benchRunAll(b, 1) }
func BenchmarkRunAllParallel2(b *testing.B) { benchRunAll(b, 2) }
func BenchmarkRunAllParallel4(b *testing.B) { benchRunAll(b, 4) }
func BenchmarkRunAllParallel8(b *testing.B) { benchRunAll(b, 8) }

// ---------------------------------------------------------------------
// Hot-path micro-benchmarks: the data structures whose cost determines
// simulator throughput.
// ---------------------------------------------------------------------

func BenchmarkTLBLookupHit(b *testing.B) {
	tlb := pagetable.NewTLB(8192, addr.PageSize4K)
	for p := uint64(0); p < 8192; p++ {
		tlb.Insert(p*addr.PageSize4K, 1<<40+p*addr.PageSize4K)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tlb.Lookup(uint64(i%8192) * addr.PageSize4K)
	}
}

func BenchmarkTLBInsertEvict(b *testing.B) {
	tlb := pagetable.NewTLB(1024, addr.PageSize4K)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tlb.Insert(uint64(i)*addr.PageSize4K, uint64(i))
	}
}

// BenchmarkTLBInvalidateRange: one uncached 2 MiB range on a full
// IOTLB, the pvdma block-eviction path.
func BenchmarkTLBInvalidateRange(b *testing.B) {
	tlb := pagetable.NewTLB(8192, addr.PageSize4K)
	for p := uint64(0); p < 8192; p++ {
		tlb.Insert(p*addr.PageSize4K, p*addr.PageSize4K)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tlb.InvalidateRange(1<<40+uint64(i%64)*addr.PageSize2M, addr.PageSize2M)
	}
}

func BenchmarkEngineEventChurn(b *testing.B) {
	eng := sim.NewEngine(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.After(time.Microsecond, func() {})
		eng.Step()
	}
}

// BenchmarkEngineBurst is the dense-bucket shape of the 4096-host fleet
// run: thousands of Posts per 512 ns wheel bucket, each carrying a
// record from an 8 MiB working set (larger than L2) in random order, so
// the callback's record is a cache miss as in a large fabric. ns/op is
// per event.
func BenchmarkEngineBurst(b *testing.B) {
	const perBucket = 4096
	type record struct {
		n uint64
		_ [56]byte
	}
	recs := make([]record, 1<<17)
	order := sim.NewRNG(1).Perm(len(recs))
	fn := func(a any) { a.(*record).n++ }
	eng := sim.NewEngine(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; {
		bucket := sim.Time((int64(eng.Now())/512 + 2) * 512)
		for j := 0; j < perBucket && i < b.N; j, i = j+1, i+1 {
			eng.Post(bucket+sim.Time(j%512), fn, &recs[order[i%len(order)]])
		}
		eng.RunAll()
	}
}

// BenchmarkSchedulerRTOWheel emulates a per-packet timer pattern:
// every "packet" arms an RTO 250 µs out and cancels it ~1 µs
// later when the "ack" arrives, with a standing population of armed
// timers — the cancel-heavy workload the timer wheel exists for.
func BenchmarkSchedulerRTOWheel(b *testing.B) {
	eng := sim.NewEngine(1)
	// Concurrently armed timers, like packets in flight. Each iteration
	// advances virtual time ~1 µs, so a timer is canceled well before
	// its 250 µs expiry — like an RTO on a healthy network.
	const window = 128
	ring := make([]*sim.Event, window)
	nop := func(any) {}
	cancelFn := func(a any) { ring[a.(int)].Cancel() }
	for i := 0; i < window; i++ {
		ring[i] = eng.AfterArg(250*time.Microsecond, nop, nil)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		slot := i % window
		eng.AfterArg(time.Microsecond, cancelFn, slot)
		eng.Step() // fires the ack, canceling one armed RTO...
		ring[slot] = eng.AfterArg(250*time.Microsecond, nop, nil)
	}
}

func BenchmarkSelectorOBS(b *testing.B) {
	s := multipath.New(multipath.OBS, 128, sim.NewRNG(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.NextPath()
	}
}

func BenchmarkSelectorDWRR(b *testing.B) {
	s := multipath.New(multipath.DWRR, 128, sim.NewRNG(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.NextPath()
	}
}

func BenchmarkRDMAWriteEMTTGDR(b *testing.B) {
	cfg := stellar.DefaultHostConfig()
	cfg.MemoryBytes = 16 << 30
	cfg.GPUMemoryBytes = 1 << 30
	cfg.NumRNICs, cfg.NumGPUs, cfg.NumSwitches = 1, 1, 1
	h, err := stellar.NewHost(cfg)
	if err != nil {
		b.Fatal(err)
	}
	r := h.RNICs[0]
	gmem, err := h.GPUs[0].AllocDeviceMemory(64 << 20)
	if err != nil {
		b.Fatal(err)
	}
	pd := r.AllocPD()
	va := addr.Range{Start: 0x100000000, Size: 64 << 20}
	mr, err := r.RegisterMR(pd, va, rnic.MTTEntry{Base: gmem.Start, Owner: addr.OwnerGPU, Translated: true})
	if err != nil {
		b.Fatal(err)
	}
	qp, err := r.CreateQP(pd)
	if err != nil {
		b.Fatal(err)
	}
	for _, st := range []rnic.QPState{rnic.QPInit, rnic.QPReadyToReceive, rnic.QPReadyToSend} {
		if err := r.ModifyQP(qp, st); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.RDMAWrite(qp, mr.Key, va.Start, 64<<10); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFabricPacketDelivery(b *testing.B) {
	eng := sim.NewEngine(1)
	f := fabric.New(eng, fabric.Config{
		Segments: 2, HostsPerSegment: 4, Aggs: 8,
		HostLinkBW: 50e9, FabricLinkBW: 50e9,
		LinkDelay: time.Microsecond, QueueLimit: 64 << 20, ECNThreshold: 32 << 20,
	})
	f.Handle(4, func(*fabric.Packet) {})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := f.Send(&fabric.Packet{Src: 0, Dst: 4, Size: 4096, PathID: i % 8, Seq: uint64(i)}); err != nil {
			b.Fatal(err)
		}
		eng.RunAll()
	}
}

func BenchmarkTransportThroughput(b *testing.B) {
	// End-to-end transport cost per delivered megabyte.
	eng := sim.NewEngine(1)
	f := fabric.New(eng, fabric.Config{
		Segments: 2, HostsPerSegment: 2, Aggs: 8,
		HostLinkBW: 50e9, FabricLinkBW: 50e9,
		LinkDelay: time.Microsecond, QueueLimit: 16 << 20, ECNThreshold: 512 << 10,
	})
	src := transport.NewEndpoint(f, 0, transport.Config{})
	dst := transport.NewEndpoint(f, 2, transport.Config{})
	c, err := transport.Connect(src, dst, 1, multipath.OBS, 64)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(1 << 20)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		done := false
		c.Send(1<<20, func(sim.Time) { done = true })
		eng.RunAll()
		if !done {
			b.Fatal("transfer incomplete")
		}
	}
}

func BenchmarkTransportRTOHeavy(b *testing.B) {
	// The worst case for the RTO path: a deep in-flight window keeps
	// hundreds of RTOs armed, loss makes some of them fire, and every
	// delivered packet detaches one — the workload §7.2's 250 µs RTO
	// imposes at cluster scale.
	eng := sim.NewEngine(1)
	f := fabric.New(eng, fabric.Config{
		Segments: 2, HostsPerSegment: 2, Aggs: 8,
		HostLinkBW: 50e9, FabricLinkBW: 50e9,
		LinkDelay: 10 * time.Microsecond, QueueLimit: 16 << 20, ECNThreshold: 4 << 20,
	})
	for a := 0; a < 8; a++ {
		if err := f.SetFault(fabric.Uplink(0, a), fabric.Fault{DropProb: 0.02}); err != nil {
			b.Fatal(err)
		}
	}
	src := transport.NewEndpoint(f, 0, transport.Config{MaxWindow: 8 << 20})
	dst := transport.NewEndpoint(f, 2, transport.Config{})
	c, err := transport.Connect(src, dst, 1, multipath.OBS, 64)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(4 << 20)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		done := false
		c.Send(4<<20, func(sim.Time) { done = true })
		eng.RunAll()
		if !done {
			b.Fatal("transfer incomplete")
		}
	}
}

func BenchmarkContainerBootPVDMA(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg := stellar.DefaultHostConfig()
		cfg.MemoryBytes = 256 << 30
		h, err := stellar.NewHost(cfg)
		if err != nil {
			b.Fatal(err)
		}
		ct, err := h.Hypervisor.CreateContainer(rund.DefaultConfig("bench", 64<<30))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := ct.Start(rund.PinOnDemand); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkVStellarDeviceCreate(b *testing.B) {
	cfg := stellar.DefaultHostConfig()
	cfg.MemoryBytes = 64 << 30
	cfg.GPUMemoryBytes = 1 << 30
	h, err := stellar.NewHost(cfg)
	if err != nil {
		b.Fatal(err)
	}
	ct, err := h.Hypervisor.CreateContainer(rund.DefaultConfig("bench", 8<<30))
	if err != nil {
		b.Fatal(err)
	}
	if _, err := ct.Start(rund.PinOnDemand); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d, err := h.CreateVStellar(ct, h.RNICs[i%len(h.RNICs)])
		if err != nil {
			b.Fatal(err)
		}
		d.Destroy()
	}
}
