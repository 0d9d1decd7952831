package main

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"repro/internal/addr"
	"repro/internal/collective"
	stellar "repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/iommu"
	"repro/internal/mem"
	"repro/internal/multipath"
	"repro/internal/pagetable"
	"repro/internal/pcie"
	"repro/internal/pvdma"
	"repro/internal/rnic"
	"repro/internal/rund"
	"repro/internal/sim"
	"repro/internal/transport"
)

// A probe times a tight loop of one layer's public calls in isolation.
// setup builds the layer's state and returns op, which performs n units
// of work. The probe runs one untimed warm-up batch, then a fixed
// number of timed batches of a fixed size, and reports the median
// batch's time per unit (scaled by perUnit: 1 for ns, 1e6 for ms).
// allocs, when set, names a second metric: heap allocations per unit
// over the timed batches.
type probe struct {
	metric  string
	allocs  string
	perUnit float64
	batch   int
	setup   func() (op func(n int) error, err error)
}

// probeBatches is the number of timed batches per probe.
const probeBatches = 7

// sink keeps probed results live so the compiler cannot drop the calls.
var sink int

func nopArg(any) {}

var probes = []probe{
	{metric: "sim.ns_per_event", perUnit: 1, batch: 200_000, setup: probeSimEvent},
	{metric: "sim.ns_per_rto_cycle", perUnit: 1, batch: 200_000, setup: probeSimRTO},
	{metric: "fabric.ns_per_packet", allocs: "fabric.allocs_per_packet", perUnit: 1, batch: 50_000, setup: probeFabricPacket},
	{metric: "fabric.ns_per_packet_fleet", perUnit: 1, batch: 20_000, setup: probeFabricFleet},
	{metric: "transport.ns_per_mib", allocs: "transport.allocs_per_mib", perUnit: 1, batch: 20, setup: probeTransport(0)},
	{metric: "transport.ns_per_mib_lossy", allocs: "transport.allocs_per_mib_lossy", perUnit: 1, batch: 10, setup: probeTransport(0.02)},
	{metric: "multipath.ns_per_pick_obs", perUnit: 1, batch: 1_000_000, setup: probePick(multipath.OBS)},
	{metric: "multipath.ns_per_pick_dwrr", perUnit: 1, batch: 1_000_000, setup: probePick(multipath.DWRR)},
	{metric: "collective.ms_per_allreduce", allocs: "collective.allocs_per_allreduce", perUnit: 1e6, batch: 8, setup: probeAllReduce},
	{metric: "pagetable.ns_per_tlb_lookup", perUnit: 1, batch: 1_000_000, setup: probeTLBLookup},
	{metric: "pagetable.ns_per_invalidate_page", perUnit: 1, batch: 512 * 1000, setup: probeInvalidate},
	{metric: "iommu.ns_per_map_unmap", perUnit: 1, batch: 50_000, setup: probeIOMMU},
	{metric: "pvdma.ns_per_mapdma_hit", perUnit: 1, batch: 200_000, setup: probeMapDMA(true)},
	{metric: "pvdma.ns_per_mapdma_miss", perUnit: 1, batch: 20_000, setup: probeMapDMA(false)},
	{metric: "rund.ns_per_boot", perUnit: 1, batch: 20_000, setup: probeBoot},
	{metric: "rnic.ns_per_rdma_write", perUnit: 1, batch: 100_000, setup: probeRDMAWrite},
}

// runProbes runs every probe and returns its metrics and one span per
// probe carrying the probe's iteration counts.
func runProbes() (map[string]float64, []span, error) {
	out := map[string]float64{}
	var spans []span
	for _, p := range probes {
		start := time.Now()
		op, err := p.setup()
		if err != nil {
			return nil, nil, fmt.Errorf("probe %s: %w", p.metric, err)
		}
		if err := op(p.batch); err != nil { // warm-up
			return nil, nil, fmt.Errorf("probe %s: %w", p.metric, err)
		}
		runtime.GC()
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		per := make([]float64, probeBatches)
		for i := range per {
			t := time.Now()
			if err := op(p.batch); err != nil {
				return nil, nil, fmt.Errorf("probe %s: %w", p.metric, err)
			}
			per[i] = float64(time.Since(t).Nanoseconds()) / float64(p.batch) / p.perUnit
		}
		runtime.ReadMemStats(&ms1)
		sort.Float64s(per)
		out[p.metric] = per[len(per)/2]
		args := map[string]any{"batch": p.batch, "batches": probeBatches, p.metric: out[p.metric]}
		if p.allocs != "" {
			out[p.allocs] = float64(ms1.Mallocs-ms0.Mallocs) / float64(p.batch*probeBatches)
			args[p.allocs] = out[p.allocs]
		}
		spans = append(spans, newSpan(p.metric, "probe", start, time.Now(), args))
	}
	return out, spans, nil
}

// probeSimEvent: schedule-and-fire one event with 4096 others pending.
func probeSimEvent() (func(int) error, error) {
	eng := sim.NewEngine(1)
	for i := 0; i < 4096; i++ {
		eng.AfterArg(time.Hour, nopArg, nil)
	}
	return func(n int) error {
		for i := 0; i < n; i++ {
			eng.AfterArg(time.Microsecond, nopArg, nil)
			eng.Step()
		}
		return nil
	}, nil
}

// probeSimRTO: the transport's timer pattern. Each cycle arms a 250 µs
// RTO and fires an "ack" 1 µs out that cancels an older armed RTO, with
// 128 RTOs standing.
func probeSimRTO() (func(int) error, error) {
	eng := sim.NewEngine(1)
	const window = 128
	ring := make([]*sim.Event, window)
	cancel := func(a any) { ring[a.(int)].Cancel() }
	for i := range ring {
		ring[i] = eng.AfterArg(250*time.Microsecond, nopArg, nil)
	}
	slot := 0
	return func(n int) error {
		for i := 0; i < n; i++ {
			eng.AfterArg(time.Microsecond, cancel, slot)
			eng.Step()
			ring[slot] = eng.AfterArg(250*time.Microsecond, nopArg, nil)
			slot = (slot + 1) % window
		}
		return nil
	}, nil
}

// probeBurst is how many packets the fabric probes inject before
// draining the engine, so the engine's per-Run entry cost is amortized
// the way a busy simulation amortizes it.
const probeBurst = 64

// probeFabricPacket: pooled 4 KiB packets ToR→Agg→ToR between the four
// hosts of one segment and the four of the other, sprayed over 8 aggs.
func probeFabricPacket() (func(int) error, error) {
	eng := sim.NewEngine(1)
	f := fabric.New(eng, fabricConfig(2, 4, 0, 8, 0))
	k := 0
	return func(n int) error {
		for i := 0; i < n; i++ {
			p := f.AllocPacket()
			p.Src, p.Dst, p.Size, p.PathID, p.Seq = fabric.HostID(k%4), fabric.HostID(4+k/4%4), 4096, k%8, uint64(k)
			k++
			if err := f.Send(p); err != nil {
				return err
			}
			if k%probeBurst == 0 {
				eng.RunAll()
			}
		}
		eng.RunAll()
		return nil
	}, nil
}

// probeFabricFleet: pooled 4 KiB packets between random host pairs of
// the 4096-host topology, so most hops touch cold link state.
func probeFabricFleet() (func(int) error, error) {
	eng := sim.NewEngine(1)
	f := fabric.New(eng, fabricConfig(32, 128, 8, 60, 16))
	rng := sim.NewRNG(1)
	pairs := make([][2]fabric.HostID, 1<<16)
	for i := range pairs {
		src := rng.Intn(f.NumHosts())
		dst := rng.Intn(f.NumHosts() - 1)
		if dst >= src {
			dst++
		}
		pairs[i] = [2]fabric.HostID{fabric.HostID(src), fabric.HostID(dst)}
	}
	k := 0
	return func(n int) error {
		for i := 0; i < n; i++ {
			pr := pairs[k%len(pairs)]
			p := f.AllocPacket()
			p.Src, p.Dst, p.Size, p.PathID, p.Seq = pr[0], pr[1], 4096, k%60, uint64(k)
			k++
			if err := f.Send(p); err != nil {
				return err
			}
			if k%probeBurst == 0 {
				eng.RunAll()
			}
		}
		eng.RunAll()
		return nil
	}, nil
}

// probeTransport: one 1 MiB message over OBS/64 on a 2×2-host fabric
// with a deep window (hundreds of RTOs armed), with loss as the drop
// probability on every ToR uplink of segment 0. The lossless and lossy
// probes differ only in loss, so their difference is the recovery cost.
func probeTransport(loss float64) func() (func(int) error, error) {
	return func() (func(int) error, error) {
		eng := sim.NewEngine(1)
		cfg := fabricConfig(2, 2, 0, 8, 0)
		cfg.LinkDelay = 10 * time.Microsecond
		cfg.ECNThreshold = 4 << 20
		f := fabric.New(eng, cfg)
		for a := 0; loss > 0 && a < cfg.Aggs; a++ {
			if err := f.SetFault(fabric.Uplink(0, a), fabric.Fault{DropProb: loss}); err != nil {
				return nil, err
			}
		}
		src := transport.NewEndpoint(f, 0, transport.Config{MaxWindow: 8 << 20})
		dst := transport.NewEndpoint(f, 2, transport.Config{})
		c, err := transport.Connect(src, dst, 1, multipath.OBS, 64)
		if err != nil {
			return nil, err
		}
		return func(n int) error {
			for i := 0; i < n; i++ {
				done := false
				c.Send(1<<20, func(sim.Time) { done = true })
				eng.RunAll()
				if !done {
					return fmt.Errorf("transfer incomplete")
				}
			}
			return nil
		}, nil
	}
}

// probePick: one path pick from a 128-path selector; DWRR also takes
// the per-ack feedback that drives its weights.
func probePick(alg multipath.Algorithm) func() (func(int) error, error) {
	return func() (func(int) error, error) {
		s := multipath.New(alg, 128, sim.NewRNG(1))
		feedback := alg == multipath.DWRR
		return func(n int) error {
			for i := 0; i < n; i++ {
				p := s.NextPath()
				if feedback {
					s.Feedback(p, sim.Duration(8000+p), i%16 == 0, false)
				}
				sink += p
			}
			return nil
		}, nil
	}
}

// probeAllReduce: one 1 MiB ring all-reduce across 8 ranks.
func probeAllReduce() (func(int) error, error) {
	se, _, eps := cluster(1, fabricConfig(2, 4, 0, 16, 0))
	eng := se.Shard(0)
	ring, err := collective.NewRing(eps, 1, multipath.OBS, 32)
	if err != nil {
		return nil, err
	}
	return func(n int) error {
		for i := 0; i < n; i++ {
			done := false
			ring.Reduce(eng, 1<<20, func(collective.Result) { done = true })
			eng.RunAll()
			if !done {
				return fmt.Errorf("all-reduce incomplete")
			}
		}
		return nil
	}, nil
}

// probeTLBLookup: hits in a full 8192-entry IOTLB.
func probeTLBLookup() (func(int) error, error) {
	tlb := pagetable.NewTLB(8192, addr.PageSize4K)
	for p := uint64(0); p < 8192; p++ {
		tlb.Insert(p*addr.PageSize4K, 1<<40+p*addr.PageSize4K)
	}
	k := uint64(0)
	return func(n int) error {
		for i := 0; i < n; i++ {
			d, _ := tlb.Lookup((k % 8192) * addr.PageSize4K)
			sink += int(d)
			k += 7
		}
		return nil
	}, nil
}

// probeInvalidate: InvalidateRange over one uncached 2 MiB block on a
// full IOTLB — the pvdma evict path. One unit is one 4 KiB page.
func probeInvalidate() (func(int) error, error) {
	tlb := pagetable.NewTLB(8192, addr.PageSize4K)
	for p := uint64(0); p < 8192; p++ {
		tlb.Insert(p*addr.PageSize4K, p*addr.PageSize4K)
	}
	const pages = addr.PageSize2M / addr.PageSize4K
	return func(n int) error {
		for i := 0; i < n; i += pages {
			tlb.InvalidateRange(1<<40+uint64(i/pages%64)*addr.PageSize2M, addr.PageSize2M)
		}
		return nil
	}, nil
}

// probeIOMMU: install and remove one 2 MiB mapping among 1024 live ones.
func probeIOMMU() (func(int) error, error) {
	u, err := iommu.New(iommu.DefaultConfig())
	if err != nil {
		return nil, err
	}
	for i := uint64(0); i < 1024; i++ {
		if _, err := u.Map(addr.NewDARange(addr.DA(i*2*addr.PageSize2M), addr.PageSize2M), addr.HPA(i*addr.PageSize2M)); err != nil {
			return nil, err
		}
	}
	k := uint64(0)
	return func(n int) error {
		for i := 0; i < n; i++ {
			da := addr.DA((k%1024)*2*addr.PageSize2M + addr.PageSize2M)
			k++
			if _, err := u.Map(addr.NewDARange(da, addr.PageSize2M), addr.HPA(1<<40)); err != nil {
				return err
			}
			if err := u.Unmap(da); err != nil {
				return err
			}
		}
		return nil
	}, nil
}

// newHypervisor builds one host's runtime as churn does: NoPT IOMMU
// with ATS, host memory and a PCIe complex.
func newHypervisor(memBytes uint64) (*rund.Hypervisor, error) {
	u, err := iommu.New(iommu.Config{Mode: iommu.ModeNoPT, ATSEnabled: true})
	if err != nil {
		return nil, err
	}
	return rund.NewHypervisor(pcie.NewComplex(pcie.Config{}, u, mem.New(mem.Config{TotalBytes: memBytes}))), nil
}

// probeMapDMA: a 4 KiB MapDMA of a block already in the Map Cache
// (hit), or of an uncached block followed by its ReleaseDMA, which
// registers, pins, then evicts it (miss).
func probeMapDMA(hit bool) func() (func(int) error, error) {
	return func() (func(int) error, error) {
		hyp, err := newHypervisor(64 << 30)
		if err != nil {
			return nil, err
		}
		ct, err := hyp.CreateContainer(rund.DefaultConfig("probe", 8<<30))
		if err != nil {
			return nil, err
		}
		if _, err := ct.Start(rund.PinOnDemand); err != nil {
			return nil, err
		}
		m := pvdma.New(ct, pvdma.DefaultConfig())
		base := addr.GPA(addr.PageSize2M)
		k := uint64(0)
		return func(n int) error {
			for i := 0; i < n; i++ {
				if hit {
					if _, err := m.MapDMA(base, addr.PageSize4K); err != nil {
						return err
					}
					continue
				}
				gpa := base + addr.GPA((k%1024)*addr.PageSize2M)
				k++
				if _, err := m.MapDMA(gpa, addr.PageSize4K); err != nil {
					return err
				}
				if err := m.ReleaseDMA(gpa, addr.PageSize4K); err != nil {
					return err
				}
			}
			return nil
		}, nil
	}
}

// probeBoot: create, PinOnDemand-start and stop a 64 GiB container.
func probeBoot() (func(int) error, error) {
	hyp, err := newHypervisor(256 << 30)
	if err != nil {
		return nil, err
	}
	k := 0
	return func(n int) error {
		for i := 0; i < n; i++ {
			ct, err := hyp.CreateContainer(rund.DefaultConfig(fmt.Sprintf("probe-%d", k), 64<<30))
			k++
			if err != nil {
				return err
			}
			if _, err := ct.Start(rund.PinOnDemand); err != nil {
				return err
			}
			if err := ct.Stop(); err != nil {
				return err
			}
		}
		return nil
	}, nil
}

// probeRDMAWrite: one 64 KiB RDMA write into GPU memory through an
// eMTT-translated MR (GDR without ATS).
func probeRDMAWrite() (func(int) error, error) {
	cfg := stellar.DefaultHostConfig()
	cfg.MemoryBytes = 16 << 30
	cfg.GPUMemoryBytes = 1 << 30
	cfg.NumRNICs, cfg.NumGPUs, cfg.NumSwitches = 1, 1, 1
	h, err := stellar.NewHost(cfg)
	if err != nil {
		return nil, err
	}
	r := h.RNICs[0]
	gmem, err := h.GPUs[0].AllocDeviceMemory(64 << 20)
	if err != nil {
		return nil, err
	}
	pd := r.AllocPD()
	va := addr.Range{Start: 0x100000000, Size: 64 << 20}
	mr, err := r.RegisterMR(pd, va, rnic.MTTEntry{Base: gmem.Start, Owner: addr.OwnerGPU, Translated: true})
	if err != nil {
		return nil, err
	}
	qp, err := r.CreateQP(pd)
	if err != nil {
		return nil, err
	}
	for _, st := range []rnic.QPState{rnic.QPInit, rnic.QPReadyToReceive, rnic.QPReadyToSend} {
		if err := r.ModifyQP(qp, st); err != nil {
			return nil, err
		}
	}
	return func(n int) error {
		for i := 0; i < n; i++ {
			if _, err := r.RDMAWrite(qp, mr.Key, va.Start+uint64(i%1024)*(64<<10), 64<<10); err != nil {
				return err
			}
		}
		return nil
	}, nil
}
