package rnic

import (
	"errors"
	"testing"

	"repro/internal/addr"
	"repro/internal/gpu"
	"repro/internal/iommu"
	"repro/internal/mem"
	"repro/internal/pcie"
)

// host bundles one simulated server: fabric, switch, RNIC, GPU, memory.
type host struct {
	complex *pcie.Complex
	sw      *pcie.Switch
	rnic    *RNIC
	gpu     *gpu.GPU
	mem     *mem.Memory
}

func newHost(t *testing.T, cfg Config) *host {
	t.Helper()
	u, err := iommu.New(iommu.Config{Mode: iommu.ModeNoPT, ATSEnabled: true})
	if err != nil {
		t.Fatal(err)
	}
	m := mem.New(mem.Config{TotalBytes: 256 << 30})
	c := pcie.NewComplex(pcie.Config{}, u, m)
	sw := c.AddSwitch("sw0")
	if cfg.Name == "" {
		cfg = DefaultConfig("rnic0")
	}
	r, err := New(c, sw, cfg)
	if err != nil {
		t.Fatal(err)
	}
	g, err := gpu.New(c, sw, "gpu0", 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	return &host{complex: c, sw: sw, rnic: r, gpu: g, mem: m}
}

func TestVFStaticReconfiguration(t *testing.T) {
	// Problem ①: non-zero -> non-zero VF transitions need a full reset.
	h := newHost(t, Config{})
	if err := h.rnic.SetNumVFs(2); err != nil {
		t.Fatal(err)
	}
	if len(h.rnic.VFs()) != 2 {
		t.Fatalf("VFs = %d", len(h.rnic.VFs()))
	}
	if err := h.rnic.SetNumVFs(3); !errors.Is(err, ErrVFReconfig) {
		t.Errorf("2->3 err = %v, want ErrVFReconfig", err)
	}
	if err := h.rnic.SetNumVFs(2); err != nil {
		t.Errorf("idempotent SetNumVFs err = %v", err)
	}
	h.rnic.Reset()
	if err := h.rnic.SetNumVFs(3); err != nil {
		t.Errorf("post-reset SetNumVFs err = %v", err)
	}
	if err := h.rnic.SetNumVFs(0); err != nil {
		t.Errorf("SetNumVFs(0) err = %v", err)
	}
	if len(h.rnic.VFs()) != 0 {
		t.Error("VFs not destroyed")
	}
}

func TestVFMemoryFootprint(t *testing.T) {
	// Each VF claims ~2.4 GB; overprovisioning exhausts host memory.
	u, _ := iommu.New(iommu.Config{})
	m := mem.New(mem.Config{TotalBytes: 8 << 30})
	c := pcie.NewComplex(pcie.Config{}, u, m)
	sw := c.AddSwitch("sw0")
	r, err := New(c, sw, DefaultConfig("rnic0"))
	if err != nil {
		t.Fatal(err)
	}
	if err := r.SetNumVFs(8); !errors.Is(err, ErrVFMemory) {
		t.Errorf("err = %v, want ErrVFMemory (8 VFs need ~19 GB)", err)
	}
	if err := r.SetNumVFs(2); err != nil {
		t.Errorf("2 VFs in 8 GB err = %v", err)
	}
	if m.UsedBytes() < 4_800<<20 {
		t.Errorf("VF queue memory not charged: used = %d MiB", m.UsedBytes()>>20)
	}
}

func TestVFRangeValidation(t *testing.T) {
	h := newHost(t, Config{})
	if err := h.rnic.SetNumVFs(-1); err == nil {
		t.Error("negative VF count accepted")
	}
	if err := h.rnic.SetNumVFs(maxVFs + 1); err == nil {
		t.Error("over-max VF count accepted")
	}
}

func TestVFGDRConsumesLUT(t *testing.T) {
	h := newHost(t, Config{})
	if err := h.rnic.SetNumVFs(4); err != nil {
		t.Fatal(err)
	}
	before := h.sw.LUTLen()
	if err := h.rnic.VFs()[0].EnableGDR(); err != nil {
		t.Fatal(err)
	}
	if h.sw.LUTLen() != before+1 {
		t.Error("EnableGDR did not claim a LUT entry")
	}
}

func TestSFsAreDynamicAndFree(t *testing.T) {
	h := newHost(t, Config{})
	used := h.mem.UsedBytes()
	lut := h.sw.LUTLen()
	var sfs []*SF
	for i := 0; i < 200; i++ {
		sfs = append(sfs, h.rnic.CreateSF())
	}
	if h.rnic.NumSFs() != 200 {
		t.Fatalf("NumSFs = %d", h.rnic.NumSFs())
	}
	if h.mem.UsedBytes() != used {
		t.Error("SFs consumed host memory")
	}
	if h.sw.LUTLen() != lut {
		t.Error("SFs consumed LUT entries")
	}
	for _, sf := range sfs[:100] {
		h.rnic.DestroySF(sf)
	}
	if h.rnic.NumSFs() != 100 {
		t.Errorf("NumSFs after destroy = %d", h.rnic.NumSFs())
	}
}

func TestDoorbellAllocation(t *testing.T) {
	h := newHost(t, Config{})
	a, err := h.rnic.AllocDoorbell()
	if err != nil {
		t.Fatal(err)
	}
	b, err := h.rnic.AllocDoorbell()
	if err != nil {
		t.Fatal(err)
	}
	if a.Overlaps(b.Range) {
		t.Error("doorbell pages overlap")
	}
	if !h.rnic.DoorbellWindow().ContainsRange(a.Range) {
		t.Error("doorbell outside BAR")
	}
	h.rnic.FreeDoorbell(a)
	c, err := h.rnic.AllocDoorbell()
	if err != nil {
		t.Fatal(err)
	}
	if c.Start != a.Start {
		t.Error("freed doorbell not reused")
	}
}

func TestDoorbellCapacity64Ki(t *testing.T) {
	// §4: Stellar supports up to 64k virtual devices — one doorbell
	// page each.
	h := newHost(t, Config{})
	for i := 0; i < 64<<10; i++ {
		if _, err := h.rnic.AllocDoorbell(); err != nil {
			t.Fatalf("doorbell %d: %v", i, err)
		}
	}
	if _, err := h.rnic.AllocDoorbell(); !errors.Is(err, ErrDoorbellSpace) {
		t.Errorf("64Ki+1 err = %v", err)
	}
}

func TestPDIsolation(t *testing.T) {
	// §9: cross-PD access must be rejected by hardware.
	h := newHost(t, Config{})
	pd1 := h.rnic.AllocPD()
	pd2 := h.rnic.AllocPD()
	buf, _ := h.mem.Allocate(addr.PageSize2M, "buf")
	const da = 0x100000000
	h.complex.IOMMU().Map(addr.NewDARange(da, addr.PageSize2M), addr.HPA(buf.HPA.Start))
	mr, err := h.rnic.RegisterMR(pd1, addr.Range{Start: 0x7f0000000000, Size: addr.PageSize2M},
		MTTEntry{Base: da, Owner: addr.OwnerHostMemory})
	if err != nil {
		t.Fatal(err)
	}
	qp, err := h.rnic.CreateQP(pd2)
	if err != nil {
		t.Fatal(err)
	}
	mustRTS(t, h.rnic, qp)
	_, err = h.rnic.RDMAWrite(qp, mr.Key, mr.VA.Start, 4096)
	if !errors.Is(err, ErrPDViolation) {
		t.Errorf("cross-PD write err = %v, want ErrPDViolation", err)
	}
}

func mustRTS(t *testing.T, r *RNIC, qp *QP) {
	t.Helper()
	for _, s := range []QPState{QPInit, QPReadyToReceive, QPReadyToSend} {
		if err := r.ModifyQP(qp, s); err != nil {
			t.Fatal(err)
		}
	}
}

func TestQPStateMachine(t *testing.T) {
	h := newHost(t, Config{})
	pd := h.rnic.AllocPD()
	qp, err := h.rnic.CreateQP(pd)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.rnic.ModifyQP(qp, QPReadyToSend); !errors.Is(err, ErrQPState) {
		t.Errorf("RESET->RTS err = %v", err)
	}
	mustRTS(t, h.rnic, qp)
	if qp.State != QPReadyToSend {
		t.Errorf("state = %v", qp.State)
	}
	if err := h.rnic.ModifyQP(qp, QPError); err != nil {
		t.Errorf("->ERR err = %v", err)
	}
	if _, err := h.rnic.CreateQP(PD(999)); err == nil {
		t.Error("CreateQP in bogus PD accepted")
	}
	h.rnic.DestroyQP(qp)
	if len(h.rnic.qps) != 0 {
		t.Error("DestroyQP")
	}
}

func TestWriteRequiresReadyQP(t *testing.T) {
	h := newHost(t, Config{})
	pd := h.rnic.AllocPD()
	qp, _ := h.rnic.CreateQP(pd)
	mr, _ := h.rnic.RegisterMR(pd, addr.Range{Start: 0x1000, Size: addr.PageSize4K},
		MTTEntry{Base: 0x1000, Owner: addr.OwnerHostMemory})
	if _, err := h.rnic.RDMAWrite(qp, mr.Key, 0x1000, 64); !errors.Is(err, ErrQPState) {
		t.Errorf("write on RESET QP err = %v", err)
	}
}

func TestMTTCapacity(t *testing.T) {
	h := newHost(t, Config{})
	pd := h.rnic.AllocPD()
	if _, err := h.rnic.RegisterMR(pd, addr.Range{Start: 0, Size: mttCapacityPages * addr.PageSize4K},
		MTTEntry{Base: 0, Owner: addr.OwnerHostMemory}); err != nil {
		t.Fatal(err)
	}
	if _, err := h.rnic.RegisterMR(pd, addr.Range{Start: 1 << 30, Size: addr.PageSize4K},
		MTTEntry{Base: 0, Owner: addr.OwnerHostMemory}); !errors.Is(err, ErrMTTFull) {
		t.Errorf("over-capacity register err = %v", err)
	}
}

func TestDeregisterReleasesMTT(t *testing.T) {
	h := newHost(t, Config{})
	pd := h.rnic.AllocPD()
	mr, _ := h.rnic.RegisterMR(pd, addr.Range{Start: 0, Size: 64 * addr.PageSize4K},
		MTTEntry{Base: 0, Owner: addr.OwnerHostMemory})
	if h.rnic.MTTPagesUsed() != 64 {
		t.Errorf("MTTPagesUsed = %d", h.rnic.MTTPagesUsed())
	}
	if err := h.rnic.DeregisterMR(mr); err != nil {
		t.Fatal(err)
	}
	if h.rnic.MTTPagesUsed() != 0 {
		t.Errorf("MTTPagesUsed after dereg = %d", h.rnic.MTTPagesUsed())
	}
	if err := h.rnic.DeregisterMR(mr); !errors.Is(err, ErrBadKey) {
		t.Errorf("double dereg err = %v", err)
	}
	if _, ok := h.rnic.mtt[mr.Key]; ok {
		t.Error("MTT still holds the deregistered key")
	}
}

func TestEMTTRequiredForTranslatedEntries(t *testing.T) {
	h := newHost(t, ConfigCX6("cx6"))
	pd := h.rnic.AllocPD()
	_, err := h.rnic.RegisterMR(pd, addr.Range{Start: 0, Size: addr.PageSize4K},
		MTTEntry{Base: 0xF000, Owner: addr.OwnerGPU, Translated: true})
	if err == nil {
		t.Error("translated entry accepted on non-eMTT RNIC")
	}
}

func TestGDRWriteEMTTDirectPath(t *testing.T) {
	// Figure 7 GDR flow: eMTT entry carries the final GPU HPA; the TLP
	// goes AT=translated and must route p2p-direct.
	h := newHost(t, Config{})
	h.sw.RegisterGDR(h.rnic.PF().BDF())
	gmem, err := h.gpu.AllocDeviceMemory(16 << 20)
	if err != nil {
		t.Fatal(err)
	}
	pd := h.rnic.AllocPD()
	va := addr.Range{Start: 0x20000, Size: 16 << 20}
	mr, err := h.rnic.RegisterMR(pd, va, MTTEntry{Base: gmem.Start, Owner: addr.OwnerGPU, Translated: true})
	if err != nil {
		t.Fatal(err)
	}
	qp, _ := h.rnic.CreateQP(pd)
	mustRTS(t, h.rnic, qp)
	res, err := h.rnic.RDMAWrite(qp, mr.Key, va.Start+0x1000, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if res.Route != pcie.RouteP2PDirect {
		t.Errorf("Route = %v, want p2p-direct", res.Route)
	}
	if res.ATCMisses != 0 || h.rnic.ATSTranslations() != 0 {
		t.Error("eMTT path consulted ATS/ATC")
	}
}

func TestRDMAWriteEMTTHostMemory(t *testing.T) {
	// Figure 7 RDMA flow: host-memory targets go out untranslated and
	// let the IOMMU translate at the RC.
	h := newHost(t, Config{})
	buf, _ := h.mem.Allocate(addr.PageSize2M, "dst")
	const da = 0x200000000
	h.complex.IOMMU().Map(addr.NewDARange(da, addr.PageSize2M), addr.HPA(buf.HPA.Start))
	pd := h.rnic.AllocPD()
	va := addr.Range{Start: 0x30000000, Size: addr.PageSize2M}
	mr, _ := h.rnic.RegisterMR(pd, va, MTTEntry{Base: da, Owner: addr.OwnerHostMemory})
	qp, _ := h.rnic.CreateQP(pd)
	mustRTS(t, h.rnic, qp)
	res, err := h.rnic.RDMAWrite(qp, mr.Key, va.Start, 64<<10)
	if err != nil {
		t.Fatal(err)
	}
	if res.Route != pcie.RouteToMemory {
		t.Errorf("Route = %v, want memory", res.Route)
	}
	if h.rnic.ATSTranslations() != 0 {
		t.Error("eMTT host path used ATS")
	}
}

func TestGDRWriteATSModeUsesATC(t *testing.T) {
	// The CX6 path: per-page ATS translation, cached in the ATC.
	h := newHost(t, ConfigCX6("cx6"))
	h.sw.RegisterGDR(h.rnic.PF().BDF())
	gmem, _ := h.gpu.AllocDeviceMemory(1 << 20)
	const da = 0x300000000
	h.complex.IOMMU().Map(addr.NewDARange(da, 1<<20), addr.HPA(gmem.Start))
	pd := h.rnic.AllocPD()
	va := addr.Range{Start: 0x40000000, Size: 1 << 20}
	mr, _ := h.rnic.RegisterMR(pd, va, MTTEntry{Base: da, Owner: addr.OwnerGPU})
	qp, _ := h.rnic.CreateQP(pd)
	mustRTS(t, h.rnic, qp)

	res1, err := h.rnic.RDMAWrite(qp, mr.Key, va.Start, 64<<10)
	if err != nil {
		t.Fatal(err)
	}
	wantPages := uint64(64 << 10 / addr.PageSize4K)
	if res1.Pages != wantPages || res1.ATCMisses != wantPages {
		t.Errorf("first write pages=%d misses=%d, want %d cold misses", res1.Pages, res1.ATCMisses, wantPages)
	}
	if res1.Route != pcie.RouteP2PDirect {
		t.Errorf("Route = %v", res1.Route)
	}
	// Second write to the same pages: warm ATC, cheaper.
	res2, err := h.rnic.RDMAWrite(qp, mr.Key, va.Start, 64<<10)
	if err != nil {
		t.Fatal(err)
	}
	if res2.ATCHits != wantPages || res2.ATCMisses != 0 {
		t.Errorf("warm write hits=%d misses=%d", res2.ATCHits, res2.ATCMisses)
	}
	if res2.Latency >= res1.Latency {
		t.Errorf("warm write (%v) not faster than cold (%v)", res2.Latency, res1.Latency)
	}
}

func TestATCOverflowDegradesLatency(t *testing.T) {
	// Figure 8's mechanism: a working set beyond the ATC thrashes and
	// every write pays ATS round trips again.
	cfg := ConfigCX6("cx6")
	cfg.ATCCapacityPages = 64
	h := newHost(t, cfg)
	h.sw.RegisterGDR(h.rnic.PF().BDF())
	gmem, _ := h.gpu.AllocDeviceMemory(4 << 20)
	const da = 0x400000000
	h.complex.IOMMU().Map(addr.NewDARange(da, 4<<20), addr.HPA(gmem.Start))
	pd := h.rnic.AllocPD()
	va := addr.Range{Start: 0x50000000, Size: 4 << 20}
	mr, _ := h.rnic.RegisterMR(pd, va, MTTEntry{Base: da, Owner: addr.OwnerGPU})
	qp, _ := h.rnic.CreateQP(pd)
	mustRTS(t, h.rnic, qp)

	// Working set: 256 pages (1 MiB) against a 64-page ATC, scanned
	// sequentially twice. LRU guarantees zero hits on the second pass.
	for pass := 0; pass < 2; pass++ {
		for off := uint64(0); off < 1<<20; off += addr.PageSize4K {
			if _, err := h.rnic.RDMAWrite(qp, mr.Key, va.Start+off, addr.PageSize4K); err != nil {
				t.Fatal(err)
			}
		}
	}
	if h.rnic.ATC().Hits() != 0 {
		t.Errorf("thrash scan got %d ATC hits, want 0", h.rnic.ATC().Hits())
	}
	if h.rnic.ATSTranslations() != 512 {
		t.Errorf("ATSTranslations = %d, want 512", h.rnic.ATSTranslations())
	}
}

func TestWriteOutOfRange(t *testing.T) {
	h := newHost(t, Config{})
	pd := h.rnic.AllocPD()
	va := addr.Range{Start: 0x1000, Size: addr.PageSize4K}
	mr, _ := h.rnic.RegisterMR(pd, va, MTTEntry{Base: 0x1000, Owner: addr.OwnerHostMemory})
	qp, _ := h.rnic.CreateQP(pd)
	mustRTS(t, h.rnic, qp)
	if _, err := h.rnic.RDMAWrite(qp, mr.Key, va.Start, 2*addr.PageSize4K); !errors.Is(err, ErrVAOutOfRange) {
		t.Errorf("oversize err = %v", err)
	}
	if _, err := h.rnic.RDMAWrite(qp, 9999, va.Start, 64); !errors.Is(err, ErrBadKey) {
		t.Errorf("bad key err = %v", err)
	}
}

// TestNewKeepsCallerConfig: New fills only the fields a caller left
// zero. A partially set config comes back with every set field intact
// (it used to be replaced wholesale by the defaults), and the defaulted
// ATC translates at page granularity.
func TestNewKeepsCallerConfig(t *testing.T) {
	for _, tc := range []struct {
		in, want Config
	}{
		{
			Config{Name: "cx", PortBandwidth: 12.5e9, ATCCapacityPages: 4096},
			Config{Name: "cx", PortBandwidth: 12.5e9, ATCCapacityPages: 4096},
		},
		{
			Config{Name: "cy", EMTT: true},
			Config{Name: "cy", PortBandwidth: 25e9, ATCCapacityPages: 8192, EMTT: true},
		},
	} {
		h := newHost(t, tc.in)
		if got := h.rnic.cfg; got != tc.want {
			t.Errorf("New(%+v) kept %+v, want %+v", tc.in, got, tc.want)
		}
		pd := h.rnic.AllocPD()
		if _, err := h.rnic.RegisterMR(pd, addr.Range{Start: 0, Size: addr.PageSize2M},
			MTTEntry{Base: 0, Owner: addr.OwnerHostMemory}); err != nil {
			t.Errorf("%s: RegisterMR: %v", tc.in.Name, err)
		}
		h.rnic.atc.Insert(0x1000, 0xA000)
		h.rnic.atc.Insert(0x2000, 0xB000)
		if hpa, ok := h.rnic.atc.Lookup(0x1008); !ok || hpa != 0xA008 {
			t.Errorf("%s: ATC Lookup(0x1008) = %#x,%v, want 0xa008", tc.in.Name, hpa, ok)
		}
		if _, ok := h.rnic.atc.Lookup(0x5000); ok {
			t.Errorf("%s: ATC hit on an uncached page", tc.in.Name)
		}
	}
}
