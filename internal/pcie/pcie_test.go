package pcie

import (
	"errors"
	"testing"

	"repro/internal/addr"
	"repro/internal/iommu"
	"repro/internal/mem"
)

// testFabric builds a complex with one switch holding an RNIC-like and a
// GPU-like endpoint, plus main memory and a nopt IOMMU.
func testFabric(t *testing.T, cfg Config) (*Complex, *Switch, *Endpoint, *Endpoint, *mem.Region) {
	t.Helper()
	u, err := iommu.New(iommu.Config{Mode: iommu.ModeNoPT, ATSEnabled: true})
	if err != nil {
		t.Fatal(err)
	}
	m := mem.New(mem.Config{TotalBytes: 1 << 30})
	c := NewComplex(cfg, u, m)
	sw := c.AddSwitch("sw0")
	rnic, err := sw.AttachEndpoint("rnic0")
	if err != nil {
		t.Fatal(err)
	}
	gpu, err := sw.AttachEndpoint("gpu0")
	if err != nil {
		t.Fatal(err)
	}
	if err := gpu.AddBAR(BAR{Window: c.AllocBARWindow(1 << 20), Owner: addr.OwnerGPU, Name: "gpu0-mem"}); err != nil {
		t.Fatal(err)
	}
	hostRegion, err := m.Allocate(1<<20, "host-buf")
	if err != nil {
		t.Fatal(err)
	}
	return c, sw, rnic, gpu, hostRegion
}

func TestBDFAllocationUnique(t *testing.T) {
	c := NewComplex(Config{}, nil, nil)
	sw := c.AddSwitch("sw0")
	seen := make(map[BDF]bool)
	for i := 0; i < 100; i++ {
		ep, err := sw.AttachEndpoint("ep")
		if err != nil {
			t.Fatal(err)
		}
		if seen[ep.BDF()] {
			t.Fatalf("duplicate BDF %v", ep.BDF())
		}
		seen[ep.BDF()] = true
	}
	sw2 := c.AddSwitch("sw1")
	ep2, _ := sw2.AttachEndpoint("other")
	if seen[ep2.BDF()] {
		t.Error("BDF reused across switches")
	}
}

func TestMakeBDFString(t *testing.T) {
	b := MakeBDF(3, 4, 5)
	if b.String() != "03:04.5" {
		t.Errorf("String = %q", b.String())
	}
}

func TestLUTCapacityLimit(t *testing.T) {
	// Problem ③: the affected server's switch holds 32 BDFs.
	c := NewComplex(Config{}, nil, nil)
	sw := c.AddSwitch("sw0")
	for i := 0; i < 32; i++ {
		ep, err := sw.AttachEndpoint("vf")
		if err != nil {
			t.Fatal(err)
		}
		if err := sw.RegisterGDR(ep.BDF()); err != nil {
			t.Fatalf("register %d: %v", i, err)
		}
	}
	ep33, _ := sw.AttachEndpoint("vf33")
	if err := sw.RegisterGDR(ep33.BDF()); !errors.Is(err, ErrLUTFull) {
		t.Errorf("33rd registration err = %v, want ErrLUTFull", err)
	}
	// Re-registering an existing BDF is idempotent, not a new slot.
	if err := sw.RegisterGDR(MakeBDF(1, 0, 0)); err != nil {
		t.Errorf("idempotent re-register err = %v", err)
	}
	if sw.LUTLen() != 32 {
		t.Errorf("LUTLen after re-register = %d, want 32", sw.LUTLen())
	}
	sw.UnregisterGDR(ep33.BDF())
	if sw.LUTLen() != 32 {
		t.Errorf("LUTLen = %d", sw.LUTLen())
	}
}

func TestDMATranslatedDirectP2P(t *testing.T) {
	c, sw, rnic, gpu, _ := testFabric(t, Config{})
	if err := sw.RegisterGDR(rnic.BDF()); err != nil {
		t.Fatal(err)
	}
	target := gpu.BARs()[0].Window.Start + 0x100
	d, err := c.DMA(TLP{Source: rnic, Addr: target, Size: 4096, AT: ATTranslated, Write: true})
	if err != nil {
		t.Fatal(err)
	}
	if d.Route != RouteP2PDirect {
		t.Errorf("Route = %v, want p2p-direct", d.Route)
	}
	if d.Target != gpu {
		t.Errorf("Target = %v", d.Target)
	}
	if c.RouteCount(RouteP2PDirect) != 1 || c.RouteBytes(RouteP2PDirect) != 4096 {
		t.Error("route counters not updated")
	}
	if c.IOMMU().Walks() != 0 {
		t.Error("direct P2P must not touch the IOMMU")
	}
}

func TestDMATranslatedRequiresLUT(t *testing.T) {
	c, _, rnic, gpu, _ := testFabric(t, Config{})
	target := gpu.BARs()[0].Window.Start
	_, err := c.DMA(TLP{Source: rnic, Addr: target, Size: 64, AT: ATTranslated})
	if !errors.Is(err, ErrNotRegistered) {
		t.Errorf("err = %v, want ErrNotRegistered", err)
	}
}

func TestDMATranslatedRequiresACSDT(t *testing.T) {
	c, sw, rnic, gpu, _ := testFabric(t, Config{DisableACSDT: true})
	sw.RegisterGDR(rnic.BDF())
	target := gpu.BARs()[0].Window.Start
	if _, err := c.DMA(TLP{Source: rnic, Addr: target, Size: 64, AT: ATTranslated}); err == nil {
		t.Error("AT=translated with ACS DT off should fail")
	}
}

func TestDMAUntranslatedToMemory(t *testing.T) {
	c, _, rnic, _, host := testFabric(t, Config{})
	const da = 0x70000000
	if _, err := c.IOMMU().Map(addr.NewDARange(da, addr.PageSize4K), addr.HPA(host.HPA.Start)); err != nil {
		t.Fatal(err)
	}
	d, err := c.DMA(TLP{Source: rnic, Addr: da + 0x10, Size: 1024, AT: ATUntranslated, Write: true})
	if err != nil {
		t.Fatal(err)
	}
	if d.Route != RouteToMemory {
		t.Errorf("Route = %v", d.Route)
	}
	if d.HPA != addr.HPA(host.HPA.Start+0x10) {
		t.Errorf("HPA = %v", d.HPA)
	}
}

func TestDMAUntranslatedToGPUGoesViaRC(t *testing.T) {
	// The HyV/MasQ GDR path: GPU memory reached through the RC.
	c, _, rnic, gpu, _ := testFabric(t, Config{})
	gpuHPA := gpu.BARs()[0].Window.Start + 0x40
	const da = 0x80000000
	if _, err := c.IOMMU().Map(addr.NewDARange(da, addr.PageSize4K), addr.HPA(addr.AlignDown(gpuHPA, addr.PageSize4K))); err != nil {
		t.Fatal(err)
	}
	d, err := c.DMA(TLP{Source: rnic, Addr: da + 0x40, Size: 1 << 20, AT: ATUntranslated, Write: true})
	if err != nil {
		t.Fatal(err)
	}
	if d.Route != RouteViaRC {
		t.Errorf("Route = %v, want via-rc", d.Route)
	}
	if d.Target != gpu {
		t.Error("wrong target")
	}
}

func TestRCDetourSlowerThanDirect(t *testing.T) {
	// Figure 14's mechanism: same payload, direct P2P must be much
	// faster than the RC detour.
	c, sw, rnic, gpu, _ := testFabric(t, Config{})
	sw.RegisterGDR(rnic.BDF())
	gpuHPA := gpu.BARs()[0].Window.Start
	const da = 0x90000000
	c.IOMMU().Map(addr.NewDARange(da, addr.PageSize2M), addr.HPA(gpuHPA))

	const size = 1 << 20
	direct, err := c.DMA(TLP{Source: rnic, Addr: gpuHPA, Size: size, AT: ATTranslated, Write: true})
	if err != nil {
		t.Fatal(err)
	}
	detour, err := c.DMA(TLP{Source: rnic, Addr: da, Size: size, AT: ATUntranslated, Write: true})
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(detour.Latency) / float64(direct.Latency)
	if ratio < 2 {
		t.Errorf("RC detour only %.2fx slower than direct P2P; want >2x (paper: 393 vs 141 Gbps)", ratio)
	}
}

func TestDMAFaults(t *testing.T) {
	c, _, rnic, _, host := testFabric(t, Config{})
	// Untranslated to an unmapped DA faults in the IOMMU.
	if _, err := c.DMA(TLP{Source: rnic, Addr: 0xDEADBEEF, Size: 64, AT: ATUntranslated}); !errors.Is(err, ErrTranslationBad) {
		t.Errorf("unmapped DA err = %v", err)
	}
	// DMA to swapped-out memory fails — Problem ② 's crash mode.
	const da = 0xA0000000
	c.IOMMU().Map(addr.NewDARange(da, addr.PageSize4K), addr.HPA(host.HPA.Start))
	if err := c.Memory().SwapOut(host); err != nil {
		t.Fatal(err)
	}
	if _, err := c.DMA(TLP{Source: rnic, Addr: da, Size: 64, AT: ATUntranslated}); !errors.Is(err, ErrNotResident) {
		t.Errorf("swapped target err = %v", err)
	}
}

func TestDetachedEndpointRejected(t *testing.T) {
	c, sw, rnic, _, _ := testFabric(t, Config{})
	sw.RegisterGDR(rnic.BDF())
	rnic.Detach()
	if !rnic.Detached() {
		t.Error("Detached() = false")
	}
	if sw.GDRRegistered(rnic.BDF()) {
		t.Error("detach did not clear LUT entry")
	}
	if _, err := c.DMA(TLP{Source: rnic, Addr: 0x1000, Size: 64, AT: ATUntranslated}); !errors.Is(err, ErrDetached) {
		t.Errorf("err = %v", err)
	}
	if err := rnic.AddBAR(BAR{}); !errors.Is(err, ErrDetached) {
		t.Errorf("AddBAR on detached err = %v", err)
	}
}

func TestBAROverlapRejected(t *testing.T) {
	_, _, rnic, gpu, _ := testFabric(t, Config{})
	w := gpu.BARs()[0].Window
	overlap := addr.NewHPARange(addr.HPA(w.Start+0x10), 0x100)
	if err := rnic.AddBAR(BAR{Window: overlap, Name: "bad"}); !errors.Is(err, ErrBAROverlap) {
		t.Errorf("err = %v, want ErrBAROverlap", err)
	}
}

func TestAllocBARWindowDisjoint(t *testing.T) {
	c := NewComplex(Config{}, nil, nil)
	a := c.AllocBARWindow(1 << 20)
	b := c.AllocBARWindow(4096)
	if a.Overlaps(b.Range) {
		t.Error("BAR windows overlap")
	}
	if a.Start < 1<<44 {
		t.Error("BAR window below barBase collides with main memory")
	}
}

func TestStringers(t *testing.T) {
	if ATTranslated.String() != "translated" || ATUntranslated.String() != "untranslated" {
		t.Error("AT strings")
	}
	if RouteP2PDirect.String() != "p2p-direct" || RouteViaRC.String() != "p2p-via-rc" || RouteToMemory.String() != "memory" {
		t.Error("Route strings")
	}
}
