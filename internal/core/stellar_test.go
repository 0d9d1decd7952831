package stellar

import (
	"errors"
	"testing"

	"repro/internal/addr"
	"repro/internal/pcie"
	"repro/internal/rnic"
	"repro/internal/rund"
)

func newTestHost(t *testing.T) *Host {
	t.Helper()
	cfg := DefaultHostConfig()
	cfg.MemoryBytes = 64 << 30
	cfg.GPUMemoryBytes = 1 << 30
	h, err := NewHost(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func startContainer(t *testing.T, h *Host, name string, bytes uint64, mode rund.PinMode) *rund.Container {
	t.Helper()
	c, err := h.Hypervisor.CreateContainer(rund.DefaultConfig(name, bytes))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Start(mode); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestNewHostLayout(t *testing.T) {
	h := newTestHost(t)
	if len(h.Switches) != 4 || len(h.RNICs) != 4 || len(h.GPUs) != 8 {
		t.Fatalf("layout = %d switches, %d rnics, %d gpus", len(h.Switches), len(h.RNICs), len(h.GPUs))
	}
	// Stellar consumes exactly one LUT entry per RNIC PF in every
	// switch (4 PFs), leaving the rest of each 32-entry LUT free.
	for i, sw := range h.Switches {
		if sw.LUTLen() != 4 {
			t.Errorf("switch %d LUT = %d entries, want 4 (PFs only)", i, sw.LUTLen())
		}
	}
}

func TestVStellarLifecycle(t *testing.T) {
	h := newTestHost(t)
	c := startContainer(t, h, "c1", 4<<30, rund.PinOnDemand)
	d, err := h.CreateVStellar(c, h.RNICs[0])
	if err != nil {
		t.Fatal(err)
	}
	if d.CreateLatency != DeviceCreateTime {
		t.Errorf("CreateLatency = %v, want %v", d.CreateLatency, DeviceCreateTime)
	}
	if h.NumDevices() != 1 {
		t.Error("device not registered")
	}
	if !rund.InSHMWindow(d.DoorbellGPA()) {
		t.Error("vDB not in the shm window — the Figure 5 hazard fix")
	}
	sfs := h.RNICs[0].NumSFs()
	if sfs != 1 {
		t.Errorf("NumSFs = %d", sfs)
	}
	d.Destroy()
	d.Destroy() // idempotent
	if h.NumDevices() != 0 || h.RNICs[0].NumSFs() != 0 {
		t.Error("Destroy leaked resources")
	}
	if _, err := d.CreateQP(); !errors.Is(err, ErrDestroyed) {
		t.Errorf("CreateQP after Destroy err = %v", err)
	}
}

func TestVStellarNoNewBDFOrLUT(t *testing.T) {
	// §4: vStellar devices add no BDFs and no LUT entries — creating
	// hundreds changes neither.
	h := newTestHost(t)
	c := startContainer(t, h, "c1", 4<<30, rund.PinOnDemand)
	lutBefore := h.Switches[0].LUTLen()
	epsBefore := len(h.Switches[0].Endpoints())
	for i := 0; i < 200; i++ {
		if _, err := h.CreateVStellar(c, h.RNICs[0]); err != nil {
			t.Fatalf("device %d: %v", i, err)
		}
	}
	if h.Switches[0].LUTLen() != lutBefore {
		t.Error("vStellar devices consumed LUT entries")
	}
	if len(h.Switches[0].Endpoints()) != epsBefore {
		t.Error("vStellar devices consumed BDFs")
	}
}

func TestVStellarPerDeviceIsolation(t *testing.T) {
	// §9: distinct devices get distinct PDs; cross-device access is
	// rejected by the PD check in hardware.
	h := newTestHost(t)
	c := startContainer(t, h, "c1", 8<<30, rund.PinOnDemand)
	d1, err := h.CreateVStellar(c, h.RNICs[0])
	if err != nil {
		t.Fatal(err)
	}
	d2, err := h.CreateVStellar(c, h.RNICs[0])
	if err != nil {
		t.Fatal(err)
	}
	if d1.pd == d2.pd {
		t.Fatal("devices share a protection domain")
	}
	gva, _, err := c.AllocGuestBuffer(addr.PageSize2M)
	if err != nil {
		t.Fatal(err)
	}
	mr1, err := d1.RegisterHostMemory(gva)
	if err != nil {
		t.Fatal(err)
	}
	qp2, err := d2.CreateQP()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d2.Write(qp2, mr1.Key, gva.Start, 4096); !errors.Is(err, rnic.ErrPDViolation) {
		t.Errorf("cross-device write err = %v, want ErrPDViolation", err)
	}
}

func TestVStellarHostMemoryDataPath(t *testing.T) {
	h := newTestHost(t)
	c := startContainer(t, h, "c1", 4<<30, rund.PinOnDemand)
	d, err := h.CreateVStellar(c, h.RNICs[0])
	if err != nil {
		t.Fatal(err)
	}
	gva, _, err := c.AllocGuestBuffer(addr.PageSize2M)
	if err != nil {
		t.Fatal(err)
	}
	mr, err := d.RegisterHostMemory(gva)
	if err != nil {
		t.Fatal(err)
	}
	// PVDMA pinned only what the MR covers (plus block rounding).
	pinned := c.GuestMemory().PinnedBytes()
	if pinned == 0 || pinned > 2*addr.PageSize2M+addr.PageSize2M {
		t.Errorf("pinned %d bytes for a 2 MiB registration", pinned)
	}
	qp, err := d.CreateQP()
	if err != nil {
		t.Fatal(err)
	}
	res, err := d.Write(qp, mr.Key, gva.Start, 64<<10)
	if err != nil {
		t.Fatal(err)
	}
	if res.Route != pcie.RouteToMemory {
		t.Errorf("host-memory write routed %v", res.Route)
	}
}

func TestVStellarGDRDataPath(t *testing.T) {
	h := newTestHost(t)
	c := startContainer(t, h, "c1", 4<<30, rund.PinOnDemand)
	d, err := h.CreateVStellar(c, h.RNICs[0])
	if err != nil {
		t.Fatal(err)
	}
	gmem, err := h.GPUs[0].AllocDeviceMemory(16 << 20)
	if err != nil {
		t.Fatal(err)
	}
	gva := addr.NewGVARange(0x7fff00000000, 16<<20)
	mr, err := d.RegisterGPUMemory(gva, gmem)
	if err != nil {
		t.Fatal(err)
	}
	qp, err := d.CreateQP()
	if err != nil {
		t.Fatal(err)
	}
	res, err := d.Write(qp, mr.Key, gva.Start, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if res.Route != pcie.RouteP2PDirect {
		t.Errorf("GDR write routed %v, want p2p-direct (eMTT bypass)", res.Route)
	}
	if res.ATCMisses != 0 {
		t.Error("eMTT GDR consulted the ATC")
	}
	// Oversized VA span is rejected.
	if _, err := d.RegisterGPUMemory(addr.NewGVARange(0x7ffe00000000, 32<<20), gmem); err == nil {
		t.Error("oversized GPU registration accepted")
	}
}

func TestCPUDoorbellDataPath(t *testing.T) {
	// §4's direct map: the guest rings its device by storing to the
	// vDB's guest-physical address in the shm window, and the EPT
	// resolves that address to the device's own doorbell page inside
	// the RNIC's doorbell BAR, so the store reaches the RNIC with no
	// hypervisor exit.
	h := newTestHost(t)
	c := startContainer(t, h, "c1", 4<<30, rund.PinOnDemand)
	d1, err := h.CreateVStellar(c, h.RNICs[0])
	if err != nil {
		t.Fatal(err)
	}
	d2, err := h.CreateVStellar(c, h.RNICs[0])
	if err != nil {
		t.Fatal(err)
	}
	hpa1, ok := c.EPT().Translate(d1.DoorbellGPA())
	if !ok {
		t.Fatalf("vDB %v has no EPT mapping", d1.DoorbellGPA())
	}
	if hpa1 != addr.HPA(d1.doorbell.Start) {
		t.Errorf("vDB maps to %v, want the device's doorbell page %v", hpa1, d1.doorbell)
	}
	if !h.RNICs[0].DoorbellWindow().Contains(uint64(hpa1)) {
		t.Errorf("vDB maps to %v, outside the RNIC's doorbell BAR %v", hpa1, h.RNICs[0].DoorbellWindow())
	}
	if hpa2, _ := c.EPT().Translate(d2.DoorbellGPA()); hpa2 == hpa1 {
		t.Errorf("two devices share doorbell page %v", hpa1)
	}
}

func TestDoorbellAfterDestroy(t *testing.T) {
	// Destroy hands the device's doorbell page back to the RNIC: the
	// next device on that RNIC gets the same page, and the destroyed
	// device refuses data-path work.
	h := newTestHost(t)
	c := startContainer(t, h, "c1", 4<<30, rund.PinOnDemand)
	d, err := h.CreateVStellar(c, h.RNICs[0])
	if err != nil {
		t.Fatal(err)
	}
	qp, err := d.CreateQP()
	if err != nil {
		t.Fatal(err)
	}
	page := d.doorbell
	d.Destroy()
	if _, err := d.Write(qp, 1, 0, 64); !errors.Is(err, ErrDestroyed) {
		t.Errorf("Write after Destroy err = %v", err)
	}
	next, err := h.CreateVStellar(c, h.RNICs[0])
	if err != nil {
		t.Fatal(err)
	}
	if next.doorbell != page {
		t.Errorf("next device got doorbell %v, want the freed page %v", next.doorbell, page)
	}
}

func TestLegacyVFRequiresFullPin(t *testing.T) {
	h := newTestHost(t)
	if err := h.RNICs[0].SetNumVFs(2); err != nil {
		t.Fatal(err)
	}
	cPV := startContainer(t, h, "pv", 4<<30, rund.PinOnDemand)
	if _, err := h.CreateLegacyVF(cPV, h.RNICs[0], 0); !errors.Is(err, ErrNeedsVFIO) {
		t.Errorf("err = %v, want ErrNeedsVFIO", err)
	}
	cFull := startContainer(t, h, "full", 4<<30, rund.PinFull)
	d, err := h.CreateLegacyVF(cFull, h.RNICs[0], 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.EnableGDR(); err != nil {
		t.Fatal(err)
	}
	if _, err := h.CreateLegacyVF(cFull, h.RNICs[0], 5); !errors.Is(err, rnic.ErrNoSuchVF) {
		t.Errorf("bogus VF index err = %v", err)
	}
}

func TestLegacyGDRNeedsLUTAndEnablement(t *testing.T) {
	h := newTestHost(t)
	h.RNICs[0].SetNumVFs(1)
	c := startContainer(t, h, "full", 4<<30, rund.PinFull)
	d, err := h.CreateLegacyVF(c, h.RNICs[0], 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.RegisterGPUMemory(addr.NewGVARange(0x1000, addr.PageSize4K), 0x5000); !errors.Is(err, ErrGDRUnplanned) {
		t.Errorf("GDR registration without EnableGDR err = %v", err)
	}
}

func TestLegacyLUTExhaustionAcrossVFs(t *testing.T) {
	// Problem ③ end-to-end: GDR enablement burns one entry in every
	// switch's 32-entry LUT; with 4 PFs pre-registered the whole server
	// supports only 28 GDR VFs — "far below deployment density".
	cfg := DefaultHostConfig()
	cfg.MemoryBytes = 256 << 30 // 35 VFs need ~84 GB of queue memory
	cfg.GPUMemoryBytes = 1 << 30
	h, err := NewHost(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.RNICs[0].SetNumVFs(35); err != nil {
		t.Fatal(err)
	}
	enabled := 0
	var lastErr error
	for _, vf := range h.RNICs[0].VFs() {
		if err := vf.EnableGDR(); err != nil {
			lastErr = err
			break
		}
		enabled++
	}
	if enabled != 28 {
		t.Errorf("GDR-capable VFs = %d, want 28 (32-entry LUTs minus 4 PFs)", enabled)
	}
	if !errors.Is(lastErr, pcie.ErrLUTFull) {
		t.Errorf("err = %v, want ErrLUTFull", lastErr)
	}
}

func TestControllerZeroMACBug(t *testing.T) {
	// Problem ⑤, second incident: same host, different RNICs.
	h := newTestHost(t)
	h.RNICs[0].SetNumVFs(1)
	h.RNICs[1].SetNumVFs(1)
	c := startContainer(t, h, "full", 8<<30, rund.PinFull)
	d0, err := h.CreateLegacyVF(c, h.RNICs[0], 0)
	if err != nil {
		t.Fatal(err)
	}
	d1, err := h.CreateLegacyVF(c, h.RNICs[1], 0)
	if err != nil {
		t.Fatal(err)
	}

	buggy := NewController()
	buggy.BuggyLocalMAC = true
	if err := buggy.EstablishRDMA(42, d0, d1); !errors.Is(err, ErrToRDiscard) {
		t.Errorf("buggy controller err = %v, want ErrToRDiscard", err)
	}
	// Same RNIC: the local path is genuinely local, no ToR involved.
	h.RNICs[2].SetNumVFs(2)
	dA, _ := h.CreateLegacyVF(c, h.RNICs[2], 0)
	dB, _ := h.CreateLegacyVF(c, h.RNICs[2], 1)
	if err := buggy.EstablishRDMA(43, dA, dB); err != nil {
		t.Errorf("same-RNIC flow err = %v", err)
	}
	// Fixed controller handles the cross-RNIC case.
	fixed := NewController()
	if err := fixed.EstablishRDMA(44, d0, d1); err != nil {
		t.Errorf("fixed controller err = %v", err)
	}
	if h.RNICs[0].VSwitch().Len() == 0 || h.RNICs[1].VSwitch().Len() == 0 {
		t.Error("rules not installed on both RNICs")
	}
}

func TestControllerTCPFrontInsertBuriesRDMA(t *testing.T) {
	// Problem ⑤, first incident, end to end through the Controller.
	h := newTestHost(t)
	h.RNICs[0].SetNumVFs(2)
	c := startContainer(t, h, "full", 8<<30, rund.PinFull)
	d0, _ := h.CreateLegacyVF(c, h.RNICs[0], 0)
	d1, _ := h.CreateLegacyVF(c, h.RNICs[0], 1)
	ctl := NewController()
	if err := ctl.EstablishRDMA(7, d0, d1); err != nil {
		t.Fatal(err)
	}
	_, before, err := h.RNICs[0].VSwitch().Lookup(rnic.ClassRDMA, 7)
	if err != nil {
		t.Fatal(err)
	}
	ctl.InstallTCPFlows(h.RNICs[0], 100)
	_, after, err := h.RNICs[0].VSwitch().Lookup(rnic.ClassRDMA, 7)
	if err != nil {
		t.Fatal(err)
	}
	if after <= before {
		t.Errorf("RDMA lookup cost %v not inflated by TCP rules (was %v)", after, before)
	}
}

func TestDeviceLimit64Ki(t *testing.T) {
	h := newTestHost(t)
	if h.DeviceLimit() != 64<<10 {
		t.Errorf("DeviceLimit = %d", h.DeviceLimit())
	}
}

// TestRegisterHostMemoryReleasesPVDMAOnMRFailure: when the RNIC rejects
// the MR (here the MTT is full), the PVDMA blocks MapDMA registered for
// it are released — nothing stays pinned or IOMMU-mapped.
func TestRegisterHostMemoryReleasesPVDMAOnMRFailure(t *testing.T) {
	h := newTestHost(t)
	c := startContainer(t, h, "c1", 1<<30, rund.PinOnDemand)
	d, err := h.CreateVStellar(c, h.RNICs[0])
	if err != nil {
		t.Fatal(err)
	}
	// Fill the RNIC's MTT with regions of halving size, down to one page.
	r := h.RNICs[0]
	pd := r.AllocPD()
	va := uint64(1) << 40
	for size := uint64(1) << 30; size >= addr.PageSize4K; size >>= 1 {
		for {
			_, err := r.RegisterMR(pd, addr.Range{Start: va, Size: size}, rnic.MTTEntry{Owner: addr.OwnerHostMemory})
			if errors.Is(err, rnic.ErrMTTFull) {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			va += size
		}
	}
	gva, _, err := c.AllocGuestBuffer(8 << 20)
	if err != nil {
		t.Fatal(err)
	}
	entries := h.Hypervisor.IOMMU().Entries()
	if _, err := d.RegisterHostMemory(gva); !errors.Is(err, rnic.ErrMTTFull) {
		t.Fatalf("err = %v, want ErrMTTFull", err)
	}
	pv := d.pv
	if pv.CachedBlocks() != 0 || pv.InflightRefs() != 0 || pv.Stats().PinnedBytes != 0 {
		t.Errorf("PVDMA kept %d blocks, %d refs, %d bytes pinned",
			pv.CachedBlocks(), pv.InflightRefs(), pv.Stats().PinnedBytes)
	}
	if p := c.GuestMemory().PinnedBytes(); p != 0 {
		t.Errorf("guest pinned %d bytes", p)
	}
	if got := h.Hypervisor.IOMMU().Entries(); got != entries {
		t.Errorf("IOMMU entries = %d, want %d", got, entries)
	}
}
