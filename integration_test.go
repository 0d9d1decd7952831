package repro_test

import (
	"testing"
	"time"

	"repro/internal/addr"
	stellar "repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/multipath"
	"repro/internal/rnic"
	"repro/internal/rund"
	"repro/internal/sim"
	"repro/internal/transport"
)

// TestEndToEndCrossHostGDRWrite is the full-stack integration: a GDR
// write travels from a vStellar device on server A across the sprayed
// multi-path network to server B, where the receiving RNIC's eMTT
// places it into GPU memory without touching B's Root Complex.
//
// It stitches together every layer of the repository: core (vStellar
// lifecycle), rund (secure containers, shm doorbell), pvdma (on-demand
// pinning), rnic+pcie (eMTT RX pipeline), and fabric+transport+multipath
// (OBS spraying with the production transport).
func TestEndToEndCrossHostGDRWrite(t *testing.T) {
	// Two paper-shaped servers.
	newServer := func(name string) *stellar.Host {
		cfg := stellar.DefaultHostConfig()
		cfg.MemoryBytes = 64 << 30
		cfg.GPUMemoryBytes = 2 << 30
		h, err := stellar.NewHost(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	hostA, hostB := newServer("A"), newServer("B")

	// Secure containers in PVDMA mode on both ends.
	ctA, err := hostA.Hypervisor.CreateContainer(rund.DefaultConfig("a0", 8<<30))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ctA.Start(rund.PinOnDemand); err != nil {
		t.Fatal(err)
	}
	ctB, err := hostB.Hypervisor.CreateContainer(rund.DefaultConfig("b0", 8<<30))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ctB.Start(rund.PinOnDemand); err != nil {
		t.Fatal(err)
	}

	devA, err := hostA.CreateVStellar(ctA, hostA.RNICs[0])
	if err != nil {
		t.Fatal(err)
	}
	devB, err := hostB.CreateVStellar(ctB, hostB.RNICs[0])
	if err != nil {
		t.Fatal(err)
	}

	// Sender-side buffer in A's guest memory (PVDMA pins on demand).
	gvaA, _, err := ctA.AllocGuestBuffer(4 << 20)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := devA.RegisterHostMemory(gvaA); err != nil {
		t.Fatal(err)
	}

	// Receiver-side GDR region in B's GPU memory via the eMTT.
	gmemB, err := hostB.GPUs[0].AllocDeviceMemory(4 << 20)
	if err != nil {
		t.Fatal(err)
	}
	gvaB := addr.NewGVARange(0x7fff00000000, 4<<20)
	mrB, err := devB.RegisterGPUMemory(gvaB, gmemB)
	if err != nil {
		t.Fatal(err)
	}
	qpB, err := devB.CreateQP()
	if err != nil {
		t.Fatal(err)
	}

	// The network between the servers: two segments, 60 aggs, OBS/128.
	eng := sim.NewEngine(17)
	net := fabric.New(eng, fabric.Config{
		Segments: 2, HostsPerSegment: 1, Aggs: 60,
		HostLinkBW: 50e9, FabricLinkBW: 50e9,
		LinkDelay: 2 * time.Microsecond, QueueLimit: 16 << 20, ECNThreshold: 512 << 10,
	})
	epA := transport.NewEndpoint(net, 0, transport.Config{})
	epB := transport.NewEndpoint(net, 1, transport.Config{})
	conn, err := transport.Connect(epA, epB, 1, multipath.OBS, 128)
	if err != nil {
		t.Fatal(err)
	}

	const payload = 4 << 20
	var wireDone sim.Time
	conn.Send(payload, func(at sim.Time) { wireDone = at })
	eng.RunAll()
	if wireDone == 0 {
		t.Fatal("network transfer incomplete")
	}
	if got := conn.PeerReceivedBytes(); got != payload {
		t.Fatalf("wire delivered %d bytes, want %d", got, payload)
	}

	// Receiver RNIC places the payload into GPU memory: the eMTT fast
	// path must route switch-local, never consulting B's IOMMU.
	iommuWalksBefore := hostB.Complex.IOMMU().Walks()
	res, err := devB.Write(qpB, mrB.Key, gvaB.Start, payload)
	if err != nil {
		t.Fatal(err)
	}
	if res.Route.String() != "p2p-direct" {
		t.Errorf("placement route = %v, want p2p-direct", res.Route)
	}
	if hostB.Complex.IOMMU().Walks() != iommuWalksBefore {
		t.Error("eMTT placement walked the IOMMU")
	}

	// End-to-end virtual latency: wire time + placement.
	total := wireDone.Sub(0) + res.Latency
	if total <= 0 || total > sim.Duration(10*time.Millisecond) {
		t.Errorf("implausible end-to-end time %v", total)
	}

	// On-demand pinning stayed proportional on the sender.
	if pinned := ctA.GuestMemory().PinnedBytes(); pinned > 8<<20 {
		t.Errorf("sender pinned %d bytes for a 4 MiB region", pinned)
	}
}

// TestEndToEndLegacyStackContrast drives the same cross-host write on
// the legacy SR-IOV stack and checks the operational costs the paper
// attributes to it: full-pin boot, LUT consumption, and vSwitch rules
// that degrade with TCP churn.
func TestEndToEndLegacyStackContrast(t *testing.T) {
	cfg := stellar.DefaultHostConfig()
	cfg.MemoryBytes = 128 << 30
	cfg.GPUMemoryBytes = 2 << 30
	h, err := stellar.NewHost(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.RNICs[0].SetNumVFs(2); err != nil {
		t.Fatal(err)
	}

	ct, err := h.Hypervisor.CreateContainer(rund.DefaultConfig("legacy", 32<<30))
	if err != nil {
		t.Fatal(err)
	}
	boot, err := ct.Start(rund.PinFull)
	if err != nil {
		t.Fatal(err)
	}
	// Full pin dominates: a 32 GiB container takes ~8 s of pinning.
	if boot.Seconds() < 5 {
		t.Errorf("full-pin boot = %.1f s, implausibly fast", boot.Seconds())
	}

	d0, err := h.CreateLegacyVF(ct, h.RNICs[0], 0)
	if err != nil {
		t.Fatal(err)
	}
	d1, err := h.CreateLegacyVF(ct, h.RNICs[0], 1)
	if err != nil {
		t.Fatal(err)
	}
	lutBefore := h.Switches[0].LUTLen()
	if err := d0.EnableGDR(); err != nil {
		t.Fatal(err)
	}
	if h.Switches[0].LUTLen() != lutBefore+1 {
		t.Error("legacy GDR did not claim a LUT slot")
	}

	ctl := stellar.NewController()
	if err := ctl.EstablishRDMA(77, d0, d1); err != nil {
		t.Fatal(err)
	}
	_, rdmaBefore, err := h.RNICs[0].VSwitch().Lookup(rnic.ClassRDMA, 77)
	if err != nil {
		t.Fatal(err)
	}
	ctl.InstallTCPFlows(h.RNICs[0], 500)
	_, rdmaAfter, err := h.RNICs[0].VSwitch().Lookup(rnic.ClassRDMA, 77)
	if err != nil {
		t.Fatal(err)
	}
	if rdmaAfter <= rdmaBefore {
		t.Error("TCP churn did not inflate RDMA steering latency")
	}
}
