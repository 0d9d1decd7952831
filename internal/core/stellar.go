// Package stellar is the paper's primary contribution assembled from the
// substrates: the vStellar hybrid-virtualized RDMA device (§4) with its
// virtio control path and direct-mapped data path, PVDMA-backed
// on-demand memory registration (§5), eMTT programming for GDR (§6),
// and — for every comparison in §8 — the baseline stacks: the legacy
// SR-IOV/VFIO/VxLAN framework of §3 and the HyV/MasQ hybrid without
// GDR optimisation.
package stellar

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/addr"
	"repro/internal/gpu"
	"repro/internal/iommu"
	"repro/internal/mem"
	"repro/internal/pcie"
	"repro/internal/pvdma"
	"repro/internal/rnic"
	"repro/internal/rund"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Errors returned by the stellar framework.
var (
	ErrDeviceLimit  = errors.New("stellar: virtual device limit reached")
	ErrDestroyed    = errors.New("stellar: device destroyed")
	ErrNoGPU        = errors.New("stellar: host has no GPU at that index")
	ErrToRDiscard   = errors.New("stellar: ToR discarded VxLAN frame with zero MAC")
	ErrNeedsVFIO    = errors.New("stellar: legacy device requires a full-pin container")
	ErrGDRUnplanned = errors.New("stellar: GDR not enabled on this device")
)

// DeviceCreateTime is the vStellar device spin-up latency: ~1.5 s,
// matching MasQ (§4).
const DeviceCreateTime = 1500 * time.Millisecond

// TCPVirtioOverhead is the throughput penalty of the virtio/SF/VxLAN
// path for non-RDMA traffic (§4: ~5%, acceptable because TCP carries
// only control messages).
const TCPVirtioOverhead = 0.05

// HostConfig sizes one GPU server.
type HostConfig struct {
	// MemoryBytes is host RAM (2 TiB default).
	MemoryBytes uint64
	// NumSwitches/NumRNICs/NumGPUs describe the PCIe layout. The paper's
	// troubled server model is 4 switches, 4 RNICs, 8 GPUs.
	NumSwitches int
	NumRNICs    int
	NumGPUs     int
	// GPUMemoryBytes per GPU.
	GPUMemoryBytes uint64
	// RNICConfig builds each RNIC's configuration.
	RNICConfig func(i int) rnic.Config
}

// DefaultHostConfig returns the paper's server: 4 PCIe switches, each
// with one RNIC and two GPUs.
func DefaultHostConfig() HostConfig {
	return HostConfig{
		MemoryBytes:    2 << 40,
		NumSwitches:    4,
		NumRNICs:       4,
		NumGPUs:        8,
		GPUMemoryBytes: 8 << 30,
		RNICConfig:     func(i int) rnic.Config { return rnic.DefaultConfig(fmt.Sprintf("rnic%d", i)) },
	}
}

// Host is one assembled GPU server.
type Host struct {
	Complex    *pcie.Complex
	Switches   []*pcie.Switch
	RNICs      []*rnic.RNIC
	GPUs       []*gpu.GPU
	Hypervisor *rund.Hypervisor

	devices  map[int]*VStellarDevice
	nextDev  int
	devLimit int

	tr      *trace.Tracer
	trLabel string
}

// NewHost assembles a server from the configuration.
func NewHost(cfg HostConfig) (*Host, error) {
	d := DefaultHostConfig()
	if cfg.MemoryBytes == 0 {
		cfg.MemoryBytes = d.MemoryBytes
	}
	if cfg.NumSwitches == 0 {
		cfg.NumSwitches = d.NumSwitches
	}
	if cfg.NumRNICs == 0 {
		cfg.NumRNICs = d.NumRNICs
	}
	if cfg.NumGPUs == 0 {
		cfg.NumGPUs = d.NumGPUs
	}
	if cfg.GPUMemoryBytes == 0 {
		cfg.GPUMemoryBytes = d.GPUMemoryBytes
	}
	if cfg.RNICConfig == nil {
		cfg.RNICConfig = d.RNICConfig
	}
	u, err := iommu.New(iommu.DefaultConfig())
	if err != nil {
		return nil, err
	}
	m := mem.New(mem.Config{TotalBytes: cfg.MemoryBytes})
	complex := pcie.NewComplex(pcie.Config{}, u, m)

	h := &Host{
		Complex:  complex,
		devices:  make(map[int]*VStellarDevice),
		devLimit: 64 << 10, // §4: up to 64k virtual devices
	}
	for i := 0; i < cfg.NumSwitches; i++ {
		h.Switches = append(h.Switches, complex.AddSwitch(fmt.Sprintf("sw%d", i)))
	}
	for i := 0; i < cfg.NumRNICs; i++ {
		sw := h.Switches[i%len(h.Switches)]
		r, err := rnic.New(complex, sw, cfg.RNICConfig(i))
		if err != nil {
			return nil, err
		}
		// Stellar registers only the PF's BDF for GDR: one LUT entry
		// per switch per RNIC regardless of virtual-device count (§4).
		if err := complex.RegisterGDRAll(r.PF().BDF()); err != nil {
			return nil, err
		}
		h.RNICs = append(h.RNICs, r)
	}
	for i := 0; i < cfg.NumGPUs; i++ {
		sw := h.Switches[i%len(h.Switches)]
		g, err := gpu.New(complex, sw, fmt.Sprintf("gpu%d", i), cfg.GPUMemoryBytes)
		if err != nil {
			return nil, err
		}
		h.GPUs = append(h.GPUs, g)
	}
	h.Hypervisor = rund.NewHypervisor(complex)
	return h, nil
}

// SetTracer attaches a flight recorder to the host and every substrate
// under it (PCIe complex, RNICs, and PVDMA managers of live and future
// devices). label names the trace process; a typical cluster uses
// "host<N>".
func (h *Host) SetTracer(t *trace.Tracer, label string) {
	h.tr = t
	h.trLabel = label
	h.Complex.SetTracer(t, label)
	for _, r := range h.RNICs {
		r.SetTracer(t, label)
	}
	for _, d := range h.devices {
		d.pv.SetTracer(t, label)
	}
}

// NumDevices reports live vStellar devices on the host.
func (h *Host) NumDevices() int { return len(h.devices) }

// DeviceLimit reports the virtual-device ceiling.
func (h *Host) DeviceLimit() int { return h.devLimit }

// VStellarDevice is one virtual RDMA device inside a secure container:
// an SF (shared BDF), a doorbell page direct-mapped through the virtio
// shm window, a dedicated protection domain, and a PVDMA manager for
// on-demand registration.
type VStellarDevice struct {
	ID        int
	Container *rund.Container
	RNIC      *rnic.RNIC

	host     *Host
	sf       *rnic.SF
	pd       rnic.PD
	doorbell addr.HPARange
	vdbGPA   addr.GPA
	pv       *pvdma.Manager

	mrs       []*rnic.MR
	qps       []*rnic.QP
	destroyed bool

	// CreateLatency is the virtual-time cost of spinning the device up.
	CreateLatency sim.Duration
}

// CreateVStellar spins up a vStellar device for the container on the
// given RNIC. The container may run in PVDMA mode — no VFIO, no full
// pin, no extra BDF, no LUT entry.
func (h *Host) CreateVStellar(c *rund.Container, r *rnic.RNIC) (*VStellarDevice, error) {
	if len(h.devices) >= h.devLimit {
		return nil, fmt.Errorf("%w: %d", ErrDeviceLimit, h.devLimit)
	}
	db, err := r.AllocDoorbell()
	if err != nil {
		return nil, err
	}
	vdb := c.AllocSHMWindow(addr.PageSize4K)
	if err := c.MapSHM(vdb, db); err != nil {
		r.FreeDoorbell(db)
		return nil, err
	}
	d := &VStellarDevice{
		ID:            h.nextDev,
		Container:     c,
		RNIC:          r,
		host:          h,
		sf:            r.CreateSF(),
		pd:            r.AllocPD(), // §9: one PD per VM
		doorbell:      db,
		vdbGPA:        vdb,
		pv:            pvdma.New(c, pvdma.Config{}),
		CreateLatency: DeviceCreateTime,
	}
	if h.tr != nil {
		d.pv.SetTracer(h.tr, h.trLabel)
	}
	h.nextDev++
	h.devices[d.ID] = d
	return d, nil
}

// Destroy releases the device's resources in seconds, not reboots.
func (d *VStellarDevice) Destroy() {
	if d.destroyed {
		return
	}
	d.destroyed = true
	for _, mr := range d.mrs {
		_ = d.RNIC.DeregisterMR(mr)
	}
	for _, qp := range d.qps {
		d.RNIC.DestroyQP(qp)
	}
	d.RNIC.DestroySF(d.sf)
	d.RNIC.DeallocPD(d.pd)
	d.RNIC.FreeDoorbell(d.doorbell)
	delete(d.host.devices, d.ID)
}

// DoorbellGPA returns where the guest sees the vDB (in the shm window).
func (d *VStellarDevice) DoorbellGPA() addr.GPA { return d.vdbGPA }

// CreateQP allocates a queue pair through the virtio control path and
// drives it to RTS; the data path stays direct.
func (d *VStellarDevice) CreateQP() (*rnic.QP, error) {
	if d.destroyed {
		return nil, ErrDestroyed
	}
	qp, err := d.RNIC.CreateQP(d.pd)
	if err != nil {
		return nil, err
	}
	for _, st := range []rnic.QPState{rnic.QPInit, rnic.QPReadyToReceive, rnic.QPReadyToSend} {
		if err := d.RNIC.ModifyQP(qp, st); err != nil {
			return nil, err
		}
	}
	d.qps = append(d.qps, qp)
	return qp, nil
}

// RegisterHostMemory registers a guest buffer for RDMA: the control
// path resolves GVA→GPA, PVDMA pins and installs the IOMMU window on
// demand, and the eMTT entry carries the container's DA with
// owner=host (Figure 7's RDMA flow).
func (d *VStellarDevice) RegisterHostMemory(gva addr.GVARange) (*rnic.MR, error) {
	if d.destroyed {
		return nil, ErrDestroyed
	}
	gpa, ok := d.Container.GuestPT().Translate(addr.GVA(gva.Start))
	if !ok {
		return nil, fmt.Errorf("stellar: %v unmapped in guest", addr.GVA(gva.Start))
	}
	_, err := d.pv.MapDMA(gpa, gva.Size)
	if err != nil {
		return nil, err
	}
	mr, err := d.RNIC.RegisterMR(d.pd, gva.Range, rnic.MTTEntry{
		Base:  uint64(d.Container.GPAToDA(gpa)),
		Owner: addr.OwnerHostMemory,
	})
	if err != nil {
		// Drop the PVDMA references MapDMA took, or the blocks stay
		// pinned and IOMMU-mapped with no MR to release them.
		return nil, errors.Join(err, d.pv.ReleaseDMA(gpa, gva.Size))
	}
	d.mrs = append(d.mrs, mr)
	return mr, nil
}

// RegisterGPUMemory registers GPU device memory for GDR: the eMTT entry
// carries the final HPA and owner=GPU, so inbound writes go out as
// AT=translated and bypass the Root Complex (Figure 7's GDR flow).
func (d *VStellarDevice) RegisterGPUMemory(gva addr.GVARange, gmem addr.HPARange) (*rnic.MR, error) {
	if d.destroyed {
		return nil, ErrDestroyed
	}
	if gva.Size > gmem.Size {
		return nil, fmt.Errorf("stellar: VA span %d exceeds GPU allocation %d", gva.Size, gmem.Size)
	}
	mr, err := d.RNIC.RegisterMR(d.pd, gva.Range, rnic.MTTEntry{
		Base:       gmem.Start,
		Owner:      addr.OwnerGPU,
		Translated: true,
	})
	if err != nil {
		return nil, err
	}
	d.mrs = append(d.mrs, mr)
	return mr, nil
}

// Write performs an RDMA write on the direct data path: no virtio
// interception, straight to the RNIC pipeline.
func (d *VStellarDevice) Write(qp *rnic.QP, key uint32, va, size uint64) (rnic.WriteResult, error) {
	if d.destroyed {
		return rnic.WriteResult{}, ErrDestroyed
	}
	return d.RNIC.RDMAWrite(qp, key, va, size)
}
