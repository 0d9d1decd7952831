// Package rund models the RunD secure container runtime and its
// hypervisor: a MicroVM with guest memory backed by host physical
// memory, an EPT the hypervisor registers for it, VFIO device
// assignment with its full-memory-pin requirement (Problem ②), and the
// virtio shared-memory (shm) window Stellar uses to host the vDB outside
// the guest RAM address space (§5's fix).
//
// The boot-time model is calibrated to Figure 6: pinning dominates
// without PVDMA (390 s for a 1.6 TB container), while with PVDMA boot
// stays under 20 s and grows only with general hypervisor overhead
// (~11 s between 160 GB and 1.6 TB).
package rund

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/addr"
	"repro/internal/iommu"
	"repro/internal/mem"
	"repro/internal/pagetable"
	"repro/internal/pcie"
	"repro/internal/sim"
)

// Errors returned by the container runtime.
var (
	ErrNotRunning     = errors.New("rund: container not running")
	ErrAlreadyStarted = errors.New("rund: container already started")
	ErrGuestMemory    = errors.New("rund: guest memory exhausted")
	ErrNeedsFullPin   = errors.New("rund: VFIO device assignment requires full-pin mode")
	ErrStopped        = errors.New("rund: container was stopped and cannot restart")
	ErrNotStopped     = errors.New("rund: restart requires a stopped container")
)

// PinMode selects how guest memory is made DMA-safe.
type PinMode uint8

const (
	// PinFull pins the entire guest memory at start-up (the VFIO
	// behaviour of §3.1 Problem ②).
	PinFull PinMode = iota
	// PinOnDemand defers pinning to PVDMA at first DMA (§5).
	PinOnDemand
)

func (m PinMode) String() string {
	if m == PinFull {
		return "full-pin"
	}
	return "pvdma"
}

// shmBase is the guest-physical base of the virtio shared-memory window
// — an I/O space deliberately disjoint from guest RAM so PVDMA's 2 MiB
// blocks can never cover it.
const shmBase = 1 << 45

// The calibrated boot model.
const (
	// baseBootTime is MicroVM creation plus guest kernel boot.
	baseBootTime sim.Duration = 1500 * time.Millisecond
	// hypervisorPerGiB is general hypervisor set-up overhead per GiB of
	// guest memory (EPT registration, balloon plumbing, ...). This is
	// the term behind Figure 6's 11 s growth between 160 GB and 1.6 TB.
	hypervisorPerGiB sim.Duration = 7500 * time.Microsecond
)

// Config describes one container.
type Config struct {
	Name        string
	MemoryBytes uint64
}

// DefaultConfig returns the configuration of a container of the given
// size.
func DefaultConfig(name string, memoryBytes uint64) Config {
	return Config{Name: name, MemoryBytes: memoryBytes}
}

// Hypervisor manages containers on one host.
type Hypervisor struct {
	complex    *pcie.Complex
	containers map[string]*Container
}

// NewHypervisor builds the host-side runtime over a PCIe complex (which
// carries the host memory and IOMMU).
func NewHypervisor(c *pcie.Complex) *Hypervisor {
	return &Hypervisor{complex: c, containers: make(map[string]*Container)}
}

// Complex returns the host PCIe fabric.
func (h *Hypervisor) Complex() *pcie.Complex { return h.complex }

// Containers returns the number of live containers.
func (h *Hypervisor) Containers() int { return len(h.containers) }

// Container is one RunD secure container (a MicroVM).
type Container struct {
	cfg   Config
	hyp   *Hypervisor
	guest *mem.Region

	ept     *pagetable.EPT
	guestPT *pagetable.GuestPT

	running bool
	stopped bool // Stop ran; the container can never restart
	mode    PinMode

	nextGVA uint64
	nextGPA uint64
	shmNext uint64

	assigned []*pcie.Endpoint

	// Teardown machinery (see Stop).
	stopHooks []stopHook
	fences    []fenceReg
	teardown  []string
}

// stopHook is a registered device-quiesce action run first at Stop.
type stopHook struct {
	name string
	fn   func() error
}

// fenceReg is a registered DMA manager, fenced after quiesce.
type fenceReg struct {
	name string
	f    DMAFence
}

// DMAFence is the surface Stop uses to fence a DMA manager's in-flight
// mappings before the container's memory is unpinned and freed.
// pvdma.Manager implements it.
type DMAFence interface {
	// InflightRefs reports outstanding DMA references (mappings still
	// held by users) — the count Stop records before force-fencing.
	InflightRefs() int
	// FenceDMA force-releases every mapping regardless of refcount —
	// IOMMU entries removed, backing pages unpinned — and returns how
	// many mappings were torn down.
	FenceDMA() int
}

// OnStop registers a quiesce action run at the start of Stop, before
// any DMA fencing — the slot for device-side teardown (QP reset, ATC
// flush) that must stop new DMA from being issued. Hooks run in
// registration order; errors are collected, not fatal.
func (c *Container) OnStop(name string, fn func() error) {
	c.stopHooks = append(c.stopHooks, stopHook{name: name, fn: fn})
}

// RegisterDMAFence adds a DMA manager to the teardown fence list.
func (c *Container) RegisterDMAFence(name string, f DMAFence) {
	c.fences = append(c.fences, fenceReg{name: name, f: f})
}

// Stopped reports whether Stop ran. A stopped container rejects new
// DMA registrations (pvdma checks this) and cannot be restarted.
func (c *Container) Stopped() bool { return c.stopped }

// TeardownLog returns the ordered step labels of the last Stop — the
// surface tests use to assert teardown ordering.
func (c *Container) TeardownLog() []string { return c.teardown }

// CreateContainer allocates guest memory and the container's translation
// structures. The container is not yet booted.
func (h *Hypervisor) CreateContainer(cfg Config) (*Container, error) {
	if cfg.MemoryBytes == 0 || !addr.IsAligned(cfg.MemoryBytes, addr.PageSize4K) {
		return nil, fmt.Errorf("rund: memory size %d must be non-zero and page aligned", cfg.MemoryBytes)
	}
	guest, err := h.complex.Memory().Allocate(cfg.MemoryBytes, cfg.Name+"-ram")
	if err != nil {
		return nil, err
	}
	c := &Container{
		cfg:     cfg,
		hyp:     h,
		guest:   guest,
		ept:     pagetable.NewEPT(),
		guestPT: pagetable.NewGuestPT(),
		nextGVA: 0x7f00_0000_0000,
		nextGPA: addr.PageSize2M, // keep guest page zero unmapped
		shmNext: shmBase,
	}
	// The hypervisor registers the container's RAM in the EPT: GPA
	// [0, size) -> the backing host region.
	if err := c.ept.Map(addr.NewGPARange(0, cfg.MemoryBytes), addr.HPA(guest.HPA.Start)); err != nil {
		h.complex.Memory().Free(guest)
		return nil, err
	}
	h.containers[cfg.Name] = c
	return c, nil
}

// Name returns the container name.
func (c *Container) Name() string { return c.cfg.Name }

// Config returns the container configuration.
func (c *Container) Config() Config { return c.cfg }

// GuestMemory returns the backing host region.
func (c *Container) GuestMemory() *mem.Region { return c.guest }

// EPT returns the container's extended page table.
func (c *Container) EPT() *pagetable.EPT { return c.ept }

// GuestPT returns the guest's own page table.
func (c *Container) GuestPT() *pagetable.GuestPT { return c.guestPT }

// Running reports whether the container booted.
func (c *Container) Running() bool { return c.running }

// Mode returns the pin mode chosen at start.
func (c *Container) Mode() PinMode { return c.mode }

// Hypervisor returns the owning hypervisor.
func (c *Container) Hypervisor() *Hypervisor { return c.hyp }

// BootSpans decomposes a boot into the cost components Figure 6 plots:
// base MicroVM creation, per-GiB hypervisor set-up, the full guest pin
// and the full-pin IOMMU window install (the last two zero in
// PinOnDemand mode).
type BootSpans struct {
	Base       sim.Duration
	Hypervisor sim.Duration
	Pin        sim.Duration
	IOMMUMap   sim.Duration
}

// Total is the boot duration Start reports.
func (b BootSpans) Total() sim.Duration { return b.Base + b.Hypervisor + b.Pin + b.IOMMUMap }

// Start boots the container and returns the virtual-time boot duration:
//
//	base + hypervisor-per-GiB overhead            (PinOnDemand)
//	base + overhead + full guest pin + IOMMU map  (PinFull)
//
// In full-pin mode the whole guest-physical space is also installed in
// the IOMMU (DA == GPA) so assigned devices can DMA anywhere, which is
// exactly why everything must be pinned.
func (c *Container) Start(mode PinMode) (sim.Duration, error) {
	spans, err := c.StartDetailed(mode)
	return spans.Total(), err
}

// StartDetailed boots the container like Start but returns the boot
// time decomposed into spans, so fleet experiments can attribute
// cold-start latency to pinning versus hypervisor overhead.
func (c *Container) StartDetailed(mode PinMode) (BootSpans, error) {
	if c.stopped {
		// Stop freed the guest RAM; a restart would pin a dead region.
		// Restart re-provisions the container and clears this guard.
		return BootSpans{}, ErrStopped
	}
	if c.running {
		return BootSpans{}, ErrAlreadyStarted
	}
	spans := BootSpans{
		Base:       baseBootTime,
		Hypervisor: sim.Duration(float64(c.cfg.MemoryBytes) / float64(1<<30) * float64(hypervisorPerGiB)),
	}
	if mode == PinFull {
		pinCost, err := c.hyp.complex.Memory().PinAll(c.guest)
		if err != nil {
			return BootSpans{}, err
		}
		spans.Pin = pinCost
		mapCost, err := c.hyp.complex.IOMMU().Map(
			addr.NewDARange(addr.DA(c.daBase()), c.cfg.MemoryBytes), addr.HPA(c.guest.HPA.Start))
		if err != nil {
			return BootSpans{}, err
		}
		spans.IOMMUMap = mapCost
	}
	c.mode = mode
	c.running = true
	return spans, nil
}

// Restart resets a stopped container so it can boot again — the legal
// RESET path churn uses to recycle a container slot instead of
// allocating a fresh MicroVM. Stop freed the guest RAM and detached
// every device, so Restart re-provisions from scratch: new backing
// region, fresh EPT and guest page table, allocator cursors rewound,
// and the quiesce-hook / DMA-fence lists cleared (their owners died
// with the old instance; a recycled container needs a new pvdma
// manager). The previous TeardownLog is preserved until the next Stop.
// Boot cost is paid by the following Start call.
func (c *Container) Restart() error {
	if c.running {
		return ErrAlreadyStarted
	}
	if !c.stopped {
		return ErrNotStopped
	}
	if _, taken := c.hyp.containers[c.cfg.Name]; taken {
		return fmt.Errorf("rund: restart %s: name in use by another container", c.cfg.Name)
	}
	guest, err := c.hyp.complex.Memory().Allocate(c.cfg.MemoryBytes, c.cfg.Name+"-ram")
	if err != nil {
		return err
	}
	ept := pagetable.NewEPT()
	if err := ept.Map(addr.NewGPARange(0, c.cfg.MemoryBytes), addr.HPA(guest.HPA.Start)); err != nil {
		_ = c.hyp.complex.Memory().Free(guest)
		return err
	}
	c.guest = guest
	c.ept = ept
	c.guestPT = pagetable.NewGuestPT()
	c.nextGVA = 0x7f00_0000_0000
	c.nextGPA = addr.PageSize2M
	c.shmNext = shmBase
	c.assigned = nil
	c.stopHooks = nil
	c.fences = nil
	c.stopped = false
	c.mode = 0
	c.hyp.containers[c.cfg.Name] = c
	return nil
}

// daBase is where this container's GPA space sits in the shared IOMMU
// DA space. Each container gets a disjoint window keyed off its backing
// region's HPA, mirroring per-container IOMMU domains without modelling
// PASIDs explicitly.
func (c *Container) daBase() uint64 { return 1<<46 + c.guest.HPA.Start }

// GPAToDA converts a guest-physical address to the device address an
// assigned device must use for DMA into this container.
func (c *Container) GPAToDA(gpa addr.GPA) addr.DA { return addr.DA(c.daBase() + uint64(gpa)) }

// AssignDevice attaches a PCIe endpoint to the container VFIO-style. It
// requires full-pin mode: with on-demand pinning a VFIO device could DMA
// into unpinned, swappable memory and crash the guest driver
// (Problem ②).
func (c *Container) AssignDevice(ep *pcie.Endpoint) error {
	if !c.running {
		return ErrNotRunning
	}
	if c.mode != PinFull {
		return fmt.Errorf("%w: container %s is in %v mode", ErrNeedsFullPin, c.cfg.Name, c.mode)
	}
	// Map the device's BARs into guest-physical space so the guest
	// driver can program it directly.
	for _, bar := range ep.BARs() {
		gpa := c.AllocSHMWindow(bar.Window.Size) // BARs live outside RAM GPA
		if err := c.ept.Map(addr.NewGPARange(gpa, bar.Window.Size), addr.HPA(bar.Window.Start)); err != nil {
			return err
		}
	}
	c.assigned = append(c.assigned, ep)
	return nil
}

// AssignedDevices returns the endpoints attached via VFIO.
func (c *Container) AssignedDevices() []*pcie.Endpoint { return c.assigned }

// AllocGuestBuffer carves size bytes out of guest RAM, returning both
// the application's GVA range and its backing GPA range, with the
// guest-page-table entry installed.
func (c *Container) AllocGuestBuffer(size uint64) (addr.GVARange, addr.GPARange, error) {
	size = addr.AlignUp(size, addr.PageSize4K)
	if c.nextGPA+size > c.cfg.MemoryBytes {
		return addr.GVARange{}, addr.GPARange{}, fmt.Errorf("%w: want %d", ErrGuestMemory, size)
	}
	gva := addr.NewGVARange(addr.GVA(c.nextGVA), size)
	gpa := addr.NewGPARange(addr.GPA(c.nextGPA), size)
	c.nextGVA += size
	c.nextGPA += size
	if err := c.guestPT.Map(gva, addr.GPA(gpa.Start)); err != nil {
		return addr.GVARange{}, addr.GPARange{}, err
	}
	return gva, gpa, nil
}

// AllocGuestBufferAt carves a buffer at a caller-chosen GPA (used by
// tests reproducing Figure 5's adjacency hazard). The GVA side still
// comes from the allocator.
func (c *Container) AllocGuestBufferAt(gpa addr.GPA, size uint64) (addr.GVARange, error) {
	size = addr.AlignUp(size, addr.PageSize4K)
	if uint64(gpa)+size > c.cfg.MemoryBytes {
		return addr.GVARange{}, fmt.Errorf("%w: %v+%d", ErrGuestMemory, gpa, size)
	}
	gva := addr.NewGVARange(addr.GVA(c.nextGVA), size)
	c.nextGVA += size
	if err := c.guestPT.Map(gva, gpa); err != nil {
		return addr.GVARange{}, err
	}
	return gva, nil
}

// DirectMapDevice punches a hole in the container's RAM EPT mapping at
// gpa and maps the device window there instead — the legacy placement
// of the vStellar virtual doorbell (Figure 5 step 1). The hole is what
// makes the PVDMA aliasing hazard possible.
func (c *Container) DirectMapDevice(gpa addr.GPA, hpa addr.HPARange) error {
	r := addr.NewGPARange(gpa, hpa.Size)
	c.ept.Punch(r)
	return c.ept.Map(r, addr.HPA(hpa.Start))
}

// ReleaseDirectMap removes a direct device mapping. If the GPA lies in
// guest RAM, the original RAM backing is restored — which is how the OS
// can later reuse the address for ordinary memory (Figure 5 step 5's
// Cmd Q').
func (c *Container) ReleaseDirectMap(gpa addr.GPA, size uint64) error {
	if err := c.ept.Unmap(gpa); err != nil {
		return err
	}
	if uint64(gpa)+size <= c.cfg.MemoryBytes {
		return c.ept.Map(addr.NewGPARange(gpa, size), addr.HPA(c.guest.HPA.Start+uint64(gpa)))
	}
	return nil
}

// AllocSHMWindow reserves a window in the virtio shared-memory I/O
// space: guest-physical addresses guaranteed disjoint from RAM. Stellar
// maps the vDB here so PVDMA's 2 MiB blocks can never alias it (§5).
func (c *Container) AllocSHMWindow(size uint64) addr.GPA {
	size = addr.AlignUp(size, addr.PageSize4K)
	g := c.shmNext
	c.shmNext += size
	return addr.GPA(g)
}

// InSHMWindow reports whether gpa lies in the shm I/O space rather than
// guest RAM.
func InSHMWindow(gpa addr.GPA) bool { return uint64(gpa) >= shmBase }

// MapSHM installs an EPT mapping from an shm-window GPA to a host
// physical range (e.g. the RNIC doorbell page).
func (c *Container) MapSHM(gpa addr.GPA, hpa addr.HPARange) error {
	if !InSHMWindow(gpa) {
		return fmt.Errorf("rund: %v is not in the shm window", gpa)
	}
	return c.ept.Map(addr.NewGPARange(gpa, hpa.Size), addr.HPA(hpa.Start))
}

// TranslateGVA walks GVA -> GPA -> HPA for CPU accesses from the guest.
func (c *Container) TranslateGVA(gva addr.GVA) (addr.HPA, error) {
	gpa, ok := c.guestPT.Translate(gva)
	if !ok {
		return 0, fmt.Errorf("rund: %v unmapped in guest PT", gva)
	}
	hpa, ok := c.ept.Translate(gpa)
	if !ok {
		return 0, fmt.Errorf("rund: %v unmapped in EPT", gpa)
	}
	return hpa, nil
}

// Stop tears the container down crash-safely, in strict order:
//
//  1. quiesce — run every OnStop hook (device-side teardown: QP
//     reset, ATC flush) so assigned hardware stops issuing new DMA;
//  2. fence — force-release every registered DMA manager's mappings
//     through the existing refcounts (IOMMU entries out, pages
//     unpinned), so no in-flight translation can land in guest RAM;
//  3. unmap — tear down the full-pin IOMMU window (PinFull mode) and
//     detach assigned devices;
//  4. unpin + free — only now release guest RAM back to the host.
//
// The ordering is what makes the teardown crash-safe: memory is
// unpinned and freed only after no device path can reach it. Each
// executed step is recorded in TeardownLog so tests can assert the
// order; errors are collected and joined, never short-circuiting the
// remaining steps — a teardown must always finish.
func (c *Container) Stop() error {
	if !c.running {
		return ErrNotRunning
	}
	c.running = false
	c.stopped = true
	c.teardown = c.teardown[:0]
	var errs []error
	for _, h := range c.stopHooks {
		if err := h.fn(); err != nil {
			errs = append(errs, fmt.Errorf("rund: quiesce %s: %w", h.name, err))
		}
		c.teardown = append(c.teardown, "quiesce:"+h.name)
	}
	for _, f := range c.fences {
		refs := f.f.InflightRefs()
		n := f.f.FenceDMA()
		c.teardown = append(c.teardown,
			fmt.Sprintf("fence:%s(mappings=%d,refs=%d)", f.name, n, refs))
	}
	if c.mode == PinFull {
		// Best-effort: the IOMMU window may already be gone in tests
		// that manipulate it directly.
		_ = c.hyp.complex.IOMMU().Unmap(addr.DA(c.daBase()))
		c.teardown = append(c.teardown, "unmap-iommu")
	}
	c.assigned = nil
	if err := c.hyp.complex.Memory().UnpinAll(c.guest); err != nil {
		errs = append(errs, fmt.Errorf("rund: unpin: %w", err))
	}
	c.teardown = append(c.teardown, "unpin")
	if err := c.hyp.complex.Memory().Free(c.guest); err != nil {
		errs = append(errs, fmt.Errorf("rund: free: %w", err))
	}
	c.teardown = append(c.teardown, "free-ram")
	delete(c.hyp.containers, c.cfg.Name)
	return errors.Join(errs...)
}

// IOMMU is a convenience accessor for the host IOMMU.
func (h *Hypervisor) IOMMU() *iommu.IOMMU { return h.complex.IOMMU() }

// Memory is a convenience accessor for host memory.
func (h *Hypervisor) Memory() *mem.Memory { return h.complex.Memory() }
