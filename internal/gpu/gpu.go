// Package gpu models the GPU as a PCIe endpoint: device memory exposed
// through a BAR (the GDR target), command queues fetched by DMA, and a
// DMA engine that issues untranslated TLPs through the fabric. It is
// deliberately not a compute model — every figure in the paper that
// involves a GPU depends only on its memory and DMA behaviour.
package gpu

import (
	"errors"
	"fmt"

	"repro/internal/addr"
	"repro/internal/pcie"
	"repro/internal/sim"
)

// Errors returned by the GPU model.
var (
	ErrOutOfDeviceMemory = errors.New("gpu: device memory exhausted")
	ErrCorruptFetch      = errors.New("gpu: command fetch reached a non-memory target")
	ErrFreeUnknown       = errors.New("gpu: free of unknown allocation")
)

// GPU is one device instance.
type GPU struct {
	ep      *pcie.Endpoint
	complex *pcie.Complex
	bar     addr.HPARange

	next   uint64
	allocs map[uint64]uint64 // offset -> size
}

// New attaches a GPU with memBytes of device memory under sw.
func New(c *pcie.Complex, sw *pcie.Switch, name string, memBytes uint64) (*GPU, error) {
	ep, err := sw.AttachEndpoint(name)
	if err != nil {
		return nil, err
	}
	window := c.AllocBARWindow(memBytes)
	if err := ep.AddBAR(pcie.BAR{Window: window, Owner: addr.OwnerGPU, Name: name + "-mem"}); err != nil {
		return nil, err
	}
	return &GPU{
		ep:      ep,
		complex: c,
		bar:     window,
		allocs:  make(map[uint64]uint64),
	}, nil
}

// BAR returns the device-memory window in HPA space.
func (g *GPU) BAR() addr.HPARange { return g.bar }

// AllocDeviceMemory reserves size bytes of device memory, returning its
// HPA window inside the BAR (what an RNIC targets for GDR).
func (g *GPU) AllocDeviceMemory(size uint64) (addr.HPARange, error) {
	size = addr.AlignUp(size, addr.PageSize4K)
	if g.next+size > g.bar.Size {
		return addr.HPARange{}, fmt.Errorf("%w: want %d, free %d", ErrOutOfDeviceMemory, size, g.bar.Size-g.next)
	}
	off := g.next
	g.next += size
	g.allocs[off] = size
	return addr.NewHPARange(addr.HPA(g.bar.Start+off), size), nil
}

// FreeDeviceMemory releases an allocation by its HPA window.
func (g *GPU) FreeDeviceMemory(r addr.HPARange) error {
	off := r.Start - g.bar.Start
	if _, ok := g.allocs[off]; !ok {
		return fmt.Errorf("%w: %v", ErrFreeUnknown, r)
	}
	delete(g.allocs, off)
	return nil
}

// AllocatedBytes reports total live device-memory allocations.
func (g *GPU) AllocatedBytes() uint64 {
	var n uint64
	for _, s := range g.allocs {
		n += s
	}
	return n
}

// DMARead issues an untranslated DMA read of size bytes at device
// address da (e.g. fetching a command queue from guest memory). The
// IOMMU resolves the DA; the returned delivery says where the read
// actually landed.
func (g *GPU) DMARead(da addr.DA, size uint64) (pcie.Delivery, error) {
	return g.complex.DMA(pcie.TLP{Source: g.ep, Addr: uint64(da), Size: size, AT: pcie.ATUntranslated})
}

// DMAWrite issues an untranslated DMA write (e.g. GPUDirect Async
// ringing an RNIC doorbell through the IOMMU).
func (g *GPU) DMAWrite(da addr.DA, size uint64) (pcie.Delivery, error) {
	return g.complex.DMA(pcie.TLP{Source: g.ep, Addr: uint64(da), Size: size, AT: pcie.ATUntranslated, Write: true})
}

// FetchCommands models the GPU reading its command queue at da. A fetch
// that routes anywhere but main memory is the corruption of Figure 5
// step 5 — the GPU reading the RNIC's doorbell register as if it were
// commands — and returns ErrCorruptFetch with the delivery attached.
func (g *GPU) FetchCommands(da addr.DA, size uint64) (pcie.Delivery, sim.Duration, error) {
	d, err := g.DMARead(da, size)
	if err != nil {
		return d, 0, err
	}
	if d.Route != pcie.RouteToMemory {
		return d, d.Latency, fmt.Errorf("%w: command fetch at %v landed on %s via %s",
			ErrCorruptFetch, da, d.Target.Name(), d.Route)
	}
	return d, d.Latency, nil
}
