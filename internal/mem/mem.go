// Package mem models host physical memory: allocation of HPA-backed
// regions, page pinning with a calibrated per-page cost, and the host
// OS's freedom to swap out unpinned pages. The pinning cost model is the
// substrate behind Figure 6: the paper reports that pinning a 1.6 TB RunD
// container takes ~390 s, which works out to roughly 1 µs per 4 KiB page
// of IOMMU interaction — the default used here.
//
// Regions are HPA-contiguous, a deliberate simplification: nothing in the
// paper's results depends on physical fragmentation, and contiguity keeps
// pinned-byte accounting arithmetic instead of per-page (a 1.6 TB
// container has 390 M pages; tracking them individually would make the
// simulator the bottleneck the paper ascribes to the hypervisor).
package mem

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"repro/internal/addr"
	"repro/internal/pagetable"
	"repro/internal/sim"
)

// Errors returned by memory operations.
var (
	ErrOutOfMemory   = errors.New("mem: out of physical memory")
	ErrPinnedSwap    = errors.New("mem: cannot swap out pinned memory")
	ErrFreedRegion   = errors.New("mem: operation on freed region")
	ErrNotInRegion   = errors.New("mem: range outside region")
	ErrDoublePin     = errors.New("mem: block already pinned")
	ErrNotPinned     = errors.New("mem: block not pinned")
	ErrUnalignedSize = errors.New("mem: size must be page aligned")
)

// pinCostPerPage4K is the hypervisor/IOMMU interaction cost to pin one
// 4 KiB page. Calibrated so 1.6 TB pins in ~390 s (paper §3.1
// Problem ②): 390 s / 390,625,000 pages ≈ 1 µs.
const pinCostPerPage4K sim.Duration = 998 * time.Nanosecond

// Config parameterises the memory model.
type Config struct {
	// TotalBytes is the physical memory size; zero means a large GPU
	// server's 2 TiB.
	TotalBytes uint64
}

// Memory is a host physical memory instance.
type Memory struct {
	cfg     Config
	next    uint64
	used    uint64
	pinned  uint64
	regions []*Region // sorted by HPA start
	// ledger is the host pin ledger: one sorted window of the absolute
	// HPA range of every PinBlock pin of every region. Regions are
	// disjoint HPA ranges, so each region's pins are one run of it.
	ledger *pagetable.Table
}

// New builds a memory of the configured size.
func New(cfg Config) *Memory {
	if cfg.TotalBytes == 0 {
		cfg.TotalBytes = 2 << 40
	}
	return &Memory{
		cfg:    cfg,
		next:   addr.PageSize4K, // keep HPA 0 unmapped
		ledger: pagetable.New("host-pins"),
	}
}

// Region is an HPA-contiguous allocation.
type Region struct {
	HPA   addr.HPARange
	Label string

	mem         *Memory
	freed       bool
	fullyPinned bool
	swappedOut  bool
	blockPins   int // entries this region holds in the host pin ledger
	pinnedBytes uint64
}

// UsedBytes returns currently allocated bytes.
func (m *Memory) UsedBytes() uint64 { return m.used }

// FreeBytes returns unallocated bytes.
func (m *Memory) FreeBytes() uint64 { return m.cfg.TotalBytes - m.used }

// PinnedBytes returns the total bytes pinned across all regions.
func (m *Memory) PinnedBytes() uint64 { return m.pinned }

// Allocate reserves a page-aligned HPA-contiguous region of size bytes.
func (m *Memory) Allocate(size uint64, label string) (*Region, error) {
	if size == 0 || !addr.IsAligned(size, addr.PageSize4K) {
		return nil, fmt.Errorf("%w: %d", ErrUnalignedSize, size)
	}
	if m.used+size > m.cfg.TotalBytes {
		return nil, fmt.Errorf("%w: want %d, free %d", ErrOutOfMemory, size, m.FreeBytes())
	}
	r := &Region{
		HPA:   addr.NewHPARange(addr.HPA(m.next), size),
		Label: label,
		mem:   m,
	}
	m.next += size
	m.used += size
	m.regions = append(m.regions, r)
	return r, nil
}

// Free releases the region. Pinned bytes are implicitly unpinned.
func (m *Memory) Free(r *Region) error {
	if r.freed {
		return ErrFreedRegion
	}
	r.freed = true
	m.used -= r.HPA.Size
	m.pinned -= r.pinnedBytes
	r.pinnedBytes = 0
	r.fullyPinned = false
	m.dropBlockPins(r)
	for i, reg := range m.regions {
		if reg == r {
			m.regions = append(m.regions[:i], m.regions[i+1:]...)
			break
		}
	}
	return nil
}

// Lookup returns the region containing hpa, or nil.
func (m *Memory) Lookup(hpa addr.HPA) *Region {
	i := sort.Search(len(m.regions), func(i int) bool {
		return m.regions[i].HPA.End() > uint64(hpa)
	})
	if i < len(m.regions) && m.regions[i].HPA.Contains(uint64(hpa)) {
		return m.regions[i]
	}
	return nil
}

// Resident reports whether the page containing hpa is currently backed
// (allocated and not swapped out). A DMA to a non-resident page is the
// crash mode of Problem ② in §3.1.
func (m *Memory) Resident(hpa addr.HPA) bool {
	r := m.Lookup(hpa)
	return r != nil && !r.swappedOut
}

// pinCost computes the virtual-time cost of pinning size bytes.
func (m *Memory) pinCost(size uint64) sim.Duration {
	pages := addr.PageCount(size, addr.PageSize4K)
	return sim.Duration(pages) * pinCostPerPage4K
}

// PinAll pins the whole region (the VFIO full-pin path). It returns the
// virtual-time cost of the operation. Pinning an already fully pinned
// region costs nothing.
func (m *Memory) PinAll(r *Region) (sim.Duration, error) {
	if r.freed {
		return 0, ErrFreedRegion
	}
	if r.fullyPinned {
		return 0, nil
	}
	cost := m.pinCost(r.HPA.Size - r.pinnedBytes)
	m.pinned += r.HPA.Size - r.pinnedBytes
	r.pinnedBytes = r.HPA.Size
	r.fullyPinned = true
	m.dropBlockPins(r)
	r.swappedOut = false
	return cost, nil
}

// UnpinAll releases a full pin (and any partial pins).
func (m *Memory) UnpinAll(r *Region) error {
	if r.freed {
		return ErrFreedRegion
	}
	m.pinned -= r.pinnedBytes
	r.pinnedBytes = 0
	r.fullyPinned = false
	m.dropBlockPins(r)
	return nil
}

// dropBlockPins removes the region's block pins from the host ledger,
// one cut of the window in place; their bytes are already accounted by
// the caller.
func (m *Memory) dropBlockPins(r *Region) {
	if r.blockPins == 0 {
		return
	}
	m.ledger.Punch(r.HPA.Range)
	r.blockPins = 0
}

// PinBlock pins a sub-range of the region (the PVDMA on-demand path).
// Offset and size must be 4 KiB aligned and inside the region. No page
// may be pinned twice: the caller (PVDMA's Map Cache) deduplicates, and
// a pin overlapping another indicates a caller bug.
func (m *Memory) PinBlock(r *Region, offset, size uint64) (sim.Duration, error) {
	if r.freed {
		return 0, ErrFreedRegion
	}
	if !addr.IsAligned(offset, addr.PageSize4K) || !addr.IsAligned(size, addr.PageSize4K) || size == 0 {
		return 0, fmt.Errorf("%w: offset %#x size %#x", ErrUnalignedSize, offset, size)
	}
	if offset+size > r.HPA.Size {
		return 0, fmt.Errorf("%w: [%#x,%#x) in region of %#x", ErrNotInRegion, offset, offset+size, r.HPA.Size)
	}
	if r.fullyPinned {
		return 0, ErrDoublePin
	}
	if err := m.ledger.Map(addr.Range{Start: r.HPA.Start + offset, Size: size}, 0); err != nil {
		return 0, ErrDoublePin
	}
	r.blockPins++
	r.pinnedBytes += size
	m.pinned += size
	r.swappedOut = false
	return m.pinCost(size), nil
}

// UnpinBlock releases a block previously pinned with PinBlock.
func (m *Memory) UnpinBlock(r *Region, offset uint64) error {
	if r.freed {
		return ErrFreedRegion
	}
	if offset >= r.HPA.Size {
		return ErrNotPinned
	}
	src, err := m.ledger.Unmap(r.HPA.Start + offset)
	if err != nil {
		return ErrNotPinned
	}
	r.blockPins--
	r.pinnedBytes -= src.Size
	m.pinned -= src.Size
	return nil
}

// BlockPinned reports whether the block at offset is pinned (by a block
// pin or a full pin).
func (r *Region) BlockPinned(offset uint64) bool {
	if r.fullyPinned {
		return true
	}
	if offset >= r.HPA.Size {
		return false
	}
	start := r.HPA.Start + offset
	src, _, ok := r.mem.ledger.LookupRange(start)
	return ok && src.Start == start
}

// PinnedBytes returns the pinned byte count of the region.
func (r *Region) PinnedBytes() uint64 { return r.pinnedBytes }

// FullyPinned reports whether the whole region is pinned.
func (r *Region) FullyPinned() bool { return r.fullyPinned }

// SwappedOut reports whether the host swapped the region out.
func (r *Region) SwappedOut() bool { return r.swappedOut }

// Freed reports whether the region has been released.
func (r *Region) Freed() bool { return r.freed }

// SwapOut evicts the region from physical memory, as the host OS may do
// under pressure. It fails if any byte is pinned — that is the entire
// point of pinning.
func (m *Memory) SwapOut(r *Region) error {
	if r.freed {
		return ErrFreedRegion
	}
	if r.pinnedBytes > 0 {
		return ErrPinnedSwap
	}
	r.swappedOut = true
	return nil
}
