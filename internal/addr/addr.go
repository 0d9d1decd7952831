// Package addr defines the address spaces of the memory mapping hierarchy
// described in §2 of the Stellar paper (Figure 1a): guest virtual (GVA),
// guest physical (GPA), host physical (HPA), and PCIe device addresses
// (DA). No modelled path crosses the host's own virtual space, so it
// has no type. Keeping each space a distinct Go type means the
// compiler rejects the class of bug the paper's Problem ⑤ illustrates —
// an address from one layer being interpreted in another.
package addr

import "fmt"

// Page sizes used across the stack. The PVDMA hazard in §5 is precisely
// the interaction between the 4 KiB doorbell mapping granularity and
// PVDMA's 2 MiB pinning granularity.
const (
	PageSize4K = 4 << 10
	PageSize2M = 2 << 20
	PageSize1G = 1 << 30
)

// GVA is a guest virtual address: what an application inside a RunD
// container sees.
type GVA uint64

// GPA is a guest physical address: what the guest OS believes is physical.
type GPA uint64

// HPA is a host physical address — the only space the memory controller
// and PCIe fabric ultimately operate in.
type HPA uint64

// DA is a PCIe device address (I/O virtual address) translated by the
// IOMMU into HPA.
type DA uint64

func (a GVA) String() string { return fmt.Sprintf("GVA(%#x)", uint64(a)) }
func (a GPA) String() string { return fmt.Sprintf("GPA(%#x)", uint64(a)) }
func (a HPA) String() string { return fmt.Sprintf("HPA(%#x)", uint64(a)) }
func (a DA) String() string  { return fmt.Sprintf("DA(%#x)", uint64(a)) }

// AlignDown rounds a down to a multiple of pageSize (a power of two).
func AlignDown(a, pageSize uint64) uint64 { return a &^ (pageSize - 1) }

// AlignUp rounds a up to a multiple of pageSize (a power of two).
func AlignUp(a, pageSize uint64) uint64 { return (a + pageSize - 1) &^ (pageSize - 1) }

// IsAligned reports whether a is a multiple of pageSize.
func IsAligned(a, pageSize uint64) bool { return a&(pageSize-1) == 0 }

// PageCount returns how many pages of pageSize cover size bytes.
func PageCount(size, pageSize uint64) uint64 { return AlignUp(size, pageSize) / pageSize }

// Range is a half-open byte range [Start, Start+Size) in an unspecified
// address space; the typed wrappers below pin the space down.
type Range struct {
	Start uint64
	Size  uint64
}

// End returns the first address past the range.
func (r Range) End() uint64 { return r.Start + r.Size }

// Contains reports whether a lies inside the range.
func (r Range) Contains(a uint64) bool { return a >= r.Start && a < r.End() }

// Overlaps reports whether the two ranges share any byte.
func (r Range) Overlaps(o Range) bool {
	return r.Start < o.End() && o.Start < r.End()
}

// ContainsRange reports whether o lies entirely inside r.
func (r Range) ContainsRange(o Range) bool {
	return o.Start >= r.Start && o.End() <= r.End() && o.Size <= r.Size
}

func (r Range) String() string {
	return fmt.Sprintf("[%#x,%#x)", r.Start, r.End())
}

// GVARange, GPARange, HPARange and DARange are typed range
// aliases. They share Range's geometry helpers via embedding.
type (
	GVARange struct{ Range }
	GPARange struct{ Range }
	HPARange struct{ Range }
	DARange  struct{ Range }
)

// NewGVARange builds a typed guest-virtual range.
func NewGVARange(start GVA, size uint64) GVARange {
	return GVARange{Range{Start: uint64(start), Size: size}}
}

// NewGPARange builds a typed guest-physical range.
func NewGPARange(start GPA, size uint64) GPARange {
	return GPARange{Range{Start: uint64(start), Size: size}}
}

// NewHPARange builds a typed host-physical range.
func NewHPARange(start HPA, size uint64) HPARange {
	return HPARange{Range{Start: uint64(start), Size: size}}
}

// NewDARange builds a typed device-address range.
func NewDARange(start DA, size uint64) DARange {
	return DARange{Range{Start: uint64(start), Size: size}}
}

// MemoryOwner identifies which hardware owns a physical address. The eMTT
// (§6) stores this alongside each translation so the RNIC can route GDR
// TLPs directly to the GPU, bypassing the Root Complex.
type MemoryOwner uint8

const (
	// OwnerHostMemory marks main memory behind the Root Complex.
	OwnerHostMemory MemoryOwner = iota
	// OwnerGPU marks device memory exposed through a GPU BAR.
	OwnerGPU
)

func (o MemoryOwner) String() string {
	switch o {
	case OwnerHostMemory:
		return "host-memory"
	case OwnerGPU:
		return "gpu"
	default:
		return fmt.Sprintf("MemoryOwner(%d)", uint8(o))
	}
}
