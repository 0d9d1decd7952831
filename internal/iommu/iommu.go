// Package iommu models the Input-Output Memory Management Unit in the
// Root Complex: the DA/GPA→HPA translation table, the IOTLB that caches
// walks, and the Address Translation Service (ATS) responder that PCIe
// devices query (Figure 1c, step ④). Its cost model produces the IOTLB
// pressure the paper measures with pcm-iio in Figure 8.
package iommu

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/addr"
	"repro/internal/pagetable"
	"repro/internal/sim"
)

// Mode selects the kernel iommu= setting. The paper's Problem ④ (§3.1)
// is that on some platforms ATS cannot be enabled in pt mode, forcing
// nopt and hurting host TCP DMA.
type Mode uint8

const (
	// ModeNoPT translates every device access through the IOMMU table.
	ModeNoPT Mode = iota
	// ModePT passes device addresses through untranslated (DA == HPA).
	ModePT
)

func (m Mode) String() string {
	switch m {
	case ModeNoPT:
		return "nopt"
	case ModePT:
		return "pt"
	default:
		return fmt.Sprintf("Mode(%d)", uint8(m))
	}
}

// Errors returned by the IOMMU.
var (
	ErrFault       = errors.New("iommu: translation fault")
	ErrATSDisabled = errors.New("iommu: ATS not available")
	ErrATSConflict = errors.New("iommu: ATS cannot be enabled in pt mode on this platform")
)

// The IOMMU's cost model: latencies representative of a current x86
// server.
const (
	// iotlbHitLatency is the translation cost on an IOTLB hit.
	iotlbHitLatency sim.Duration = 60 * time.Nanosecond
	// pageWalkLatency is the added cost of walking the I/O page table on
	// an IOTLB miss.
	pageWalkLatency sim.Duration = 320 * time.Nanosecond
	// atsRequestLatency is the PCIe round-trip a device pays to ask the
	// IOMMU for a translation (on top of hit/walk cost).
	atsRequestLatency sim.Duration = 700 * time.Nanosecond
	// mapLatency is the host-side cost of installing one mapping entry
	// (IOMMU register programming, not page pinning — that is billed by
	// internal/mem).
	mapLatency sim.Duration = 2 * time.Microsecond
	// pageSize is the translation granularity for the IOTLB.
	pageSize uint64 = addr.PageSize4K
)

// Config parameterises the IOMMU model.
type Config struct {
	Mode Mode
	// ATSEnabled allows devices to issue translation requests and cache
	// results in their ATC.
	ATSEnabled bool
	// PlatformATSPTConflict reproduces the server model from Problem ④
	// where ATS and iommu=pt are mutually exclusive.
	PlatformATSPTConflict bool

	// IOTLBCapacity is the number of page translations the IOTLB holds;
	// New fills a zero value with DefaultConfig's.
	IOTLBCapacity int
}

// DefaultConfig returns the production IOMMU: nopt with ATS.
func DefaultConfig() Config {
	return Config{
		Mode:          ModeNoPT,
		ATSEnabled:    true,
		IOTLBCapacity: 8192,
	}
}

// IOMMU is one Root Complex IOMMU instance.
type IOMMU struct {
	cfg   Config
	table *pagetable.Table
	iotlb *pagetable.TLB

	walks       uint64
	atsRequests uint64
	faults      uint64
}

// New builds an IOMMU. It returns ErrATSConflict if the configuration
// asks for ATS in pt mode on a conflicted platform (Problem ④), so the
// caller must choose: nopt (hurting host TCP) or no ATS (hurting GDR).
func New(cfg Config) (*IOMMU, error) {
	if cfg.IOTLBCapacity == 0 {
		cfg.IOTLBCapacity = DefaultConfig().IOTLBCapacity
	}
	if cfg.ATSEnabled && cfg.Mode == ModePT && cfg.PlatformATSPTConflict {
		return nil, ErrATSConflict
	}
	return &IOMMU{
		cfg:   cfg,
		table: pagetable.New("iommu"),
		iotlb: pagetable.NewTLB(cfg.IOTLBCapacity, pageSize),
	}, nil
}

// Config returns the active configuration.
func (u *IOMMU) Config() Config { return u.cfg }

// Walks returns the number of I/O page-table walks performed.
func (u *IOMMU) Walks() uint64 { return u.walks }

// ATSRequests returns how many device translation requests were served.
func (u *IOMMU) ATSRequests() uint64 { return u.atsRequests }

// Faults returns the number of failed translations.
func (u *IOMMU) Faults() uint64 { return u.faults }

// IOTLB exposes the translation cache for counter inspection.
func (u *IOMMU) IOTLB() *pagetable.TLB { return u.iotlb }

// Map installs a DA→HPA mapping and returns the programming cost.
func (u *IOMMU) Map(da addr.DARange, hpa addr.HPA) (sim.Duration, error) {
	if err := u.table.Map(da.Range, uint64(hpa)); err != nil {
		return 0, err
	}
	return mapLatency, nil
}

// Unmap removes the mapping starting at da and invalidates the IOTLB
// pages it covered.
func (u *IOMMU) Unmap(da addr.DA) error {
	src, err := u.table.Unmap(uint64(da))
	if err != nil {
		return fmt.Errorf("%w: unmap %v", pagetable.ErrNotFound, da)
	}
	u.iotlb.InvalidateRange(src.Start, src.Size)
	return nil
}

// LookupRange returns the mapping entry covering da, if any.
func (u *IOMMU) LookupRange(da addr.DA) (addr.DARange, addr.HPA, bool) {
	src, dst, ok := u.table.LookupRange(uint64(da))
	return addr.DARange{Range: src}, addr.HPA(dst), ok
}

// Entries returns the number of installed mappings.
func (u *IOMMU) Entries() int { return u.table.Len() }

// Translate resolves a device address to an HPA, charging IOTLB/walk
// costs. In pt mode the address passes through for free.
func (u *IOMMU) Translate(da addr.DA) (addr.HPA, sim.Duration, error) {
	if u.cfg.Mode == ModePT {
		return addr.HPA(da), 0, nil
	}
	if hpa, ok := u.iotlb.Lookup(uint64(da)); ok {
		return addr.HPA(hpa), iotlbHitLatency, nil
	}
	hpa, ok := u.table.Translate(uint64(da))
	if !ok {
		u.faults++
		return 0, iotlbHitLatency + pageWalkLatency,
			fmt.Errorf("%w: %v", ErrFault, da)
	}
	u.walks++
	u.iotlb.Insert(uint64(da), hpa)
	return addr.HPA(hpa), iotlbHitLatency + pageWalkLatency, nil
}

// ATSTranslate serves a device's Address Translation Service request
// (Figure 1c step ④): the device pays the PCIe round trip plus the
// IOMMU-side translation cost, and caches the result in its own ATC.
func (u *IOMMU) ATSTranslate(da addr.DA) (addr.HPA, sim.Duration, error) {
	if !u.cfg.ATSEnabled {
		return 0, 0, ErrATSDisabled
	}
	u.atsRequests++
	hpa, cost, err := u.Translate(da)
	return hpa, cost + atsRequestLatency, err
}
