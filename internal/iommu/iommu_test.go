package iommu

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/addr"
	"repro/internal/pagetable"
)

func newTestIOMMU(t *testing.T, cfg Config) *IOMMU {
	t.Helper()
	u, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return u
}

func TestTranslateHitMissFault(t *testing.T) {
	u := newTestIOMMU(t, Config{Mode: ModeNoPT})
	if _, err := u.Map(addr.NewDARange(0x10000, addr.PageSize4K), addr.HPA(0xA0000)); err != nil {
		t.Fatal(err)
	}

	// First access: IOTLB miss, page walk.
	hpa, cost1, err := u.Translate(0x10010)
	if err != nil || hpa != 0xA0010 {
		t.Fatalf("Translate = %v,%v", hpa, err)
	}
	if u.Walks() != 1 {
		t.Errorf("Walks = %d, want 1", u.Walks())
	}

	// Second access to same page: IOTLB hit, cheaper.
	_, cost2, err := u.Translate(0x10020)
	if err != nil {
		t.Fatal(err)
	}
	if cost2 >= cost1 {
		t.Errorf("IOTLB hit cost %v not cheaper than miss cost %v", cost2, cost1)
	}
	if u.Walks() != 1 {
		t.Errorf("Walks after hit = %d, want 1", u.Walks())
	}

	// Unmapped address faults.
	if _, _, err := u.Translate(0xDEAD0000); !errors.Is(err, ErrFault) {
		t.Errorf("fault err = %v", err)
	}
	if u.Faults() != 1 {
		t.Errorf("Faults = %d", u.Faults())
	}
}

func TestPTModePassthrough(t *testing.T) {
	u := newTestIOMMU(t, Config{Mode: ModePT})
	hpa, cost, err := u.Translate(0x123456)
	if err != nil || hpa != 0x123456 || cost != 0 {
		t.Errorf("pt passthrough = %v,%v,%v", hpa, cost, err)
	}
}

func TestATSPTConflict(t *testing.T) {
	_, err := New(Config{Mode: ModePT, ATSEnabled: true, PlatformATSPTConflict: true})
	if !errors.Is(err, ErrATSConflict) {
		t.Errorf("err = %v, want ErrATSConflict", err)
	}
	// Without the platform quirk, pt+ATS is allowed.
	if _, err := New(Config{Mode: ModePT, ATSEnabled: true}); err != nil {
		t.Errorf("unexpected conflict: %v", err)
	}
	// nopt+ATS always works (the paper's production setting).
	if _, err := New(Config{Mode: ModeNoPT, ATSEnabled: true, PlatformATSPTConflict: true}); err != nil {
		t.Errorf("nopt+ATS err = %v", err)
	}
}

func TestATSTranslate(t *testing.T) {
	u := newTestIOMMU(t, Config{Mode: ModeNoPT, ATSEnabled: true})
	u.Map(addr.NewDARange(0x2000, addr.PageSize4K), addr.HPA(0xB000))
	hpa, cost, err := u.ATSTranslate(0x2004)
	if err != nil || hpa != 0xB004 {
		t.Fatalf("ATSTranslate = %v,%v", hpa, err)
	}
	_, plainCost, _ := u.Translate(0x2008)
	if cost <= plainCost {
		t.Errorf("ATS cost %v should exceed local translate cost %v (PCIe round trip)", cost, plainCost)
	}
	if u.ATSRequests() != 1 {
		t.Errorf("ATSRequests = %d", u.ATSRequests())
	}
}

func TestATSDisabled(t *testing.T) {
	u := newTestIOMMU(t, Config{Mode: ModeNoPT, ATSEnabled: false})
	if _, _, err := u.ATSTranslate(0x1000); !errors.Is(err, ErrATSDisabled) {
		t.Errorf("err = %v, want ErrATSDisabled", err)
	}
}

func TestUnmapInvalidatesIOTLB(t *testing.T) {
	u := newTestIOMMU(t, Config{Mode: ModeNoPT})
	u.Map(addr.NewDARange(0x3000, addr.PageSize4K), addr.HPA(0xC000))
	u.Translate(0x3000) // warm the IOTLB
	if err := u.Unmap(0x3000); err != nil {
		t.Fatal(err)
	}
	if _, _, err := u.Translate(0x3000); !errors.Is(err, ErrFault) {
		t.Errorf("stale IOTLB entry served after Unmap: err = %v", err)
	}
	if err := u.Unmap(0x3000); !errors.Is(err, pagetable.ErrNotFound) {
		t.Errorf("double Unmap err = %v", err)
	}
	// Unmap must be by exact start.
	u.Map(addr.NewDARange(0x4000, 2*addr.PageSize4K), addr.HPA(0xD000))
	if err := u.Unmap(0x5000); !errors.Is(err, pagetable.ErrNotFound) {
		t.Errorf("mid-range Unmap err = %v", err)
	}
}

func TestUnmapKeepsRegionNeighbourCached(t *testing.T) {
	// Two 4 KiB mappings in one 2 MiB region: unmapping one must drop
	// only its own IOTLB page.
	u := newTestIOMMU(t, Config{Mode: ModeNoPT})
	u.Map(addr.NewDARange(0x3000, addr.PageSize4K), addr.HPA(0xC000))
	u.Map(addr.NewDARange(0x4000, addr.PageSize4K), addr.HPA(0xD000))
	u.Translate(0x3000)
	u.Translate(0x4000)
	if err := u.Unmap(0x3000); err != nil {
		t.Fatal(err)
	}
	walks, hits := u.Walks(), u.IOTLB().Hits()
	hpa, _, err := u.Translate(0x4010)
	if err != nil || hpa != 0xD010 {
		t.Fatalf("neighbour Translate = %v,%v", hpa, err)
	}
	if u.Walks() != walks || u.IOTLB().Hits() != hits+1 {
		t.Errorf("neighbour not an IOTLB hit: walks %d->%d, hits %d->%d", walks, u.Walks(), hits, u.IOTLB().Hits())
	}
	if u.IOTLB().Len() != 1 {
		t.Errorf("IOTLB Len = %d, want 1", u.IOTLB().Len())
	}
}

func TestIOTLBThrashRaisesWalks(t *testing.T) {
	// Working set larger than IOTLB: every sequential access walks. This
	// is the mechanism behind Figure 8's >32 MB degradation.
	u := newTestIOMMU(t, Config{Mode: ModeNoPT, IOTLBCapacity: 64})
	const pages = 128
	u.Map(addr.NewDARange(0, pages*addr.PageSize4K), addr.HPA(1<<30))
	for round := 0; round < 4; round++ {
		for p := uint64(0); p < pages; p++ {
			if _, _, err := u.Translate(addr.DA(p * addr.PageSize4K)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if u.IOTLB().Hits() != 0 {
		t.Errorf("over-capacity sequential scan got %d IOTLB hits, want 0", u.IOTLB().Hits())
	}
	if u.Walks() != 4*pages {
		t.Errorf("Walks = %d, want %d", u.Walks(), 4*pages)
	}
}

func TestMapOverlapRejected(t *testing.T) {
	u := newTestIOMMU(t, Config{Mode: ModeNoPT})
	if _, err := u.Map(addr.NewDARange(0x1000, addr.PageSize2M), addr.HPA(0x100000)); err != nil {
		t.Fatal(err)
	}
	if _, err := u.Map(addr.NewDARange(0x1000+addr.PageSize4K, addr.PageSize4K), addr.HPA(0x200000)); !errors.Is(err, pagetable.ErrOverlap) {
		t.Errorf("overlap err = %v", err)
	}
	if u.Entries() != 1 {
		t.Errorf("Entries = %d", u.Entries())
	}
}

func TestLookupRange(t *testing.T) {
	u := newTestIOMMU(t, Config{Mode: ModeNoPT})
	u.Map(addr.NewDARange(0x8000, addr.PageSize2M), addr.HPA(0xF0000))
	src, hpa, ok := u.LookupRange(0x8000 + 0x1234)
	if !ok || src.Start != 0x8000 || hpa != 0xF0000 {
		t.Errorf("LookupRange = %v,%v,%v", src, hpa, ok)
	}
	if _, _, ok := u.LookupRange(0x1); ok {
		t.Error("LookupRange hit on unmapped address")
	}
}

func TestModeString(t *testing.T) {
	if ModePT.String() != "pt" || ModeNoPT.String() != "nopt" {
		t.Error("Mode strings")
	}
}

func TestMapRejectsWrap(t *testing.T) {
	u := newTestIOMMU(t, Config{Mode: ModeNoPT})
	top := addr.DA(^uint64(0) - addr.PageSize4K + 1)
	if _, err := u.Map(addr.NewDARange(top, addr.PageSize2M), addr.HPA(0x100000)); !errors.Is(err, pagetable.ErrWrap) {
		t.Errorf("wrapping Map err = %v, want ErrWrap", err)
	}
	if u.Entries() != 0 {
		t.Errorf("Entries = %d after a rejected Map", u.Entries())
	}
}

// TestUnmapRemovesOnlyItsEntry unmaps the first, a middle and the last of
// several 2 MiB entries: each leaves the others translating through the
// table and their IOTLB pages cached, and a miss keeps its error text.
func TestUnmapRemovesOnlyItsEntry(t *testing.T) {
	u := newTestIOMMU(t, Config{Mode: ModeNoPT})
	const n = 8
	da := func(j int) addr.DA { return addr.DA(1<<30 + uint64(j)*addr.PageSize2M) }
	for j := 0; j < n; j++ {
		if _, err := u.Map(addr.NewDARange(da(j), addr.PageSize2M), addr.HPA(1<<40+uint64(j)*addr.PageSize2M)); err != nil {
			t.Fatal(err)
		}
		u.Translate(da(j) + 0x10)
	}
	gone := map[int]bool{}
	for _, j := range []int{0, 4, n - 1} {
		if err := u.Unmap(da(j)); err != nil {
			t.Fatal(err)
		}
		gone[j] = true
		for k := 0; k < n; k++ {
			hpa, _, err := u.Translate(da(k) + 0x20)
			if gone[k] != (err != nil) {
				t.Fatalf("after Unmap(%v): Translate(%v) err = %v", da(j), da(k), err)
			}
			if err == nil && hpa != addr.HPA(1<<40+uint64(k)*addr.PageSize2M+0x20) {
				t.Fatalf("Translate(%v) = %v", da(k), hpa)
			}
		}
	}
	if u.Entries() != n-3 || u.IOTLB().Len() != n-3 {
		t.Errorf("Entries = %d, IOTLB Len = %d, want %d", u.Entries(), u.IOTLB().Len(), n-3)
	}
	err := u.Unmap(da(4))
	if want := fmt.Sprintf("%v: unmap %v", pagetable.ErrNotFound, da(4)); err == nil || err.Error() != want {
		t.Errorf("Unmap miss err = %v, want %q", err, want)
	}
}
