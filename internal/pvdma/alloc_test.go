package pvdma

import (
	"testing"

	"repro/internal/addr"
)

// TestMapDMAHitAllocFree: a Map Cache hit allocates nothing.
func TestMapDMAHitAllocFree(t *testing.T) {
	w := newWorld(t, Config{})
	g := addr.GPA(addr.PageSize2M)
	if n := testing.AllocsPerRun(100, func() {
		if _, err := w.mgr.MapDMA(g, addr.PageSize4K); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("allocs = %v, want 0", n)
	}
}

// TestMapDMAMissReleaseAllocFree is the pvdma.ns_per_mapdma_miss probe's
// cycle: MapDMA of an uncached block (register, IOMMU map, pin), then
// ReleaseDMA (unmap, unpin, evict), walking blocks across leaves so
// emptied leaves are reused rather than reallocated.
func TestMapDMAMissReleaseAllocFree(t *testing.T) {
	w := newWorld(t, Config{})
	k := uint64(0)
	if n := testing.AllocsPerRun(200, func() {
		g := addr.GPA((1 + k%100) * addr.PageSize2M)
		k++
		if _, err := w.mgr.MapDMA(g, addr.PageSize4K); err != nil {
			t.Fatal(err)
		}
		if err := w.mgr.ReleaseDMA(g, addr.PageSize4K); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("allocs = %v, want 0", n)
	}
	if w.mgr.CachedBlocks() != 0 || w.mgr.Stats().PinnedBytes != 0 {
		t.Errorf("cycle left %d blocks, %d bytes pinned", w.mgr.CachedBlocks(), w.mgr.Stats().PinnedBytes)
	}
}
