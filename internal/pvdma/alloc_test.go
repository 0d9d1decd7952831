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

// TestFreshManagerLeafAllocBudget is a container lifecycle's Map Cache
// cycle: a new Manager, MapDMA of 128 MiB (one full leaf), FenceDMA.
// After warm-up the leaf comes from the pool the previous manager's
// fence returned it to, so the cycle allocates only the Manager and its
// directory.
func TestFreshManagerLeafAllocBudget(t *testing.T) {
	w := newWorld(t, Config{})
	const size = leafSlots * addr.PageSize2M
	g := addr.GPA(size) // leaf-aligned, so the range fills exactly one leaf
	if n := testing.AllocsPerRun(100, func() {
		m := New(w.container, Config{})
		if _, err := m.MapDMA(g, size); err != nil {
			t.Fatal(err)
		}
		if len(m.dir) != 1 || m.dir[0].live != leafSlots {
			t.Fatalf("MapDMA of %d MiB used %d leaves", size>>20, len(m.dir))
		}
		if m.FenceDMA() != leafSlots {
			t.Fatal("FenceDMA missed blocks")
		}
	}); n > 2 {
		t.Errorf("allocs = %v, want at most 2 (the Manager and its directory)", n)
	}
}

// TestPooledLeafIsZero: a leaf goes back to the pool only once every
// slot is zero, so the next manager to take it inherits no refcount, no
// IOMMU entry, no pin and no split flag. The leaf here holds plain
// blocks, a block with an extra reference and a block a direct-mapped
// doorbell splits; half its blocks leave by release, the rest by fence.
func TestPooledLeafIsZero(t *testing.T) {
	w := newWorld(t, Config{})
	const size = leafSlots * addr.PageSize2M
	g := addr.GPA(size)
	db, err := w.rnic.AllocDoorbell()
	if err != nil {
		t.Fatal(err)
	}
	if err := w.container.DirectMapDevice(g+addr.PageSize2M+addr.PageSize4K, db); err != nil {
		t.Fatal(err)
	}
	if _, err := w.mgr.MapDMA(g, size); err != nil {
		t.Fatal(err)
	}
	if _, err := w.mgr.MapDMA(g, addr.PageSize4K); err != nil {
		t.Fatal(err)
	}
	l := w.mgr.dir[0].slots
	if l[0].refs != 2 || !l[1].split {
		t.Fatalf("block 0 holds %d refs, block 1 split = %v: the leaf misses a slot kind", l[0].refs, l[1].split)
	}
	if err := w.mgr.ReleaseDMA(g, size/2); err != nil {
		t.Fatal(err)
	}
	if n := w.mgr.FenceDMA(); n != leafSlots/2+1 || len(w.mgr.dir) != 0 {
		t.Fatalf("FenceDMA evicted %d blocks and left %d leaves", n, len(w.mgr.dir))
	}
	for i := range l {
		if l[i] != (slot{}) {
			t.Fatalf("pooled leaf slot %d = %+v, want zero", i, l[i])
		}
	}
	if p := leafPool.Get().(*leaf); *p != (leaf{}) {
		t.Error("the pool handed out a leaf that is not zero")
	}
}
