package pagetable

import (
	"testing"

	"repro/internal/addr"
)

// fullIOTLB returns an 8192-entry IOTLB filled with 16 cached 2 MiB
// blocks, block j starting at j*stride.
func fullIOTLB(stride uint64) *TLB {
	c := NewTLB(8192, addr.PageSize4K)
	for j := uint64(0); j < 16; j++ {
		for p := uint64(0); p < regionPages; p++ {
			c.Insert(j*stride+p*addr.PageSize4K, p*addr.PageSize4K)
		}
	}
	return c
}

// TestTLBInvalidateRangeAllocFree pins InvalidateRange, the pvdma block
// eviction path, at zero allocations on both of its paths.
func TestTLBInvalidateRangeAllocFree(t *testing.T) {
	t.Run("uncached block", func(t *testing.T) {
		c := fullIOTLB(addr.PageSize2M)
		if n := testing.AllocsPerRun(100, func() {
			c.InvalidateRange(1<<40, addr.PageSize2M)
		}); n != 0 {
			t.Errorf("allocs = %v, want 0", n)
		}
	})
	// The cached cases drop one whole block per run: the warm-up run plus
	// 15 measured runs take all 16.
	t.Run("cached block", func(t *testing.T) {
		c := fullIOTLB(addr.PageSize2M)
		j := uint64(0)
		if n := testing.AllocsPerRun(15, func() {
			c.InvalidateRange(j*addr.PageSize2M, addr.PageSize2M)
			j++
		}); n != 0 {
			t.Errorf("allocs = %v, want 0", n)
		}
		if c.Len() != 0 {
			t.Errorf("Len = %d after dropping every block", c.Len())
		}
	})
	t.Run("many regions", func(t *testing.T) {
		// Each 1<<40 range spans 2^19 regions, more than the 16
		// occupied, so InvalidateRange ranges over the region index.
		const stride = 1 << 41
		c := fullIOTLB(stride)
		j := uint64(0)
		if n := testing.AllocsPerRun(15, func() {
			c.InvalidateRange(j*stride, 1<<40)
			j++
		}); n != 0 {
			t.Errorf("allocs = %v, want 0", n)
		}
		if c.Len() != 0 {
			t.Errorf("Len = %d after dropping every block", c.Len())
		}
	})
}

// TestTLBInsertEvictAllocFree pins insert-at-capacity at zero
// allocations: the evicted LRU node carries the new entry.
func TestTLBInsertEvictAllocFree(t *testing.T) {
	c := fullIOTLB(addr.PageSize2M)
	next := uint64(1 << 40)
	if n := testing.AllocsPerRun(10000, func() {
		c.Insert(next, next)
		next += addr.PageSize4K
	}); n != 0 {
		t.Errorf("allocs = %v, want 0", n)
	}
}
