package pagetable

import (
	"reflect"
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

// TestTLBRefillAllocFree pins the slab's free list: refilling an IOTLB
// whose blocks were all invalidated reuses the freed nodes, so the slab
// neither grows nor allocates.
func TestTLBRefillAllocFree(t *testing.T) {
	c := fullIOTLB(addr.PageSize2M)
	for j := uint64(0); j < 16; j++ {
		c.InvalidateRange(j*addr.PageSize2M, addr.PageSize2M)
	}
	slab := len(c.nodes)
	j := uint64(0)
	if n := testing.AllocsPerRun(15, func() {
		for p := uint64(0); p < regionPages; p++ {
			c.Insert(j*addr.PageSize2M+p*addr.PageSize4K, p*addr.PageSize4K)
		}
		j++
	}); n != 0 {
		t.Errorf("allocs = %v, want 0", n)
	}
	if len(c.nodes) != slab || c.Len() != 16*regionPages {
		t.Errorf("slab %d nodes for %d entries, want %d", len(c.nodes), c.Len(), slab)
	}
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

// TestTLBLookupAllocFree pins an IOTLB hit at zero allocations.
func TestTLBLookupAllocFree(t *testing.T) {
	c := fullIOTLB(addr.PageSize2M)
	k := uint64(0)
	if n := testing.AllocsPerRun(10000, func() {
		if _, ok := c.Lookup(k % 8192 * addr.PageSize4K); !ok {
			t.Fatal("miss in a full IOTLB")
		}
		k += 7
	}); n != 0 {
		t.Errorf("allocs = %v, want 0", n)
	}
}

// TestTLBNodePointerFree pins the IOTLB slab node as pointer-free, so
// the collector never scans the slab.
func TestTLBNodePointerFree(t *testing.T) {
	if p := pointerField(reflect.TypeOf(tlbNode{})); p != "" {
		t.Errorf("tlbNode field %s holds a pointer", p)
	}
	if p := pointerField(reflect.TypeOf(entry{})); p != "" {
		t.Errorf("table entry field %s holds a pointer", p)
	}
}

// pointerField returns the path of the first field of t whose kind the
// collector must scan, or "" if there is none.
func pointerField(t reflect.Type) string {
	switch t.Kind() {
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			if p := pointerField(f.Type); p != "" {
				return f.Name + "." + p
			}
		}
		return ""
	case reflect.Array:
		return pointerField(t.Elem())
	case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr,
		reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
		return ""
	default:
		return t.Kind().String()
	}
}

// TestTableWindowAllocFree pins the IOMMU table's PVDMA churn pattern at
// zero allocations: 512 live 2 MiB entries, each step mapping a block at
// the back and unmapping the oldest. The window slides down in place
// rather than growing the backing array.
func TestTableWindowAllocFree(t *testing.T) {
	const live = 512
	tb := New("iommu")
	next, oldest := uint64(1<<40), uint64(1<<40)
	step := func() {
		if err := tb.Map(addr.Range{Start: next, Size: addr.PageSize2M}, next); err != nil {
			t.Fatal(err)
		}
		next += addr.PageSize2M
		if tb.Len() > live {
			src, err := tb.Unmap(oldest)
			if err != nil || src.Size != addr.PageSize2M {
				t.Fatalf("Unmap(%#x) = %v, %v", oldest, src, err)
			}
			oldest += addr.PageSize2M
		}
	}
	for i := 0; i < 4*live; i++ {
		step()
	}
	if n := testing.AllocsPerRun(4*live, step); n != 0 {
		t.Errorf("allocs = %v, want 0", n)
	}
	if tb.Len() != live {
		t.Errorf("Len = %d, want %d", tb.Len(), live)
	}
}
