package pagetable

import (
	"slices"
	"testing"

	"repro/internal/addr"
)

// FuzzTableOps drives a translation table with an arbitrary op sequence
// (map / unmap / punch / translate / clear) and compares it with a
// sorted-slice reference model after every step: the same entries in
// the same order, the same outcome for every call, offset-preserving
// translation, and a window that stays inside its backing array. Starts
// with bit 6 set count down from the top of the address space, so some
// mappings would wrap past 2^64.
func FuzzTableOps(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7})
	f.Add([]byte{0, 0, 0, 1, 1, 2, 2, 3})
	f.Add([]byte{2, 2, 2, 2})
	f.Add([]byte{0, 0x41, 7, 0, 0x43, 0, 3, 0x41, 0, 4, 0, 0, 0, 3, 1})
	f.Fuzz(func(t *testing.T, ops []byte) {
		tb := New("fuzz")
		var ref refTable
		const page = addr.PageSize4K
		for i := 0; i+2 < len(ops); i += 3 {
			start := uint64(ops[i+1]%64) * page
			if ops[i+1]&0x40 != 0 {
				start = -start - page
			}
			size := (uint64(ops[i+2]%8) + 1) * page
			src := addr.Range{Start: start, Size: size}
			switch ops[i] % 4 {
			case 0:
				err := tb.Map(src, 1<<40+start)
				checkSameError(t, "Map", err, ref.mapRange(src, 1<<40+start))
			case 1:
				got, err := tb.Unmap(start)
				want, werr := ref.unmap(start)
				checkSameError(t, "Unmap", err, werr)
				if got != want {
					t.Fatalf("Unmap(%#x) = %v, model %v", start, got, want)
				}
			case 2:
				tb.Punch(src)
				ref.punch(src)
			case 3:
				if d, ok := tb.Translate(start + 5); ok {
					src, dst, ok2 := tb.LookupRange(start + 5)
					if !ok2 {
						t.Fatal("Translate hit but LookupRange missed")
					}
					if d != dst+(start+5-src.Start) {
						t.Fatalf("offset broken: %#x vs %#x", d, dst+(start+5-src.Start))
					}
				}
			case 4:
				resetTable(tb)
				ref = ref[:0]
			}
			checkTable(t, tb, ref, start+5)
		}
	})
}

// FuzzTLB drives the LRU cache with arbitrary inserts, lookups and
// range invalidations against a slice-backed LRU model. Pages sit
// within 32 pages of the boundaries between five 2 MiB regions, and
// invalidated ranges run from one byte to 1<<40, so ranges straddle and
// span regions. After every op the cache must hold exactly the model's
// pages, translate as the model does, and keep its region index in step.
func FuzzTLB(f *testing.F) {
	f.Add([]byte{1, 2, 3, 3, 5, 6})
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{0, 31, 1, 0, 32, 2, 0, 95, 3, 2, 31, 16, 1, 32, 0, 1, 95, 0})
	f.Add([]byte{0, 10, 1, 0, 200, 2, 3, 0, 0, 1, 10, 0, 0, 70, 3, 2, 0, 48, 1, 70, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		const cap = 8
		const page = addr.PageSize4K
		sizes := []uint64{1, page, 2*page + 1, addr.PageSize2M, addr.PageSize2M + page, 3 * addr.PageSize2M, 1 << 40}
		pageAt := func(x byte) uint64 {
			return (uint64(x>>6)*regionPages + regionPages - 32 + uint64(x&63)) * page
		}
		c := NewTLB(cap, page)
		var model []tlbEntry // most recently used first
		find := func(p uint64) int {
			return slices.IndexFunc(model, func(e tlbEntry) bool { return e.key == p })
		}
		for i := 0; i+2 < len(ops); i += 3 {
			a, b := ops[i+1], ops[i+2]
			switch ops[i] % 3 {
			case 0: // insert
				p, dst := pageAt(a), uint64(i)*page
				c.Insert(p+uint64(b), dst)
				if j := find(p); j >= 0 {
					model = slices.Delete(model, j, j+1)
				} else if len(model) == cap {
					model = model[:cap-1]
				}
				model = slices.Insert(model, 0, tlbEntry{p, dst})
			case 1: // lookup
				p := pageAt(a)
				got, ok := c.Lookup(p + uint64(b))
				j := find(p)
				if ok != (j >= 0) {
					t.Fatalf("Lookup(%#x) hit=%v, model hit=%v", p+uint64(b), ok, j >= 0)
				}
				if ok {
					if want := model[j].dst + uint64(b); got != want {
						t.Fatalf("Lookup(%#x) = %#x, want %#x", p+uint64(b), got, want)
					}
					e := model[j]
					model = slices.Insert(slices.Delete(model, j, j+1), 0, e)
				}
			case 2: // invalidate a range
				start, size := pageAt(a)+uint64(b&7)*0x123, sizes[int(b>>3)%len(sizes)]
				c.InvalidateRange(start, size)
				model = slices.DeleteFunc(model, func(e tlbEntry) bool {
					return e.key+page > start && e.key < start+size
				})
				for _, probe := range []uint64{start, start + size/2, start + size - 1} {
					if _, ok := c.Lookup(probe); ok {
						t.Fatalf("Lookup(%#x) hit inside invalidated [%#x, +%#x)", probe, start, size)
					}
				}
			}
			if c.Len() != len(model) {
				t.Fatalf("op %d: Len = %d, model holds %d", i/3, c.Len(), len(model))
			}
			checkTLBIndexes(t, c)
		}
	})
}
