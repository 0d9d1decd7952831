package pagetable

import (
	"maps"
	"math/rand/v2"
	"reflect"
	"slices"
	"testing"

	"repro/internal/addr"
)

// keysWithHome returns the first n keys, counting up from 1, whose home
// in a minIndexSlots-slot index satisfies ok.
func keysWithHome(n int, ok func(home int) bool) []uint64 {
	probe := index{}
	probe.put(0, 0) // sizes the slot array
	var keys []uint64
	for k := uint64(1); len(keys) < n; k++ {
		if ok(probe.home(k)) {
			keys = append(keys, k)
		}
	}
	return keys
}

// TestIndexMatchesMap drives seeded put, add, delete and get against a
// map model on an index kept at minIndexSlots slots. Half the keys hash
// to the last three slots and half to the first three, so probe runs
// collide and wrap around the end of the array, and deletions shift
// keys back across the wrap.
func TestIndexMatchesMap(t *testing.T) {
	const live = minIndexSlots / 2 // the most keys the slot array holds
	keys := append(keysWithHome(8, func(h int) bool { return h >= minIndexSlots-3 }),
		keysWithHome(8, func(h int) bool { return h < 3 })...)
	var wrapped, displaced int
	for seed := uint64(1); seed <= 50; seed++ {
		rng := rand.New(rand.NewPCG(seed, 7))
		var x index
		model := map[uint64]int32{}
		for step := 0; step < 400; step++ {
			k := keys[rng.IntN(len(keys))]
			_, in := model[k]
			switch op := rng.IntN(4); {
			case op == 0 && (in || len(model) < live):
				v := int32(rng.IntN(100))
				x.put(k, v)
				model[k] = v
			case op == 1 && (in || len(model) < live):
				d := int32(rng.IntN(5) - 2)
				x.add(k, d)
				if model[k] += d; model[k] == 0 {
					delete(model, k)
				}
			case op == 2:
				if i := x.find(k); i >= 0 {
					x.removeAt(i)
				}
				delete(model, k)
			default:
				v, ok := x.get(k)
				if want, wantOK := model[k]; v != want || ok != wantOK {
					t.Fatalf("seed %d step %d: get(%d) = %d, %v; model %d, %v", seed, step, k, v, ok, want, wantOK)
				}
			}
			if len(x.slots) > minIndexSlots {
				t.Fatalf("seed %d step %d: %d slots for at most %d keys", seed, step, len(x.slots), live)
			}
			checkIndex(t, "test", &x)
			if got := indexMap(&x); !maps.Equal(got, model) {
				t.Fatalf("seed %d step %d: index %v, model %v", seed, step, got, model)
			}
			for i, s := range x.slots {
				if s.used && x.home(s.key) != i {
					displaced++
					if x.home(s.key) > i {
						wrapped++
					}
				}
			}
		}
	}
	if displaced == 0 || wrapped == 0 {
		t.Fatalf("%d displaced keys, %d wrapped: collisions and wrap-around must both be covered", displaced, wrapped)
	}
}

// TestIndexSlotPointerFree pins the index slot as pointer-free, so the
// collector never scans the TLB's indexes.
func TestIndexSlotPointerFree(t *testing.T) {
	if p := pointerField(reflect.TypeOf(indexSlot{})); p != "" {
		t.Errorf("indexSlot field %s holds a pointer", p)
	}
}

// TestTLBInvalidateRangeShiftDuringScan covers InvalidateRange's scan of
// the region index when dropping a region shifts others back. Regions
// a < b < c < d all hash to the last slot and are cached in the order
// a, b, c, d, so b, c and d wrap to slots 0, 1 and 2. The range starts
// inside a and ends with c: a keeps its pages below the range, b and c
// go, d stays. Dropping b shifts c into b's slot and d behind it; a scan
// that moved on without re-reading the slot would skip c.
func TestTLBInvalidateRangeShiftDuringScan(t *testing.T) {
	const page, region = addr.PageSize4K, addr.PageSize2M
	rs := keysWithHome(4, func(h int) bool { return h == minIndexSlots-1 })
	a, b, c, d := rs[0], rs[1], rs[2], rs[3]
	tlb := NewTLB(64, page)
	for _, r := range rs {
		tlb.Insert(r*region, r*region)
		tlb.Insert(r*region+10*page, r*region)
	}
	for i, r := range rs {
		if s := tlb.regions.slots[(minIndexSlots-1+i)%minIndexSlots]; !s.used || s.key != r {
			t.Fatalf("region %d is not in slot %d: the probe run does not wrap", r, (minIndexSlots-1+i)%minIndexSlots)
		}
	}
	start := a*region + 5*page
	end := c*region + region
	if span := c - a + 1; span <= uint64(tlb.regions.n) {
		t.Fatalf("range spans %d regions of %d occupied: it would take the walk path", span, tlb.regions.n)
	}
	tlb.InvalidateRange(start, end-start)
	checkTLBIndexes(t, tlb)
	var got []uint64
	for i := tlb.head; i != nilNode; i = tlb.nodes[i].next {
		got = append(got, tlb.nodes[i].key)
	}
	slices.Sort(got)
	want := []uint64{a * region, d * region, d*region + 10*page}
	if !slices.Equal(got, want) {
		t.Errorf("cached pages %#x, want %#x", got, want)
	}
	if k, ok := tlb.regions.get(a); !ok || k != 1 {
		t.Errorf("region a holds %d pages (%v), want 1", k, ok)
	}
	if _, ok := tlb.regions.get(b); ok {
		t.Error("region b still indexed")
	}
}
