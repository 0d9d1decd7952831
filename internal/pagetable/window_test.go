package pagetable

import (
	"errors"
	"math/bits"
	"math/rand/v2"
	"slices"
	"testing"

	"repro/internal/addr"
)

// refTable is the reference model of Table: a plain sorted slice that
// inserts and deletes with slices.Insert/Delete and scans linearly.
type refTable []entry

var errEmpty = errors.New("empty mapping")

func (r *refTable) mapRange(src addr.Range, dst uint64) error {
	if src.Size == 0 {
		return errEmpty
	}
	if _, carry := bits.Add64(src.Start, src.Size, 0); carry != 0 {
		return ErrWrap
	}
	i := 0
	for ; i < len(*r) && (*r)[i].src.Start < src.Start; i++ {
	}
	for _, e := range *r {
		if e.src.Overlaps(src) {
			return ErrOverlap
		}
	}
	*r = slices.Insert(*r, i, entry{src: src, dst: dst})
	return nil
}

func (r *refTable) unmap(start uint64) (addr.Range, error) {
	for i, e := range *r {
		if e.src.Start == start {
			*r = slices.Delete(*r, i, i+1)
			return e.src, nil
		}
	}
	return addr.Range{}, ErrNotFound
}

func (r *refTable) punch(h addr.Range) {
	if h.Size == 0 {
		return
	}
	var out refTable
	for _, e := range *r {
		if !e.src.Overlaps(h) {
			out = append(out, e)
			continue
		}
		if e.src.Start < h.Start {
			out = append(out, entry{addr.Range{Start: e.src.Start, Size: h.Start - e.src.Start}, e.dst})
		}
		if e.src.End() > h.End() {
			out = append(out, entry{addr.Range{Start: h.End(), Size: e.src.End() - h.End()}, e.dst + h.End() - e.src.Start})
		}
	}
	*r = out
}

func (r refTable) translate(a uint64) (uint64, bool) {
	for _, e := range r {
		if a >= e.src.Start && a-e.src.Start < e.src.Size {
			return e.dst + a - e.src.Start, true
		}
	}
	return 0, false
}

// resetTable empties tb in place, keeping its backing array, so a test
// can rebuild a table from nothing without reallocating it.
func resetTable(tb *Table) { tb.off, tb.n = 0, 0 }

// checkSameError fails unless the table and the model agree on whether
// a call failed and, for the typed errors, on which error.
func checkSameError(t *testing.T, op string, got, want error) {
	t.Helper()
	if (got == nil) != (want == nil) {
		t.Fatalf("%s err = %v, model %v", op, got, want)
	}
	for _, typed := range []error{ErrWrap, ErrOverlap, ErrNotFound} {
		if errors.Is(want, typed) && !errors.Is(got, typed) {
			t.Fatalf("%s err = %v, want %v", op, got, typed)
		}
	}
}

// checkTable fails unless tb holds sorted, non-overlapping, non-empty
// entries equal to the model's, inside its backing array, and translates
// probe as the model does.
func checkTable(t *testing.T, tb *Table, ref refTable, probe uint64) {
	t.Helper()
	if tb.off < 0 || tb.n < 0 || tb.off+tb.n > len(tb.base) {
		t.Fatalf("window [%d,+%d) outside backing array of %d", tb.off, tb.n, len(tb.base))
	}
	if tb.Len() != len(ref) {
		t.Fatalf("Len = %d, model %d", tb.Len(), len(ref))
	}
	var got refTable
	tb.Walk(func(src addr.Range, dst uint64) bool {
		got = append(got, entry{src, dst})
		return true
	})
	for i, e := range got {
		if e.src.Size == 0 {
			t.Fatal("empty entry")
		}
		if i > 0 && e.src.Start < got[i-1].src.End() {
			t.Fatalf("entries overlap or unsorted: start %#x < prev end %#x", e.src.Start, got[i-1].src.End())
		}
	}
	if !slices.Equal(got, ref) {
		t.Fatalf("table %v, model %v", got, ref)
	}
	for _, a := range []uint64{probe, ref.first(), ref.last()} {
		d, ok := tb.Translate(a)
		wd, wok := ref.translate(a)
		if ok != wok || d != wd {
			t.Fatalf("Translate(%#x) = %#x,%v, model %#x,%v", a, d, ok, wd, wok)
		}
	}
}

func (r refTable) first() uint64 {
	if len(r) == 0 {
		return 0
	}
	return r[0].src.Start
}

func (r refTable) last() uint64 {
	if len(r) == 0 {
		return 0
	}
	return r[len(r)-1].src.End() - 1
}

// TestTableWindowMatchesReference drives about 20k seeded ops through a
// Table and the reference model: FIFO runs (map at the back, unmap the
// front, as PVDMA eviction does), descending maps at the front, middle
// inserts and removals, Punch and Clear. Besides the model check after
// every op, it pins the window policy: a Map or Unmap moves the shorter
// side (or the only side with room), a slide happens only when the back
// is full, and the backing array stays within a small multiple of the
// peak entry count, so sliding is not replaced by growing.
func TestTableWindowMatchesReference(t *testing.T) {
	const page = addr.PageSize4K
	rng := rand.New(rand.NewPCG(23, 2026))
	tb := New("window")
	var ref refTable
	var ops, peak, slides, grows, frontGrows int

	// mapAt maps [start, +size) on both and checks the window move.
	mapAt := func(start, size uint64) {
		src := addr.Range{Start: start, Size: size}
		i, n, off, blen := tb.search(start), tb.n, tb.off, len(tb.base)
		err := tb.Map(src, 1<<50+start)
		checkSameError(t, "Map", err, ref.mapRange(src, 1<<50+start))
		if err != nil {
			return
		}
		front := i < n-i
		switch {
		case len(tb.base) != blen:
			grows++
			if front {
				frontGrows++
			}
		case tb.off == off-1:
			if !front {
				t.Fatalf("op %d: Map at %d of %d moved the longer front side", ops, i, n)
			}
		case tb.off == off:
			if front && off > 0 {
				t.Fatalf("op %d: Map at %d of %d moved the longer back side", ops, i, n)
			}
		case tb.off == 0:
			if front || off+n != blen {
				t.Fatalf("op %d: slid a window [%d,+%d) of %d for a Map at %d", ops, off, n, blen, i)
			}
			slides++
		default:
			t.Fatalf("op %d: Map at %d of %d moved the window from %d to %d", ops, i, n, off, tb.off)
		}
	}
	// unmapAt removes the entry at window index i on both and checks
	// that the shorter side moved.
	unmapAt := func(i int) {
		n, off := tb.n, tb.off
		start := ref[i].src.Start
		got, err := tb.Unmap(start)
		want, werr := ref.unmap(start)
		checkSameError(t, "Unmap", err, werr)
		if got != want {
			t.Fatalf("Unmap(%#x) = %v, model %v", start, got, want)
		}
		switch {
		case n == 1:
			if tb.off != 0 {
				t.Fatalf("op %d: emptied window left at %d", ops, tb.off)
			}
		case i < n-1-i:
			if tb.off != off+1 {
				t.Fatalf("op %d: Unmap at %d of %d did not move the shorter front side", ops, i, n)
			}
		default:
			if tb.off != off {
				t.Fatalf("op %d: Unmap at %d of %d did not move the shorter back side", ops, i, n)
			}
		}
	}
	check := func() {
		ops++
		peak = max(peak, tb.n)
		if len(tb.base) > 3*peak+8 {
			t.Fatalf("op %d: backing array of %d for a peak of %d entries", ops, len(tb.base), peak)
		}
		checkTable(t, tb, ref, rng.Uint64N(1<<20)*page+1<<40)
	}

	base := uint64(1 << 40)
	for round := 0; ops < 20000; round++ {
		// FIFO: fill to a target, then map at the back and unmap the front.
		target := 16 + rng.IntN(48)
		next := base
		if len(ref) > 0 {
			next = ref.last() + 1
		}
		for k := 0; k < 1500; k++ {
			if len(ref) >= target {
				unmapAt(0)
				check()
			}
			size := uint64(1+rng.IntN(4)) * page
			mapAt(next+uint64(rng.IntN(2))*page, size)
			next = ref.last() + 1
			check()
		}
		// Descending maps at the front.
		for k := 0; k < 200; k++ {
			size := uint64(1+rng.IntN(4)) * page
			mapAt(ref.first()-size-uint64(rng.IntN(2))*page, size)
			check()
		}
		// Middle inserts and removals within the current span, with
		// failed (overlapping) maps and misses mixed in.
		for k := 0; k < 1500; k++ {
			lo, hi := ref.first(), ref.last()
			switch rng.IntN(3) {
			case 0:
				if len(ref) > 0 {
					unmapAt(rng.IntN(len(ref)))
				}
			default:
				start := lo + rng.Uint64N((hi-lo)/page+1)*page
				mapAt(start, uint64(1+rng.IntN(2))*page)
			}
			check()
		}
		// Punch a hole, and sometimes clear.
		lo, hi := ref.first(), ref.last()
		hole := addr.Range{Start: lo + rng.Uint64N((hi-lo)/page+1)*page, Size: uint64(1+rng.IntN(64)) * page}
		n, blen, first := tb.n, len(tb.base), &tb.base[0]
		tb.Punch(hole)
		ref.punch(hole)
		if tb.n <= n && (len(tb.base) != blen || &tb.base[0] != first) {
			t.Fatalf("Punch of %v from %d to %d entries replaced the backing array", hole, n, tb.n)
		}
		check()
		if round%2 == 1 {
			resetTable(tb)
			ref = ref[:0]
			check()
		}
		base += 1 << 32
	}
	if slides == 0 || frontGrows == 0 || grows == frontGrows {
		t.Fatalf("slides %d, grows %d (front %d): every window branch must be covered", slides, grows, frontGrows)
	}
	t.Logf("%d ops: %d slides, %d grows (%d front), peak %d entries", ops, slides, grows, frontGrows, peak)
}

// TestTableRejectsWrap pins the fix for a source range that wraps past
// 2^64: it used to be accepted and leave the table unsorted.
func TestTableRejectsWrap(t *testing.T) {
	const top = ^uint64(0) - addr.PageSize4K + 1 // last 4 KiB page
	tb := New("t")
	if err := tb.Map(addr.Range{Start: top, Size: 2 * addr.PageSize4K}, 0); !errors.Is(err, ErrWrap) {
		t.Errorf("wrapping Map err = %v, want ErrWrap", err)
	}
	if err := tb.Map(addr.Range{Start: top, Size: addr.PageSize4K}, 0); !errors.Is(err, ErrWrap) {
		t.Errorf("Map ending at 2^64 err = %v, want ErrWrap", err)
	}
	if err := tb.Map(addr.Range{Start: top - 2*addr.PageSize4K, Size: addr.PageSize4K}, 0xA000); err != nil {
		t.Fatal(err)
	}
	if tb.Len() != 1 {
		t.Fatalf("Len = %d, want only the in-range mapping", tb.Len())
	}
	if d, ok := tb.Translate(top - 2*addr.PageSize4K + 8); !ok || d != 0xA008 {
		t.Errorf("Translate = %#x,%v", d, ok)
	}
	e := NewEPT()
	if err := e.Map(addr.NewGPARange(addr.GPA(top), 2*addr.PageSize4K), 0); !errors.Is(err, ErrWrap) {
		t.Errorf("EPT wrapping Map err = %v, want ErrWrap", err)
	}
}
