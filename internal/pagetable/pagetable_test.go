package pagetable

import (
	"errors"
	"maps"
	"math/rand/v2"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/addr"
)

func TestTableTranslate(t *testing.T) {
	tb := New("t")
	if err := tb.Map(addr.Range{Start: 0x1000, Size: 0x1000}, 0xA000); err != nil {
		t.Fatal(err)
	}
	if err := tb.Map(addr.Range{Start: 0x5000, Size: 0x2000}, 0xB000); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		in   uint64
		want uint64
		ok   bool
	}{
		{0x1000, 0xA000, true},
		{0x1FFF, 0xAFFF, true},
		{0x2000, 0, false},
		{0x5000, 0xB000, true},
		{0x6FFF, 0xCFFF, true},
		{0x7000, 0, false},
		{0x0, 0, false},
	}
	for _, c := range cases {
		got, ok := tb.Translate(c.in)
		if ok != c.ok || (ok && got != c.want) {
			t.Errorf("Translate(%#x) = %#x,%v; want %#x,%v", c.in, got, ok, c.want, c.ok)
		}
	}
}

func TestTableRejectsOverlap(t *testing.T) {
	tb := New("t")
	if err := tb.Map(addr.Range{Start: 0x1000, Size: 0x2000}, 0); err != nil {
		t.Fatal(err)
	}
	for _, r := range []addr.Range{
		{Start: 0x1000, Size: 0x1000},
		{Start: 0x2FFF, Size: 0x10},
		{Start: 0x0, Size: 0x1001},
		{Start: 0x1800, Size: 0x100},
	} {
		if err := tb.Map(r, 0x9000); !errors.Is(err, ErrOverlap) {
			t.Errorf("Map(%v) err = %v, want ErrOverlap", r, err)
		}
	}
	// Adjacent is fine.
	if err := tb.Map(addr.Range{Start: 0x3000, Size: 0x1000}, 0x9000); err != nil {
		t.Errorf("adjacent Map err = %v", err)
	}
	if err := tb.Map(addr.Range{Start: 0x0, Size: 0x1000}, 0x8000); err != nil {
		t.Errorf("preceding adjacent Map err = %v", err)
	}
}

func TestTableUnmap(t *testing.T) {
	tb := New("t")
	tb.Map(addr.Range{Start: 0x1000, Size: 0x1000}, 0xA000)
	src, err := tb.Unmap(0x1000)
	if err != nil {
		t.Fatal(err)
	}
	if src != (addr.Range{Start: 0x1000, Size: 0x1000}) {
		t.Errorf("Unmap returned %v, want the removed range", src)
	}
	if _, ok := tb.Translate(0x1000); ok {
		t.Error("translation survived Unmap")
	}
	if _, err := tb.Unmap(0x1000); !errors.Is(err, ErrNotFound) {
		t.Errorf("double Unmap err = %v", err)
	}
	if _, err := tb.Unmap(0x9999); !errors.Is(err, ErrNotFound) {
		t.Errorf("bogus Unmap err = %v", err)
	}
}

func TestTableRejectsEmpty(t *testing.T) {
	tb := New("t")
	if err := tb.Map(addr.Range{Start: 0x1000, Size: 0}, 0); err == nil {
		t.Error("empty mapping accepted")
	}
}

func TestTableWalkOrder(t *testing.T) {
	tb := New("t")
	tb.Map(addr.Range{Start: 0x3000, Size: 0x1000}, 3)
	tb.Map(addr.Range{Start: 0x1000, Size: 0x1000}, 1)
	tb.Map(addr.Range{Start: 0x2000, Size: 0x1000}, 2)
	var got []uint64
	tb.Walk(func(src addr.Range, dst uint64) bool {
		got = append(got, dst)
		return true
	})
	for i, want := range []uint64{1, 2, 3} {
		if got[i] != want {
			t.Fatalf("Walk order = %v", got)
		}
	}
}

func TestTypedTables(t *testing.T) {
	g := NewGuestPT()
	if err := g.Map(addr.NewGVARange(0x1000, 0x1000), addr.GPA(0x8000)); err != nil {
		t.Fatal(err)
	}
	if gpa, ok := g.Translate(0x1234); !ok || gpa != 0x8234 {
		t.Errorf("GuestPT.Translate = %v,%v", gpa, ok)
	}
	e := NewEPT()
	if err := e.Map(addr.NewGPARange(0x8000, 0x1000), addr.HPA(0xF000)); err != nil {
		t.Fatal(err)
	}
	if hpa, ok := e.Translate(0x8888); !ok || hpa != 0xF888 {
		t.Errorf("EPT.Translate = %v,%v", hpa, ok)
	}
	if err := e.Unmap(0x8000); err != nil {
		t.Fatal(err)
	}
	if g.Len() != 1 || e.Len() != 0 {
		t.Error("Len counts wrong")
	}
}

func TestFullChainTranslation(t *testing.T) {
	// GVA -> GPA -> HPA, the two-level indirection of Figure 1a.
	g := NewGuestPT()
	e := NewEPT()
	g.Map(addr.NewGVARange(0x10000, addr.PageSize4K), addr.GPA(0x20000))
	e.Map(addr.NewGPARange(0x20000, addr.PageSize4K), addr.HPA(0x30000))
	gpa, ok := g.Translate(0x10040)
	if !ok {
		t.Fatal("GVA miss")
	}
	hpa, ok := e.Translate(gpa)
	if !ok || hpa != 0x30040 {
		t.Fatalf("chain = %v,%v; want 0x30040", hpa, ok)
	}
}

func TestTranslatePreservesOffsetProperty(t *testing.T) {
	f := func(base uint32, off uint16) bool {
		tb := New("p")
		src := addr.Range{Start: uint64(base) << 12, Size: 1 << 16}
		if err := tb.Map(src, 1<<40); err != nil {
			return true
		}
		a := src.Start + uint64(off)
		got, ok := tb.Translate(a)
		return ok && got-(1<<40) == uint64(off)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTLBBasicLRU(t *testing.T) {
	c := NewTLB(2, addr.PageSize4K)
	c.Insert(0x1000, 0xA000)
	c.Insert(0x2000, 0xB000)
	if v, ok := c.Lookup(0x1004); !ok || v != 0xA004 {
		t.Fatalf("Lookup = %#x,%v", v, ok)
	}
	// 0x2000 is now LRU; inserting a third should evict it.
	c.Insert(0x3000, 0xC000)
	if _, ok := c.Lookup(0x2000); ok {
		t.Error("LRU entry not evicted")
	}
	if _, ok := c.Lookup(0x1000); !ok {
		t.Error("MRU entry evicted")
	}
	if c.Evictions() != 1 {
		t.Errorf("Evictions = %d", c.Evictions())
	}
}

func TestTLBCounters(t *testing.T) {
	c := NewTLB(4, addr.PageSize4K)
	c.Lookup(0x1000) // miss
	c.Insert(0x1000, 0xA000)
	c.Lookup(0x1000) // hit
	c.Lookup(0x1fff) // hit (same page)
	if c.Hits() != 2 || c.Misses() != 1 {
		t.Errorf("hits=%d misses=%d", c.Hits(), c.Misses())
	}
}

func TestTLBInsertUpdatesExisting(t *testing.T) {
	c := NewTLB(2, addr.PageSize4K)
	c.Insert(0x1000, 0xA000)
	c.Insert(0x1000, 0xB000)
	if c.Len() != 1 {
		t.Errorf("Len = %d after duplicate insert", c.Len())
	}
	if v, _ := c.Lookup(0x1000); v != 0xB000 {
		t.Errorf("updated translation = %#x", v)
	}
}

func TestTLBInvalidate(t *testing.T) {
	c := NewTLB(8, addr.PageSize4K)
	for i := uint64(0); i < 4; i++ {
		c.Insert(i*addr.PageSize4K, 0x100000+i*addr.PageSize4K)
	}
	// A one-byte range drops exactly the page holding it.
	c.InvalidateRange(addr.PageSize4K+5, 1)
	if _, ok := c.Lookup(addr.PageSize4K); ok {
		t.Error("invalidate failed")
	}
	if c.Len() != 3 {
		t.Errorf("Len after one-page invalidate = %d, want 3", c.Len())
	}
	c.InvalidateRange(0, 4*addr.PageSize4K)
	if c.Len() != 0 {
		t.Errorf("Len after InvalidateRange = %d", c.Len())
	}
}

func TestTLBInvalidateRangeHuge(t *testing.T) {
	// A range much larger than the cache takes the walk-entries path.
	c := NewTLB(4, addr.PageSize4K)
	c.Insert(0x1000, 0xA000)
	c.Insert(1<<30, 0xB000)
	c.InvalidateRange(0, 1<<40)
	if c.Len() != 0 {
		t.Errorf("huge InvalidateRange left %d entries", c.Len())
	}
}

func TestTLBNeverExceedsCapacityProperty(t *testing.T) {
	f := func(keys []uint16) bool {
		c := NewTLB(16, addr.PageSize4K)
		for _, k := range keys {
			c.Insert(uint64(k)*addr.PageSize4K, uint64(k))
			if c.Len() > 16 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTLBWorkingSetBehaviour(t *testing.T) {
	// Working set within capacity: near-perfect hit rate after warm-up.
	c := NewTLB(64, addr.PageSize4K)
	for round := 0; round < 10; round++ {
		for p := uint64(0); p < 64; p++ {
			a := p * addr.PageSize4K
			if _, ok := c.Lookup(a); !ok {
				c.Insert(a, a+1<<30)
			}
		}
	}
	if c.Misses() != 64 {
		t.Errorf("fitting working set misses = %d, want 64 (cold only)", c.Misses())
	}
	// Working set over capacity with sequential scans: thrash.
	c2 := NewTLB(64, addr.PageSize4K)
	for round := 0; round < 10; round++ {
		for p := uint64(0); p < 128; p++ {
			a := p * addr.PageSize4K
			if _, ok := c2.Lookup(a); !ok {
				c2.Insert(a, a+1<<30)
			}
		}
	}
	if c2.Hits() != 0 {
		t.Errorf("sequential over-capacity scan hits = %d, want 0 (LRU thrash)", c2.Hits())
	}
}

// checkTLBIndexes fails unless the LRU list, the entry index and the
// region index describe the same set of cached pages, and both indexes
// keep their probing invariants.
func checkTLBIndexes(t *testing.T, c *TLB) {
	t.Helper()
	checkIndex(t, "entries", &c.entries)
	checkIndex(t, "regions", &c.regions)
	want := make(map[uint64]int32)
	n := 0
	prev := int32(nilNode)
	for i := c.head; i != nilNode; i = c.nodes[i].next {
		e := &c.nodes[i]
		if j, ok := c.entries.get(e.key); !ok || j != i {
			t.Fatalf("LRU node %#x not in entries", e.key)
		}
		if e.prev != prev {
			t.Fatalf("LRU node %#x prev = %d, want %d", e.key, e.prev, prev)
		}
		prev = i
		want[c.region(e.key)]++
		n++
	}
	if c.tail != prev {
		t.Fatalf("tail = %d, want %d", c.tail, prev)
	}
	if n != c.entries.n {
		t.Fatalf("LRU list holds %d nodes, entries %d", n, c.entries.n)
	}
	free := 0
	for i := c.free; i != nilNode; i = c.nodes[i].next {
		free++
	}
	if n+free != len(c.nodes) || len(c.nodes) > c.capacity {
		t.Fatalf("slab holds %d nodes: %d live, %d free, capacity %d", len(c.nodes), n, free, c.capacity)
	}
	if got := indexMap(&c.regions); !maps.Equal(want, got) {
		t.Fatalf("region index %v, want %v", got, want)
	}
}

// indexMap copies an index into a map.
func indexMap(x *index) map[uint64]int32 {
	m := make(map[uint64]int32, x.n)
	for _, s := range x.slots {
		if s.used {
			m[s.key] = s.val
		}
	}
	return m
}

// checkIndex fails unless x counts its occupied slots, is at most half
// full, holds each key once, and reaches every key from its home slot
// without crossing an empty slot.
func checkIndex(t *testing.T, name string, x *index) {
	t.Helper()
	if len(x.slots)&(len(x.slots)-1) != 0 || 2*x.n > len(x.slots) {
		t.Fatalf("%s index: %d keys in %d slots", name, x.n, len(x.slots))
	}
	used := 0
	mask := len(x.slots) - 1
	for i, s := range x.slots {
		if !s.used {
			continue
		}
		used++
		for j := x.home(s.key); j != i; j = (j + 1) & mask {
			if !x.slots[j].used {
				t.Fatalf("%s index: key %#x in slot %d unreachable from home %d", name, s.key, i, x.home(s.key))
			}
			if x.slots[j].key == s.key {
				t.Fatalf("%s index: key %#x in slots %d and %d", name, s.key, j, i)
			}
		}
	}
	if used != x.n {
		t.Fatalf("%s index: %d slots used, counted %d", name, used, x.n)
	}
}

// invalidatePageRef drops the cached translation for the page holding
// a, if present: one page at a time, with no region walk.
func invalidatePageRef(c *TLB, a uint64) {
	key := c.page(a)
	if e := c.entries.find(key); e >= 0 {
		c.release(c.entries.slots[e].val)
		c.unindex(e, key)
	}
}

// invalidateRangeRef is the per-page/per-entry InvalidateRange the region
// index replaced: the reference the region walk must match.
func invalidateRangeRef(c *TLB, start, size uint64) {
	if size == 0 {
		return
	}
	pages := (c.page(start+size-1)-c.page(start))/c.pageSize + 1
	if pages <= uint64(c.entries.n) {
		for p := c.page(start); p <= c.page(start+size-1); p += c.pageSize {
			invalidatePageRef(c, p)
		}
		return
	}
	end := start + size
	for key := range indexMap(&c.entries) {
		if key+c.pageSize > start && key < end {
			invalidatePageRef(c, key)
		}
	}
}

type tlbEntry struct{ key, dst uint64 }

// tlbState is everything InvalidateRange may affect: the entries in LRU
// order (most recent first) and the counters.
func tlbState(c *TLB) ([]tlbEntry, [3]uint64) {
	var es []tlbEntry
	for i := c.head; i != nilNode; i = c.nodes[i].next {
		es = append(es, tlbEntry{c.nodes[i].key, c.nodes[i].dst})
	}
	return es, [3]uint64{c.hits, c.misses, c.evicts}
}

func TestTLBInvalidateRangeMatchesReference(t *testing.T) {
	const page, region = addr.PageSize4K, addr.PageSize2M
	// Cached keys start at base, eight regions up, so a range from zero
	// can span more regions than are occupied and still end mid-way
	// through an occupied one.
	const base = 8 * region
	ranges := []struct {
		name        string
		start, size uint64
	}{
		{"empty", base + 5*page, 0},
		{"one byte", base + 5*page + 7, 1},
		{"one page unaligned", base + 3*page + 100, page},
		{"straddle boundary", base + region - 3*page, 6 * page},
		{"one region aligned", base + region, region},
		{"region unaligned start", base + 2*region + 100, region},
		{"five regions", base + region/2, 5 * region},
		{"many regions, ending mid-region", 0, base + 2*region + region/2},
		{"from zero, many regions", 0, 1 << 40},
		{"mid-region, many regions", base + 3*region/2, 1 << 40},
		{"beyond cached", 1 << 40, region},
	}
	// Key spreads: dense across three regions, and sparse across 4096.
	spreads := []uint64{3 * regionPages, 4096 * regionPages}
	var walked, ranged int
	for seed := uint64(1); seed <= 8; seed++ {
		for _, capacity := range []int{8, 64, 1024} {
			for _, spread := range spreads {
				// fill replays one random insert/lookup history.
				fill := func(c *TLB, state uint64) {
					rng := rand.New(rand.NewPCG(seed, state))
					for i := 0; i < 3*capacity; i++ {
						p := base + rng.Uint64N(spread)*page
						if rng.IntN(4) == 0 {
							c.Lookup(p)
						} else {
							c.Insert(p, uint64(i)*page)
						}
					}
				}
				for i, rg := range ranges {
					got, ref := NewTLB(capacity, page), NewTLB(capacity, page)
					state := uint64(capacity)<<32 | spread<<8 | uint64(i)
					fill(got, state)
					fill(ref, state)
					if rg.size > 0 {
						if span := got.region(rg.start+rg.size-1) - got.region(rg.start) + 1; span <= uint64(got.regions.n) {
							walked++
						} else {
							ranged++
						}
					}
					got.InvalidateRange(rg.start, rg.size)
					invalidateRangeRef(ref, rg.start, rg.size)
					checkTLBIndexes(t, got)
					ge, gc := tlbState(got)
					re, rc := tlbState(ref)
					if !slices.Equal(ge, re) || gc != rc {
						t.Fatalf("seed %d cap %d spread %d %s: got %d entries %v, reference %d entries %v",
							seed, capacity, spread, rg.name, len(ge), gc, len(re), rc)
					}
				}
			}
		}
	}
	if walked == 0 || ranged == 0 {
		t.Fatalf("region walk ran %d times, region-map range %d times: both paths must be covered", walked, ranged)
	}
}
