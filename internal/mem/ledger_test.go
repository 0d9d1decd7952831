package mem

import (
	"errors"
	"testing"

	"repro/internal/addr"
	"repro/internal/sim"
)

// TestPinBlockAllocFree pins the PVDMA pin path at zero allocations: a
// block pin and its unpin only move an entry in the host ledger, and
// Free, PinAll and UnpinAll drop a region's leftover pins as one cut of
// the ledger's window, in place.
func TestPinBlockAllocFree(t *testing.T) {
	m := testMem()
	r, err := m.Allocate(4*addr.PageSize2M, "pv")
	if err != nil {
		t.Fatal(err)
	}
	pin := func(r *Region, offs ...uint64) {
		for _, off := range offs {
			if _, err := m.PinBlock(r, off, addr.PageSize2M); err != nil {
				t.Fatal(err)
			}
		}
	}
	if n := testing.AllocsPerRun(100, func() {
		pin(r, addr.PageSize2M)
		if err := m.UnpinBlock(r, addr.PageSize2M); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("PinBlock+UnpinBlock allocs = %v, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		pin(r, 0, 2*addr.PageSize2M, 3*addr.PageSize2M)
		if err := m.UnpinAll(r); err != nil {
			t.Fatal(err)
		}
		pin(r, addr.PageSize2M)
		if _, err := m.PinAll(r); err != nil {
			t.Fatal(err)
		}
		if err := m.UnpinAll(r); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("PinAll/UnpinAll with block pins allocs = %v, want 0", n)
	}

	// Free regions that still hold pins, oldest first, while a newer
	// region's pins stay in the ledger behind them.
	const runs = 100
	regs := make([]*Region, runs+1)
	for i := range regs {
		if regs[i], err = m.Allocate(4*addr.PageSize2M, "pv"); err != nil {
			t.Fatal(err)
		}
		pin(regs[i], 0, 2*addr.PageSize2M)
	}
	pin(r, 0, addr.PageSize2M)
	k := 0
	if n := testing.AllocsPerRun(runs, func() {
		if err := m.Free(regs[k]); err != nil {
			t.Fatal(err)
		}
		k++
	}); n != 0 {
		t.Errorf("Free with block pins allocs = %v, want 0", n)
	}
	if m.ledger.Len() != 2 || m.PinnedBytes() != 2*addr.PageSize2M {
		t.Errorf("ledger holds %d pins, %d bytes pinned; want r's 2 pins", m.ledger.Len(), m.PinnedBytes())
	}
}

// TestPinBlockRejectsOverlap: a pin that overlaps a live pin of the
// region without starting where it does is a double pin too, and leaves
// the accounting alone.
func TestPinBlockRejectsOverlap(t *testing.T) {
	m := testMem()
	r, err := m.Allocate(4*addr.PageSize2M, "pv")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.PinBlock(r, 0, 2*addr.PageSize2M); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ off, size uint64 }{
		{addr.PageSize2M, addr.PageSize2M},          // inside the pin
		{addr.PageSize4K, addr.PageSize4K},          // one page in
		{addr.PageSize2M, 2 * addr.PageSize2M},      // straddles its end
		{2*addr.PageSize2M - addr.PageSize4K, 8192}, // last page and the next
		{0, 4 * addr.PageSize2M},                    // covers it
	} {
		if _, err := m.PinBlock(r, c.off, c.size); !errors.Is(err, ErrDoublePin) {
			t.Errorf("PinBlock(%#x, %#x) err = %v, want ErrDoublePin", c.off, c.size, err)
		}
	}
	if r.PinnedBytes() != 2*addr.PageSize2M || m.PinnedBytes() != 2*addr.PageSize2M {
		t.Errorf("pinned %d bytes in the region, %d in the host; want %d", r.PinnedBytes(), m.PinnedBytes(), 2*addr.PageSize2M)
	}
	if _, err := m.PinBlock(r, 2*addr.PageSize2M, 2*addr.PageSize2M); err != nil {
		t.Errorf("adjacent pin: %v", err)
	}
}

// TestLedgerOffsetOutsideRegion: the ledger is shared by all regions,
// so an offset past a region's end must not reach its neighbour's pin.
func TestLedgerOffsetOutsideRegion(t *testing.T) {
	m := testMem()
	a, _ := m.Allocate(addr.PageSize2M, "a")
	b, _ := m.Allocate(addr.PageSize2M, "b")
	if a.HPA.End() != b.HPA.Start {
		t.Fatalf("regions not adjacent: %v, %v", a.HPA, b.HPA)
	}
	if _, err := m.PinBlock(b, 0, addr.PageSize4K); err != nil {
		t.Fatal(err)
	}
	if a.BlockPinned(addr.PageSize2M) {
		t.Error("BlockPinned past a's end sees b's pin")
	}
	if err := m.UnpinBlock(a, addr.PageSize2M); !errors.Is(err, ErrNotPinned) {
		t.Errorf("UnpinBlock past a's end err = %v, want ErrNotPinned", err)
	}
	if !b.BlockPinned(0) || b.PinnedBytes() != addr.PageSize4K {
		t.Error("b's pin was disturbed")
	}
	if src, _, ok := m.ledger.LookupRange(b.HPA.Start); m.ledger.Len() != 1 || !ok || src.Size != addr.PageSize4K {
		t.Errorf("ledger holds %d pins, b's = %v, %v", m.ledger.Len(), src, ok)
	}
}

// TestLedgerProperty drives random block pins, unpins, full pins,
// full unpins and frees over a few regions and checks the host ledger
// against a model after every step: it holds exactly the live block
// pins, none inside a freed or fully pinned region, and every byte
// count agrees. Half the pins start off a block boundary and run up to
// two blocks, so they overlap each other and must be refused.
func TestLedgerProperty(t *testing.T) {
	const blocks = 8 // per region
	overlaps := 0
	for seed := uint64(1); seed <= 20; seed++ {
		rng := sim.NewRNG(seed)
		m := testMem()
		type model struct {
			r    *Region
			full bool
			pins map[uint64]uint64 // offset -> size
		}
		var regs []*model
		for i := 0; i < 4; i++ {
			r, err := m.Allocate(blocks*addr.PageSize2M, "p")
			if err != nil {
				t.Fatal(err)
			}
			regs = append(regs, &model{r: r, pins: map[uint64]uint64{}})
		}
		for step := 0; step < 300; step++ {
			rm := regs[rng.Intn(len(regs))]
			off := uint64(rng.Intn(blocks)) * addr.PageSize2M
			size := uint64(1+rng.Intn(512)) * addr.PageSize4K
			if rng.Intn(2) == 0 {
				off += uint64(rng.Intn(512)) * addr.PageSize4K
				size = min(2*size, rm.r.HPA.Size-off)
			}
			switch op := rng.Intn(10); {
			case op < 5:
				_, err := m.PinBlock(rm.r, off, size)
				overlap := false
				for o, sz := range rm.pins {
					if o < off+size && off < o+sz {
						overlap = true
					}
				}
				switch {
				case rm.r.Freed():
					if !errors.Is(err, ErrFreedRegion) {
						t.Fatalf("seed %d step %d: pin freed err = %v", seed, step, err)
					}
				case rm.full || overlap:
					if !errors.Is(err, ErrDoublePin) {
						t.Fatalf("seed %d step %d: double pin err = %v", seed, step, err)
					}
					if overlap {
						overlaps++
					}
				case err != nil:
					t.Fatalf("seed %d step %d: pin: %v", seed, step, err)
				default:
					rm.pins[off] = size
				}
			case op < 8:
				err := m.UnpinBlock(rm.r, off)
				_, ok := rm.pins[off]
				switch {
				case rm.r.Freed():
					if !errors.Is(err, ErrFreedRegion) {
						t.Fatalf("seed %d step %d: unpin freed err = %v", seed, step, err)
					}
				case !ok:
					if !errors.Is(err, ErrNotPinned) {
						t.Fatalf("seed %d step %d: unpin err = %v, want ErrNotPinned", seed, step, err)
					}
				case err != nil:
					t.Fatalf("seed %d step %d: unpin: %v", seed, step, err)
				default:
					delete(rm.pins, off)
				}
			case op == 8:
				if rm.r.Freed() {
					continue
				}
				if rng.Intn(2) == 0 {
					if _, err := m.PinAll(rm.r); err != nil {
						t.Fatal(err)
					}
					rm.full = true
				} else {
					if err := m.UnpinAll(rm.r); err != nil {
						t.Fatal(err)
					}
					rm.full = false
				}
				rm.pins = map[uint64]uint64{}
			default:
				if rm.r.Freed() || rng.Intn(4) != 0 {
					continue
				}
				if err := m.Free(rm.r); err != nil {
					t.Fatal(err)
				}
				rm.full = false
				rm.pins = map[uint64]uint64{}
			}

			var want, live int
			var pinned uint64
			for _, rm := range regs {
				var rp uint64
				for off, size := range rm.pins {
					rp += size
					if !rm.r.BlockPinned(off) {
						t.Fatalf("seed %d step %d: pinned block %#x not reported", seed, step, off)
					}
				}
				want += len(rm.pins)
				if rm.full {
					rp = rm.r.HPA.Size
				}
				if got := rm.r.PinnedBytes(); got != rp {
					t.Fatalf("seed %d step %d: region pinned = %d, want %d", seed, step, got, rp)
				}
				pinned += rp
				m.ledger.Walk(func(src addr.Range, _ uint64) bool {
					if rm.r.HPA.Contains(src.Start) {
						live++
						if size, ok := rm.pins[src.Start-rm.r.HPA.Start]; !ok || size != src.Size {
							t.Fatalf("seed %d step %d: ledger holds %v the model does not", seed, step, src)
						}
					}
					return true
				})
				if rm.r.blockPins != len(rm.pins) {
					t.Fatalf("seed %d step %d: region counts %d block pins, model %d", seed, step, rm.r.blockPins, len(rm.pins))
				}
			}
			if m.ledger.Len() != want || live != want {
				t.Fatalf("seed %d step %d: ledger has %d entries (%d in regions), model %d",
					seed, step, m.ledger.Len(), live, want)
			}
			if m.PinnedBytes() != pinned {
				t.Fatalf("seed %d step %d: PinnedBytes = %d, model %d", seed, step, m.PinnedBytes(), pinned)
			}
		}
	}
	if overlaps == 0 {
		t.Fatal("no pin overlapped a live one: the run misses the double-pin path")
	}
}
