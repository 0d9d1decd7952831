package mem

import (
	"errors"
	"testing"

	"repro/internal/addr"
	"repro/internal/sim"
)

// TestPinBlockAllocFree pins the PVDMA pin path at zero allocations: a
// block pin and its unpin only move an entry in the host ledger.
func TestPinBlockAllocFree(t *testing.T) {
	m := testMem()
	r, err := m.Allocate(4*addr.PageSize2M, "pv")
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() {
		if _, err := m.PinBlock(r, addr.PageSize2M, addr.PageSize2M); err != nil {
			t.Fatal(err)
		}
		if err := m.UnpinBlock(r, addr.PageSize2M); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("allocs = %v, want 0", n)
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
}

// TestLedgerProperty drives random block pins, unpins, full pins,
// full unpins and frees over a few regions and checks the host ledger
// against a model after every step: it holds exactly the live block
// pins, none inside a freed or fully pinned region, and every byte
// count agrees.
func TestLedgerProperty(t *testing.T) {
	const blocks = 8 // per region
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
			switch op := rng.Intn(10); {
			case op < 5:
				_, err := m.PinBlock(rm.r, off, size)
				_, dup := rm.pins[off]
				switch {
				case rm.r.Freed():
					if !errors.Is(err, ErrFreedRegion) {
						t.Fatalf("seed %d step %d: pin freed err = %v", seed, step, err)
					}
				case rm.full || dup:
					if !errors.Is(err, ErrDoublePin) {
						t.Fatalf("seed %d step %d: double pin err = %v", seed, step, err)
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
				for start := range m.blockPins {
					if rm.r.HPA.Contains(start) {
						live++
						if _, ok := rm.pins[start-rm.r.HPA.Start]; !ok {
							t.Fatalf("seed %d step %d: ledger holds %#x the model does not", seed, step, start)
						}
					}
				}
				if rm.r.blockPins != len(rm.pins) {
					t.Fatalf("seed %d step %d: region counts %d block pins, model %d", seed, step, rm.r.blockPins, len(rm.pins))
				}
			}
			if len(m.blockPins) != want || live != want {
				t.Fatalf("seed %d step %d: ledger has %d entries (%d in regions), model %d",
					seed, step, len(m.blockPins), live, want)
			}
			if m.PinnedBytes() != pinned {
				t.Fatalf("seed %d step %d: PinnedBytes = %d, model %d", seed, step, m.PinnedBytes(), pinned)
			}
		}
	}
}
