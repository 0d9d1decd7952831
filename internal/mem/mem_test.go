package mem

import (
	"errors"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/addr"
)

func testMem() *Memory {
	return New(Config{TotalBytes: 1 << 30})
}

func TestAllocateAccounting(t *testing.T) {
	m := testMem()
	r, err := m.Allocate(64*addr.PageSize4K, "a")
	if err != nil {
		t.Fatal(err)
	}
	if m.UsedBytes() != 64*addr.PageSize4K {
		t.Errorf("UsedBytes = %d", m.UsedBytes())
	}
	if err := m.Free(r); err != nil {
		t.Fatal(err)
	}
	if m.UsedBytes() != 0 {
		t.Errorf("UsedBytes after Free = %d", m.UsedBytes())
	}
	if err := m.Free(r); !errors.Is(err, ErrFreedRegion) {
		t.Errorf("double Free err = %v", err)
	}
}

func TestAllocateRejectsUnaligned(t *testing.T) {
	m := testMem()
	if _, err := m.Allocate(100, "x"); !errors.Is(err, ErrUnalignedSize) {
		t.Errorf("unaligned Allocate err = %v", err)
	}
	if _, err := m.Allocate(0, "x"); !errors.Is(err, ErrUnalignedSize) {
		t.Errorf("zero Allocate err = %v", err)
	}
}

func TestAllocateExhaustion(t *testing.T) {
	m := New(Config{TotalBytes: 8 * addr.PageSize4K})
	if _, err := m.Allocate(16*addr.PageSize4K, "big"); !errors.Is(err, ErrOutOfMemory) {
		t.Errorf("err = %v, want ErrOutOfMemory", err)
	}
}

func TestLookupAndResident(t *testing.T) {
	m := testMem()
	a, _ := m.Allocate(4*addr.PageSize4K, "a")
	b, _ := m.Allocate(4*addr.PageSize4K, "b")
	if m.Lookup(addr.HPA(a.HPA.Start)) != a {
		t.Error("Lookup start of a")
	}
	if m.Lookup(addr.HPA(b.HPA.End()-1)) != b {
		t.Error("Lookup last byte of b")
	}
	if m.Lookup(addr.HPA(b.HPA.End())) != nil {
		t.Error("Lookup past the end should miss")
	}
	if m.Lookup(0) != nil {
		t.Error("HPA 0 must be unmapped")
	}
	if !m.Resident(addr.HPA(a.HPA.Start)) {
		t.Error("fresh region should be resident")
	}
}

func TestPinAllCostMatchesCalibration(t *testing.T) {
	// 1.6 TB at ~1 µs/4K page should pin in roughly 390 s (Figure 6's
	// "without PVDMA" data point).
	m := New(Config{TotalBytes: 2 << 40})
	r, err := m.Allocate(16*(100<<30), "container-1.6TB")
	if err != nil {
		t.Fatal(err)
	}
	cost, err := m.PinAll(r)
	if err != nil {
		t.Fatal(err)
	}
	got := cost.Seconds()
	if got < 350 || got > 430 {
		t.Errorf("1.6 TB pin cost = %.1f s, want ~390 s", got)
	}
	// Second pin is free.
	cost2, _ := m.PinAll(r)
	if cost2 != 0 {
		t.Errorf("re-pin cost = %v, want 0", cost2)
	}
}

func TestSwapRequiresUnpinned(t *testing.T) {
	m := testMem()
	r, _ := m.Allocate(4*addr.PageSize4K, "a")
	if _, err := m.PinAll(r); err != nil {
		t.Fatal(err)
	}
	if err := m.SwapOut(r); !errors.Is(err, ErrPinnedSwap) {
		t.Errorf("swap of pinned region err = %v", err)
	}
	if err := m.UnpinAll(r); err != nil {
		t.Fatal(err)
	}
	if err := m.SwapOut(r); err != nil {
		t.Fatal(err)
	}
	if m.Resident(addr.HPA(r.HPA.Start)) {
		t.Error("swapped region still resident")
	}
}

func TestPinBlockAccounting(t *testing.T) {
	m := testMem()
	r, _ := m.Allocate(4*addr.PageSize2M, "pv")
	cost, err := m.PinBlock(r, 0, addr.PageSize2M)
	if err != nil {
		t.Fatal(err)
	}
	wantCost := time.Duration(addr.PageSize2M/addr.PageSize4K) * pinCostPerPage4K
	if cost != wantCost {
		t.Errorf("2 MiB block pin cost = %v, want %v", cost, wantCost)
	}
	if !r.BlockPinned(0) || r.BlockPinned(addr.PageSize2M) {
		t.Error("BlockPinned wrong")
	}
	if m.PinnedBytes() != addr.PageSize2M {
		t.Errorf("PinnedBytes = %d", m.PinnedBytes())
	}
	if _, err := m.PinBlock(r, 0, addr.PageSize2M); !errors.Is(err, ErrDoublePin) {
		t.Errorf("double block pin err = %v", err)
	}
	if err := m.UnpinBlock(r, 0); err != nil {
		t.Fatal(err)
	}
	if m.PinnedBytes() != 0 {
		t.Errorf("PinnedBytes after unpin = %d", m.PinnedBytes())
	}
	if err := m.UnpinBlock(r, 0); !errors.Is(err, ErrNotPinned) {
		t.Errorf("double unpin err = %v", err)
	}
}

func TestPinBlockValidation(t *testing.T) {
	m := testMem()
	r, _ := m.Allocate(addr.PageSize2M, "pv")
	if _, err := m.PinBlock(r, 5, addr.PageSize4K); !errors.Is(err, ErrUnalignedSize) {
		t.Errorf("unaligned offset err = %v", err)
	}
	if _, err := m.PinBlock(r, 0, 2*addr.PageSize2M); !errors.Is(err, ErrNotInRegion) {
		t.Errorf("oversize err = %v", err)
	}
	if _, err := m.PinAll(r); err != nil {
		t.Fatal(err)
	}
	if _, err := m.PinBlock(r, 0, addr.PageSize4K); !errors.Is(err, ErrDoublePin) {
		t.Errorf("block pin over full pin err = %v", err)
	}
}

func TestPinBlockClearsSwap(t *testing.T) {
	m := testMem()
	r, _ := m.Allocate(addr.PageSize2M, "pv")
	if err := m.SwapOut(r); err != nil {
		t.Fatal(err)
	}
	if _, err := m.PinBlock(r, 0, addr.PageSize4K); err != nil {
		t.Fatal(err)
	}
	if r.SwappedOut() {
		t.Error("pin should fault the region back in")
	}
}

func TestFreeReleasesPins(t *testing.T) {
	m := testMem()
	r, _ := m.Allocate(addr.PageSize2M, "pv")
	if _, err := m.PinAll(r); err != nil {
		t.Fatal(err)
	}
	if err := m.Free(r); err != nil {
		t.Fatal(err)
	}
	if m.PinnedBytes() != 0 {
		t.Errorf("PinnedBytes after Free = %d", m.PinnedBytes())
	}
}

func TestRegionsDisjointProperty(t *testing.T) {
	f := func(sizes []uint8) bool {
		m := New(Config{TotalBytes: 1 << 30})
		var regs []*Region
		for _, s := range sizes {
			r, err := m.Allocate(uint64(s%16+1)*addr.PageSize4K, "p")
			if err != nil {
				return true // exhaustion is fine
			}
			regs = append(regs, r)
		}
		for i := range regs {
			for j := i + 1; j < len(regs); j++ {
				if regs[i].HPA.Overlaps(regs[j].HPA.Range) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPinnedNeverExceedsUsedProperty(t *testing.T) {
	f := func(ops []uint8) bool {
		m := New(Config{TotalBytes: 1 << 28})
		var regs []*Region
		for _, op := range ops {
			switch op % 4 {
			case 0:
				if r, err := m.Allocate(addr.PageSize2M, "p"); err == nil {
					regs = append(regs, r)
				}
			case 1:
				if len(regs) > 0 {
					m.PinAll(regs[int(op)%len(regs)])
				}
			case 2:
				if len(regs) > 0 {
					m.UnpinAll(regs[int(op)%len(regs)])
				}
			case 3:
				if len(regs) > 0 {
					i := int(op) % len(regs)
					if !regs[i].Freed() {
						m.Free(regs[i])
					}
				}
			}
			if m.PinnedBytes() > m.UsedBytes() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
