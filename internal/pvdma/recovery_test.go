package pvdma

import (
	"errors"
	"testing"

	"repro/internal/addr"
)

// TestEvictCountsUnmapErrors forces the evict-path IOMMU unmap to fail
// (the entry was already removed behind PVDMA's back) and checks the
// failure is counted and the block still leaves the cache — the error
// is surfaced, not silently discarded.
func TestEvictCountsUnmapErrors(t *testing.T) {
	w := newWorld(t, Config{})
	_, gpa, err := w.container.AllocGuestBuffer(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.mgr.MapDMA(addr.GPA(gpa.Start), gpa.Size); err != nil {
		t.Fatal(err)
	}
	blk := w.mgr.lookup(gpa.Start >> w.mgr.blockShift)
	if blk == nil {
		t.Fatal("block has no IOMMU mappings to sabotage")
	}
	// Sabotage: remove the IOMMU entry out from under the Map Cache.
	if err := w.hyp.IOMMU().Unmap(blk.da); err != nil {
		t.Fatal(err)
	}
	if err := w.mgr.ReleaseDMA(addr.GPA(gpa.Start), gpa.Size); err != nil {
		t.Fatal(err)
	}
	if got := w.mgr.Stats().UnmapErrors; got != 1 {
		t.Errorf("Stats.UnmapErrors = %d, want 1", got)
	}
	if w.mgr.BlockRegistered(addr.GPA(gpa.Start)) {
		t.Error("block survived evict despite the unmap failure")
	}
}

// TestStopFencesReferencedBlocks is the crash-safe-teardown edge: the
// container stops while a PVDMA block is still referenced. The fence
// must force the block out (recording the outstanding refs), and new
// registrations must be refused afterwards.
func TestStopFencesReferencedBlocks(t *testing.T) {
	w := newWorld(t, Config{})
	_, gpa, err := w.container.AllocGuestBuffer(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.mgr.MapDMA(addr.GPA(gpa.Start), gpa.Size); err != nil {
		t.Fatal(err)
	}
	da := w.container.GPAToDA(addr.GPA(gpa.Start))
	if _, _, err := w.hyp.IOMMU().Translate(da); err != nil {
		t.Fatalf("mapping not live before Stop: %v", err)
	}

	if err := w.container.Stop(); err != nil {
		t.Fatal(err)
	}

	found := false
	for _, step := range w.container.TeardownLog() {
		if step == "fence:pvdma(mappings=1,refs=1)" {
			found = true
		}
	}
	if !found {
		t.Errorf("teardown log %v missing pvdma fence with refs=1", w.container.TeardownLog())
	}
	if w.mgr.CachedBlocks() != 0 {
		t.Errorf("CachedBlocks = %d after fence", w.mgr.CachedBlocks())
	}
	if got := w.mgr.Stats().BlocksFenced; got != 1 {
		t.Errorf("BlocksFenced = %d, want 1", got)
	}
	if w.mgr.Stats().PinnedBytes != 0 {
		t.Errorf("PinnedBytes = %d after fence", w.mgr.Stats().PinnedBytes)
	}
	// No dangling translation: device DMA can no longer land in the
	// (now freed) guest RAM.
	if _, _, err := w.hyp.IOMMU().Translate(da); err == nil {
		t.Error("IOMMU translation survived container Stop")
	}
	// The stopped container refuses new DMA registrations.
	if _, err := w.mgr.MapDMA(addr.GPA(gpa.Start), gpa.Size); !errors.Is(err, ErrContainerStopped) {
		t.Errorf("MapDMA after Stop err = %v, want ErrContainerStopped", err)
	}
	if w.hyp.Memory().UsedBytes() != 0 {
		t.Errorf("UsedBytes = %d after Stop", w.hyp.Memory().UsedBytes())
	}
}
