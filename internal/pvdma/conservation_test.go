package pvdma

import (
	"errors"
	"testing"

	"repro/internal/addr"
	"repro/internal/sim"
)

// state is everything a failed PVDMA call must leave as it found it.
type state struct {
	Cached, Refs int
	Pinned       uint64
	Entries      int
	RegionPinned uint64
}

func (w *world) state() state {
	return state{
		Cached:       w.mgr.CachedBlocks(),
		Refs:         w.mgr.InflightRefs(),
		Pinned:       w.mgr.Stats().PinnedBytes,
		Entries:      w.hyp.IOMMU().Entries(),
		RegionPinned: w.container.GuestMemory().PinnedBytes(),
	}
}

// TestMapDMAFailureIsAllOrNothing: a range whose second block lies past
// the end of the 256 MiB guest fails, and the first block — registered
// by the same call, or already cached and hit by it — is left as it was.
func TestMapDMAFailureIsAllOrNothing(t *testing.T) {
	w := newWorld(t, Config{})
	edge := addr.GPA(254 << 20)
	before := w.state()
	if _, err := w.mgr.MapDMA(edge, 4<<20); !errors.Is(err, ErrUnmappedGPA) {
		t.Fatalf("err = %v, want ErrUnmappedGPA", err)
	}
	if got := w.state(); got != before {
		t.Errorf("failed miss changed state:\n before %+v\n after  %+v", before, got)
	}
	if w.mgr.BlockRegistered(edge) {
		t.Error("block of the failed call left in the Map Cache")
	}

	if _, err := w.mgr.MapDMA(edge, addr.PageSize2M); err != nil {
		t.Fatal(err)
	}
	before = w.state()
	if _, err := w.mgr.MapDMA(edge, 4<<20); !errors.Is(err, ErrUnmappedGPA) {
		t.Fatalf("err = %v, want ErrUnmappedGPA", err)
	}
	if got := w.state(); got != before {
		t.Errorf("failed hit changed state:\n before %+v\n after  %+v", before, got)
	}
}

// TestReleaseDMAFailureIsAllOrNothing: releasing two blocks of which
// only the first is mapped fails and keeps the first block cached.
func TestReleaseDMAFailureIsAllOrNothing(t *testing.T) {
	w := newWorld(t, Config{})
	g := addr.GPA(addr.PageSize2M)
	if _, err := w.mgr.MapDMA(g, addr.PageSize2M); err != nil {
		t.Fatal(err)
	}
	before := w.state()
	if err := w.mgr.ReleaseDMA(g, 4<<20); !errors.Is(err, ErrNotMapped) {
		t.Fatalf("err = %v, want ErrNotMapped", err)
	}
	if got := w.state(); got != before {
		t.Errorf("failed release changed state:\n before %+v\n after  %+v", before, got)
	}
	if !w.mgr.BlockRegistered(g) {
		t.Error("failed release evicted the mapped block")
	}
}

// blockModel is the reference model's view of one cached block.
type blockModel struct {
	refs    int
	entries int    // IOMMU entries its registration installed
	pinned  uint64 // guest bytes its registration pinned
}

// expectRegister computes what registering block idx installs from the
// EPT as it stands: one IOMMU entry per EPT span overlapping the block,
// and a pin for the spans backed by guest RAM.
func (w *world) expectRegister(idx uint64) blockModel {
	bs := w.mgr.Config().BlockSize
	blk := addr.Range{Start: idx * bs, Size: bs}
	guest := w.container.GuestMemory().HPA
	var m blockModel
	w.container.EPT().Walk(func(src addr.GPARange, hpa addr.HPA) bool {
		if !src.Overlaps(blk) {
			return true
		}
		start, end := max(src.Start, blk.Start), min(src.End(), blk.End())
		m.entries++
		if h := uint64(hpa) + start - src.Start; guest.Contains(h) {
			m.pinned += end - start
		}
		return true
	})
	return m
}

// TestConservationUnderRandomOps interleaves MapDMA, ReleaseDMA,
// doorbell direct maps that split blocks in the EPT, and FenceDMA, and
// after every call checks the manager against a reference model:
// pinned bytes agree across Stats, the guest region and the model, and IOMMU entries, cached blocks and references match it.
// Failed calls must change nothing.
func TestConservationUnderRandomOps(t *testing.T) {
	for seed := uint64(1); seed <= 12; seed++ {
		runConservation(t, seed)
	}
}

func runConservation(t *testing.T, seed uint64) {
	w := newWorld(t, Config{})
	rng := sim.NewRNG(seed)
	bs := w.mgr.Config().BlockSize
	ram := w.container.Config().MemoryBytes
	baseEntries := w.hyp.IOMMU().Entries()
	model := map[uint64]*blockModel{}
	everPinned := map[uint64]bool{} // block offsets any registration pinned
	type mapping struct {
		gpa  addr.GPA
		size uint64
	}
	var live []mapping
	holes := map[addr.GPA]bool{}
	var fails, splits int

	check := func(step int, op string) {
		t.Helper()
		var pinned uint64
		var entries, refs int
		for _, b := range model {
			pinned += b.pinned
			entries += b.entries
			refs += b.refs
		}
		st := w.mgr.Stats()
		if st.PinnedBytes != pinned || w.container.GuestMemory().PinnedBytes() != pinned {
			t.Fatalf("seed %d step %d (%s): pinned stats %d, region %d, model %d", seed, step, op,
				st.PinnedBytes, w.container.GuestMemory().PinnedBytes(), pinned)
		}
		if got := w.hyp.IOMMU().Entries() - baseEntries; got != entries {
			t.Fatalf("seed %d step %d (%s): IOMMU entries %d, model %d", seed, step, op, got, entries)
		}
		if w.mgr.CachedBlocks() != len(model) || w.mgr.InflightRefs() != refs {
			t.Fatalf("seed %d step %d (%s): cached %d refs %d, model %d and %d", seed, step, op,
				w.mgr.CachedBlocks(), w.mgr.InflightRefs(), len(model), refs)
		}
		if st.BlocksRegistered-st.BlocksReleased != uint64(len(model)) {
			t.Fatalf("seed %d step %d (%s): registered %d - released %d != cached %d", seed, step, op,
				st.BlocksRegistered, st.BlocksReleased, len(model))
		}
	}

	for step := 0; step < 400; step++ {
		switch op := rng.Intn(20); {
		case op < 9:
			// Some ranges run past the end of guest RAM.
			gpa := addr.GPA(uint64(rng.Intn(int((ram+8<<20)/addr.PageSize4K))) * addr.PageSize4K)
			size := uint64(1+rng.Intn(1024)) * addr.PageSize4K
			first, last := uint64(gpa)/bs, (uint64(gpa)+size-1)/bs
			wantErr := false
			for b := first; b <= last; b++ {
				if model[b] == nil && w.expectRegister(b).entries == 0 {
					wantErr = true
				}
			}
			_, err := w.mgr.MapDMA(gpa, size)
			if wantErr != (err != nil) || (wantErr && !errors.Is(err, ErrUnmappedGPA)) {
				t.Fatalf("seed %d step %d: MapDMA(%v, %#x) err = %v, want error %v", seed, step, gpa, size, err, wantErr)
			}
			if err != nil {
				fails++
				break
			}
			for b := first; b <= last; b++ {
				if model[b] == nil {
					m := w.expectRegister(b)
					model[b] = &m
					if m.entries > 1 {
						splits++
					}
					if m.pinned > 0 {
						everPinned[b*bs] = true
					}
				}
				model[b].refs++
			}
			live = append(live, mapping{gpa, size})
			check(step, "map")
		case op < 17:
			var m mapping
			if len(live) > 0 && rng.Intn(5) != 0 {
				i := rng.Intn(len(live))
				m = live[i]
				live = append(live[:i], live[i+1:]...)
			} else {
				m = mapping{addr.GPA(uint64(rng.Intn(int(ram/bs))) * bs), uint64(1+rng.Intn(4)) * bs}
			}
			first, last := uint64(m.gpa)/bs, (uint64(m.gpa)+m.size-1)/bs
			wantErr := false
			for b := first; b <= last; b++ {
				if model[b] == nil {
					wantErr = true
				}
			}
			err := w.mgr.ReleaseDMA(m.gpa, m.size)
			if wantErr != (err != nil) || (wantErr && !errors.Is(err, ErrNotMapped)) {
				t.Fatalf("seed %d step %d: ReleaseDMA(%v, %#x) err = %v, want error %v", seed, step, m.gpa, m.size, err, wantErr)
			}
			if err != nil {
				fails++
				break
			}
			for b := first; b <= last; b++ {
				if model[b].refs--; model[b].refs == 0 {
					delete(model, b)
				}
			}
			check(step, "release")
		case op < 19:
			// Direct-map a doorbell over a RAM page: blocks registered
			// afterwards are split into RAM and BAR spans.
			g := addr.GPA(uint64(rng.Intn(int(ram/addr.PageSize4K))) * addr.PageSize4K)
			if holes[g] {
				break
			}
			db, err := w.rnic.AllocDoorbell()
			if err != nil {
				break
			}
			if err := w.container.DirectMapDevice(g, db); err != nil {
				t.Fatal(err)
			}
			holes[g] = true
			check(step, "direct-map")
		default:
			if n := w.mgr.FenceDMA(); n != len(model) {
				t.Fatalf("seed %d step %d: FenceDMA = %d, model %d", seed, step, n, len(model))
			}
			model = map[uint64]*blockModel{}
			check(step, "fence")
		}
	}
	if fails == 0 || splits == 0 {
		t.Fatalf("seed %d: %d failed calls, %d split blocks: the run misses a path", seed, fails, splits)
	}
	guest := w.container.GuestMemory()
	if err := w.container.Stop(); err != nil {
		t.Fatal(err)
	}
	model = map[uint64]*blockModel{}
	check(-1, "stop")
	if p := w.hyp.Memory().PinnedBytes(); p != 0 {
		t.Errorf("seed %d: host pinned %d bytes after Stop", seed, p)
	}
	for off := range everPinned {
		if guest.BlockPinned(off) {
			t.Errorf("seed %d: freed region still pins block %#x", seed, off)
		}
	}
}
