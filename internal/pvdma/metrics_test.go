package pvdma

import (
	"reflect"
	"sync"
	"testing"

	"repro/internal/addr"
	"repro/internal/sim"
)

// TestPinnedGaugeAndEvictions: the manager's pinned bytes track the
// guest region's pin ledger, and a full release evicts every block it
// registered.
func TestPinnedGaugeAndEvictions(t *testing.T) {
	w := newWorld(t, Config{})
	_, gpa, err := w.container.AllocGuestBuffer(4 << 20)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.mgr.MapDMA(addr.GPA(gpa.Start), gpa.Size); err != nil {
		t.Fatal(err)
	}
	st := w.mgr.Stats()
	if got := w.container.GuestMemory().PinnedBytes(); got != st.PinnedBytes {
		t.Errorf("region pins %d bytes, stats say %d", got, st.PinnedBytes)
	}
	if st.PinnedBytes == 0 {
		t.Fatal("nothing pinned")
	}
	if st.BlocksReleased != 0 {
		t.Errorf("evictions = %d before any release", st.BlocksReleased)
	}
	if err := w.mgr.ReleaseDMA(addr.GPA(gpa.Start), gpa.Size); err != nil {
		t.Fatal(err)
	}
	after := w.mgr.Stats()
	if after.PinnedBytes != 0 || w.container.GuestMemory().PinnedBytes() != 0 {
		t.Errorf("pinned stats %d, region %d after full release",
			after.PinnedBytes, w.container.GuestMemory().PinnedBytes())
	}
	if got, want := after.BlocksReleased, st.BlocksRegistered; got != want {
		t.Errorf("evictions = %d, want %d (every registered block evicted)", got, want)
	}
}

// runEvictionPressure drives one isolated host through a seeded
// map/release churn under a pinned-bytes budget: buffers are mapped at
// random, and when live pinned bytes exceed the budget the oldest
// mappings are released FIFO until back under — the same governor the
// churn driver uses. The whole object graph (memory, IOMMU, page
// tables, manager) is private to the call. It returns the manager's
// counters, so identical seeds can be compared across serial and
// concurrent executions.
func runEvictionPressure(t *testing.T, seed uint64) Stats {
	t.Helper()
	w := newWorld(t, Config{})
	rng := sim.NewRNG(seed)
	type buf struct{ gpa addr.GPARange }
	var bufs []buf
	for i := 0; i < 16; i++ {
		_, gpa, err := w.container.AllocGuestBuffer(8 << 20)
		if err != nil {
			t.Fatal(err)
		}
		bufs = append(bufs, buf{gpa: gpa})
	}
	const budget = 48 << 20 // 48 MiB of 128 MiB mappable: constant pressure
	type mapping struct {
		gpa  addr.GPA
		size uint64
	}
	var live []mapping
	var pinnedLive uint64
	for i := 0; i < 400; i++ {
		b := bufs[rng.Intn(len(bufs))]
		if _, err := w.mgr.MapDMA(addr.GPA(b.gpa.Start), b.gpa.Size); err != nil {
			t.Fatalf("MapDMA %d: %v", i, err)
		}
		live = append(live, mapping{gpa: addr.GPA(b.gpa.Start), size: b.gpa.Size})
		pinnedLive = w.mgr.Stats().PinnedBytes
		for pinnedLive > budget && len(live) > 0 {
			old := live[0]
			live = live[1:]
			if err := w.mgr.ReleaseDMA(old.gpa, old.size); err != nil {
				t.Fatalf("ReleaseDMA: %v", err)
			}
			pinnedLive = w.mgr.Stats().PinnedBytes
		}
	}
	for _, m := range live {
		if err := w.mgr.ReleaseDMA(m.gpa, m.size); err != nil {
			t.Fatalf("drain ReleaseDMA: %v", err)
		}
	}
	st := w.mgr.Stats()
	if st.PinnedBytes != 0 {
		t.Fatalf("pinned bytes = %d after drain", st.PinnedBytes)
	}
	return st
}

// TestEvictionPressureConcurrentMapDMA is the satellite race test:
// four seeded eviction-pressure runs execute on concurrent goroutines,
// each over a fully isolated host. Under -race this proves the pvdma /
// mem / pagetable stack shares no hidden mutable state
// between hosts — the property that makes the sharded churn fleet's
// parallel windows legal — and the results must equal the same seeds
// run serially.
func TestEvictionPressureConcurrentMapDMA(t *testing.T) {
	seeds := []uint64{11, 22, 33, 44}
	serial := make([]Stats, len(seeds))
	for i, s := range seeds {
		serial[i] = runEvictionPressure(t, s)
	}
	if serial[0].BlocksReleased == 0 {
		t.Fatal("pressure run produced no evictions; budget too generous to test anything")
	}
	concurrent := make([]Stats, len(seeds))
	var wg sync.WaitGroup
	for i, s := range seeds {
		wg.Add(1)
		go func() {
			defer wg.Done()
			concurrent[i] = runEvictionPressure(t, s)
		}()
	}
	wg.Wait()
	for i := range seeds {
		if !reflect.DeepEqual(serial[i], concurrent[i]) {
			t.Errorf("seed %d diverged under concurrency:\n serial %+v\n concur %+v",
				seeds[i], serial[i], concurrent[i])
		}
	}
	// Distinct seeds take distinct paths (the runs are actually seeded).
	if reflect.DeepEqual(serial[0], serial[1]) {
		t.Error("seeds 11 and 22 produced identical runs; RNG not wired through")
	}
}
