package multipath

import (
	"testing"

	"repro/internal/sim"
)

// TestBlacklistPassThrough: with nothing quarantined the wrapper must
// reproduce the inner selector's decisions exactly.
func TestBlacklistPassThrough(t *testing.T) {
	a := New(RoundRobin, 8, sim.NewRNG(3))
	b := WithBlacklist(New(RoundRobin, 8, sim.NewRNG(3)))
	for i := 0; i < 100; i++ {
		if pa, pb := a.NextPath(), b.NextPath(); pa != pb {
			t.Fatalf("pick %d: %d vs %d", i, pa, pb)
		}
	}
	if b.NumPaths() != 8 {
		t.Error("wrapper identity")
	}
}

// TestBlacklistSkipsDownPaths: quarantined paths are only ever picked
// on the probe cadence.
func TestBlacklistSkipsDownPaths(t *testing.T) {
	b := WithBlacklist(New(RoundRobin, 8, sim.NewRNG(3)))
	b.MarkDown(2)
	b.MarkDown(5)
	if b.NumDown() != 2 || !b.Down(2) || !b.Down(5) || b.Down(0) {
		t.Fatal("mark state")
	}
	probes := 0
	for i := 1; i <= 160; i++ {
		p := b.NextPath()
		if p == 2 || p == 5 {
			probes++
			if i%DefaultProbeEvery != 0 {
				t.Fatalf("pick %d chose quarantined path %d off the probe cadence", i, p)
			}
		}
	}
	// 160 picks at a 1/16 cadence = 10 probes, alternating 2 and 5.
	if probes != 10 {
		t.Errorf("probes = %d, want 10", probes)
	}
}

// TestBlacklistProbeReinstates: a clean ack on a quarantined path
// brings it back; a loss on probe keeps it out.
func TestBlacklistProbeReinstates(t *testing.T) {
	b := WithBlacklist(New(OBS, 4, sim.NewRNG(1)))
	b.MarkDown(3)
	b.Feedback(3, 10, false, true) // probe lost: stays down
	if !b.Down(3) {
		t.Fatal("loss reinstated the path")
	}
	b.Feedback(3, 10, false, false) // clean ack: reinstated
	if b.Down(3) || b.NumDown() != 0 {
		t.Fatal("clean ack did not reinstate")
	}
}

// TestBlacklistAutoQuarantine: a loss streak trips the quarantine
// without any external MarkDown; a clean ack resets the streak.
func TestBlacklistAutoQuarantine(t *testing.T) {
	b := WithBlacklist(New(OBS, 4, sim.NewRNG(1)))
	b.Feedback(1, 10, false, true)
	b.Feedback(1, 10, false, true)
	b.Feedback(1, 10, false, false) // streak broken
	b.Feedback(1, 10, false, true)
	b.Feedback(1, 10, false, true)
	if b.Down(1) {
		t.Fatal("quarantined below the streak limit")
	}
	b.Feedback(1, 10, false, true)
	if !b.Down(1) {
		t.Fatal("loss streak did not quarantine")
	}
}

// TestBlacklistAllDown: with every path quarantined the wrapper falls
// back to the inner selector rather than spinning.
func TestBlacklistAllDown(t *testing.T) {
	b := WithBlacklist(New(RoundRobin, 4, sim.NewRNG(3)))
	for p := 0; p < 4; p++ {
		b.MarkDown(p)
	}
	seen := map[int]bool{}
	for i := 0; i < 16; i++ {
		seen[b.NextPath()] = true
	}
	if len(seen) != 4 {
		t.Errorf("all-down picks covered %d paths, want 4", len(seen))
	}
}

// TestBlacklistPinnedInner: single-path pins to one path; when that
// path is down the wrapper must deterministically step off it.
func TestBlacklistPinnedInner(t *testing.T) {
	inner := New(SinglePath, 4, sim.NewRNG(2))
	pinned := inner.NextPath()
	b := WithBlacklist(inner)
	b.MarkDown(pinned)
	for i := 1; i <= 20; i++ {
		p := b.NextPath()
		if i%DefaultProbeEvery == 0 {
			continue // probe pick may legitimately test the dead path
		}
		if p == pinned {
			t.Fatalf("pick %d stayed on the quarantined pinned path", i)
		}
	}
}
