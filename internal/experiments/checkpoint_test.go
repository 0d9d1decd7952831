package experiments

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/trace"
)

func checkpointFixture(t *testing.T) ([]Runner, checkpoint.Fingerprint) {
	t.Helper()
	runners, err := Select("fig12,fig13,table1,tcp-path")
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]string, len(runners))
	for i, r := range runners {
		ids[i] = r.ID
	}
	return runners, checkpoint.Fingerprint{
		Seed: 1, Shards: 1, Workload: strings.Join(ids, ","),
	}
}

// TestRunAllCheckpointedResume: interrupt after one commit, resume, and
// the stitched batch is byte-identical with Resumed flags and recorded
// event counts on the replayed prefix.
func TestRunAllCheckpointedResume(t *testing.T) {
	runners, fp := checkpointFixture(t)
	want, err := RunAll(context.Background(), NewSession(1), runners, 1)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	store, err := checkpoint.Create(dir, fp)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	store.SetCommitHook(func(id string, committed int) {
		if committed >= 1 {
			cancel()
		}
	})
	if _, err := RunAllCheckpointed(ctx, NewSession(1), runners, 1, store); err == nil {
		t.Fatal("interrupted batch reported no error")
	}
	committed := store.Cells()
	if committed == 0 || committed == len(runners) {
		t.Fatalf("interrupt committed %d/%d cells; want a strict prefix", committed, len(runners))
	}

	resumed, err := checkpoint.Resume(dir, fp)
	if err != nil {
		t.Fatal(err)
	}
	got, err := RunAllCheckpointed(context.Background(), NewSession(1), runners, 1, resumed)
	if err != nil {
		t.Fatal(err)
	}
	var replayed int
	for i := range got {
		if got[i].Table.JSON() != want[i].Table.JSON() {
			t.Errorf("%s: resumed output differs", got[i].ID)
		}
		if got[i].Resumed {
			replayed++
			if got[i].Stats.Events != want[i].Stats.Events {
				t.Errorf("%s: replayed Stats.Events = %d, want recorded %d",
					got[i].ID, got[i].Stats.Events, want[i].Stats.Events)
			}
		}
	}
	if replayed != committed {
		t.Errorf("replayed %d cells, checkpoint held %d", replayed, committed)
	}
	if resumed.Cells() != len(runners) {
		t.Errorf("completed batch left %d/%d cells committed", resumed.Cells(), len(runners))
	}
}

// TestRunAllCheckpointedCorruptCell: a damaged payload re-runs, repairs
// the store, and records a degradation — output is unaffected.
func TestRunAllCheckpointedCorruptCell(t *testing.T) {
	runners, fp := checkpointFixture(t)
	dir := t.TempDir()
	store, err := checkpoint.Create(dir, fp)
	if err != nil {
		t.Fatal(err)
	}
	want, err := RunAllCheckpointed(context.Background(), NewSession(1), runners, 1, store)
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(dir, "cell-fig12.json")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x01
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	resumed, err := checkpoint.Resume(dir, fp)
	if err != nil {
		t.Fatal(err)
	}
	got, err := RunAllCheckpointed(context.Background(), NewSession(1), runners, 1, resumed)
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i].Table.JSON() != want[i].Table.JSON() {
			t.Errorf("%s: output differs after corrupt-cell recovery", got[i].ID)
		}
		if got[i].ID == "fig12" && got[i].Resumed {
			t.Error("corrupt fig12 cell was replayed instead of re-run")
		}
	}
	if len(resumed.Degradations()) == 0 {
		t.Error("corruption not recorded as a degradation")
	}
	// The re-run repaired the store in place.
	if _, _, ok, err := resumed.Lookup("fig12"); !ok || err != nil {
		t.Errorf("fig12 not repaired: ok=%v err=%v", ok, err)
	}
}

// TestRunAllCheckpointedTracerBypass: a traced session must never read
// from or write to the store — replaying a cell would drop its events.
func TestRunAllCheckpointedTracerBypass(t *testing.T) {
	runners, err := Select("fig12")
	if err != nil {
		t.Fatal(err)
	}
	fp := checkpoint.Fingerprint{Seed: 1, Shards: 1, Workload: "fig12"}
	dir := t.TempDir()
	store, err := checkpoint.Create(dir, fp)
	if err != nil {
		t.Fatal(err)
	}
	s := NewSession(1)
	s.Tracer = trace.New(64)
	if _, err := RunAllCheckpointed(context.Background(), s, runners, 1, store); err != nil {
		t.Fatal(err)
	}
	if store.Cells() != 0 {
		t.Errorf("traced run committed %d cells", store.Cells())
	}
}

// TestParseTable pins the replay decode path.
func TestParseTable(t *testing.T) {
	runners, err := Select("fig12")
	if err != nil {
		t.Fatal(err)
	}
	orig, err := runners[0].RunSession(NewSession(1))
	if err != nil {
		t.Fatal(err)
	}
	tb, err := ParseTable([]byte(orig.JSON()))
	if err != nil {
		t.Fatal(err)
	}
	if tb.JSON() != orig.JSON() {
		t.Error("ParseTable round trip changed the bytes")
	}
	if _, err := ParseTable([]byte(`{"rows":[]}`)); err == nil {
		t.Error("table without an ID accepted")
	}
	if _, err := ParseTable([]byte(`{`)); err == nil {
		t.Error("truncated table accepted")
	}
}
