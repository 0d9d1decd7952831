package checkpoint

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func testFP() Fingerprint {
	return Fingerprint{Seed: 42, Shards: 4, Workload: "fig9,fig12"}
}

// mustCreate opens a fresh store with two committed cells.
func mustCreate(t *testing.T, dir string) *Store {
	t.Helper()
	s, err := Create(dir, testFP())
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ id, payload string }{
		{"fig9", `{"id":"fig9","rows":[["a","b"]]}`},
		{"fig12", `{"id":"fig12","rows":[["c","d"]]}`},
	} {
		if err := s.Commit(c.id, []byte(c.payload), CellMeta{Events: 100, VirtualNS: 7, SimDigest: "d"}); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

func TestCommitResumeLookup(t *testing.T) {
	dir := t.TempDir()
	mustCreate(t, dir)

	s, err := Resume(dir, testFP())
	if err != nil {
		t.Fatalf("Resume: %v", err)
	}
	if s.ResumedCells() != 2 || s.Cells() != 2 {
		t.Errorf("resumed/cells = %d/%d, want 2/2", s.ResumedCells(), s.Cells())
	}
	payload, meta, ok, err := s.Lookup("fig9")
	if err != nil || !ok {
		t.Fatalf("Lookup(fig9) = ok=%v err=%v", ok, err)
	}
	if string(payload) != `{"id":"fig9","rows":[["a","b"]]}` {
		t.Errorf("payload = %s", payload)
	}
	if meta.Events != 100 || meta.VirtualNS != 7 || meta.SimDigest != "d" {
		t.Errorf("meta = %+v", meta)
	}
	if _, _, ok, err := s.Lookup("missing"); ok || err != nil {
		t.Errorf("Lookup(missing) = ok=%v err=%v, want miss with nil error", ok, err)
	}
	if got := s.IDs(); len(got) != 2 || got[0] != "fig12" || got[1] != "fig9" {
		t.Errorf("IDs = %v", got)
	}
	if m, ok := s.Meta("fig12"); !ok || m.Events != 100 {
		t.Errorf("Meta(fig12) = %+v ok=%v", m, ok)
	}
}

func TestCommitOverwriteRepairs(t *testing.T) {
	dir := t.TempDir()
	s := mustCreate(t, dir)
	if err := s.Commit("fig9", []byte(`{"id":"fig9","rows":[["new"]]}`), CellMeta{Events: 1}); err != nil {
		t.Fatal(err)
	}
	if s.Cells() != 2 {
		t.Errorf("re-commit grew the cell list to %d", s.Cells())
	}
	payload, meta, ok, err := s.Lookup("fig9")
	if err != nil || !ok || !strings.Contains(string(payload), "new") || meta.Events != 1 {
		t.Errorf("re-commit not visible: %s %+v %v %v", payload, meta, ok, err)
	}
}

func TestNoTempLeftovers(t *testing.T) {
	dir := t.TempDir()
	mustCreate(t, dir)
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.Contains(e.Name(), ".tmp-") {
			t.Errorf("temp file left behind: %s", e.Name())
		}
	}
}

func TestResumeNoCheckpoint(t *testing.T) {
	if _, err := Resume(t.TempDir(), testFP()); !errors.Is(err, ErrNoCheckpoint) {
		t.Errorf("empty dir: %v, want ErrNoCheckpoint", err)
	}
	if _, err := Resume(filepath.Join(t.TempDir(), "never-created"), testFP()); !errors.Is(err, ErrNoCheckpoint) {
		t.Errorf("missing dir: %v, want ErrNoCheckpoint", err)
	}
}

// TestResumeTruncatedManifest: a torn manifest write parses as garbage
// and must surface as ErrTruncated, not a panic or a silent accept.
func TestResumeTruncatedManifest(t *testing.T) {
	dir := t.TempDir()
	mustCreate(t, dir)
	path := filepath.Join(dir, manifestName)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, cut := range []int{1, len(raw) / 2, len(raw) - 2} {
		if err := os.WriteFile(path, raw[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Resume(dir, testFP()); !errors.Is(err, ErrTruncated) {
			t.Errorf("truncated at %d: %v, want ErrTruncated", cut, err)
		}
	}
}

// TestResumeWrongSchema: a manifest from another format revision is
// discarded wholesale.
func TestResumeWrongSchema(t *testing.T) {
	dir := t.TempDir()
	mustCreate(t, dir)
	path := filepath.Join(dir, manifestName)
	raw, _ := os.ReadFile(path)
	var man manifest
	if err := json.Unmarshal(raw, &man); err != nil {
		t.Fatal(err)
	}
	man.Schema = SchemaVersion + 41
	b, _ := json.Marshal(&man)
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Resume(dir, testFP()); !errors.Is(err, ErrSchemaVersion) {
		t.Errorf("wrong schema: %v, want ErrSchemaVersion", err)
	}
}

// TestResumeStaleFingerprint: a checkpoint from a different run
// configuration (seed, shards, workload, extra) never replays.
func TestResumeStaleFingerprint(t *testing.T) {
	dir := t.TempDir()
	mustCreate(t, dir)
	for name, fp := range map[string]Fingerprint{
		"seed":     {Seed: 43, Shards: 4, Workload: "fig9,fig12"},
		"shards":   {Seed: 42, Shards: 1, Workload: "fig9,fig12"},
		"workload": {Seed: 42, Shards: 4, Workload: "fig9"},
		"extra":    {Seed: 42, Shards: 4, Workload: "fig9,fig12", Extra: "chaos:x"},
	} {
		if _, err := Resume(dir, fp); !errors.Is(err, ErrFingerprint) {
			t.Errorf("%s changed: %v, want ErrFingerprint", name, err)
		}
	}
}

// TestResumeFlippedManifestByte: in-place damage to the manifest's cell
// list trips the list integrity hash at load time.
func TestResumeFlippedManifestByte(t *testing.T) {
	dir := t.TempDir()
	mustCreate(t, dir)
	path := filepath.Join(dir, manifestName)
	raw, _ := os.ReadFile(path)
	// Flip a byte inside a cell entry's checksum field.
	i := strings.Index(string(raw), `"sha256": "`) + len(`"sha256": "`)
	if raw[i] == 'f' {
		raw[i] = '0'
	} else {
		raw[i] = 'f'
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Resume(dir, testFP()); !errors.Is(err, ErrCorrupt) {
		t.Errorf("flipped manifest byte: %v, want ErrCorrupt", err)
	}
}

// TestLookupCorruptPayload covers the three payload failure modes:
// flipped byte, truncation, and deletion. Each is a typed ErrCorrupt
// (deletion included: the manifest promised a file that is gone), a
// recorded degradation, and a miss — never a bad payload returned.
func TestLookupCorruptPayload(t *testing.T) {
	corrupt := func(t *testing.T, path string) {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		raw[len(raw)/2] ^= 0x01
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	truncate := func(t *testing.T, path string) {
		if err := os.Truncate(path, 4); err != nil {
			t.Fatal(err)
		}
	}
	remove := func(t *testing.T, path string) {
		if err := os.Remove(path); err != nil {
			t.Fatal(err)
		}
	}
	for name, damage := range map[string]func(*testing.T, string){
		"flipped byte": corrupt, "truncated": truncate, "deleted": remove,
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			mustCreate(t, dir)
			damage(t, filepath.Join(dir, "cell-fig9.json"))
			s, err := Resume(dir, testFP())
			if err != nil {
				t.Fatalf("Resume: %v", err)
			}
			payload, _, ok, err := s.Lookup("fig9")
			if ok || payload != nil || !errors.Is(err, ErrCorrupt) {
				t.Errorf("Lookup on damaged payload = %s ok=%v err=%v, want ErrCorrupt miss", payload, ok, err)
			}
			if len(s.Degradations()) == 0 {
				t.Error("damage not recorded as a degradation")
			}
			// The sibling cell is unaffected.
			if _, _, ok, err := s.Lookup("fig12"); !ok || err != nil {
				t.Errorf("undamaged sibling: ok=%v err=%v", ok, err)
			}
			// Re-commit repairs: the full-re-run path ends here.
			if err := s.Commit("fig9", []byte(`{"id":"fig9"}`), CellMeta{}); err != nil {
				t.Fatal(err)
			}
			if _, _, ok, err := s.Lookup("fig9"); !ok || err != nil {
				t.Errorf("repair not visible: ok=%v err=%v", ok, err)
			}
		})
	}
}

// TestOpenDegradesGracefully: every typed load failure falls back to a
// fresh store through Open, with the reason logged — the CLI contract
// that a damaged checkpoint costs a re-run, never a crash.
func TestOpenDegradesGracefully(t *testing.T) {
	prep := map[string]func(t *testing.T, dir string){
		"no checkpoint": func(t *testing.T, dir string) {},
		"truncated": func(t *testing.T, dir string) {
			mustCreate(t, dir)
			if err := os.WriteFile(filepath.Join(dir, manifestName), []byte(`{"schema`), 0o644); err != nil {
				t.Fatal(err)
			}
		},
		"stale fingerprint": func(t *testing.T, dir string) {
			// One field off: the path a checkpoint written under an
			// older fingerprint layout takes.
			stale := testFP()
			stale.Shards = 1
			s, err := Create(dir, stale)
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Commit("fig9", []byte(`{"id":"fig9"}`), CellMeta{}); err != nil {
				t.Fatal(err)
			}
		},
		"wrong schema": func(t *testing.T, dir string) {
			mustCreate(t, dir)
			b, _ := json.Marshal(&manifest{Schema: 99, Fingerprint: testFP().Hash()})
			if err := os.WriteFile(filepath.Join(dir, manifestName), b, 0o644); err != nil {
				t.Fatal(err)
			}
		},
	}
	for name, setup := range prep {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			setup(t, dir)
			var logged []string
			s, err := Open(dir, testFP(), true, func(f string, a ...any) {
				logged = append(logged, f)
			})
			if err != nil {
				t.Fatalf("Open fell over: %v", err)
			}
			if s.ResumedCells() != 0 {
				t.Errorf("degraded open resumed %d cells, want 0", s.ResumedCells())
			}
			if name != "no checkpoint" && len(logged) == 0 {
				t.Error("degradation not logged")
			}
			// The fresh store is fully usable.
			if err := s.Commit("x", []byte("{}"), CellMeta{}); err != nil {
				t.Fatal(err)
			}
			if _, err := Resume(dir, testFP()); err != nil {
				t.Errorf("store left unusable after degraded open: %v", err)
			}
		})
	}
	// A healthy checkpoint resumes through Open without logging.
	dir := t.TempDir()
	mustCreate(t, dir)
	s, err := Open(dir, testFP(), true, func(f string, a ...any) {
		t.Errorf("healthy resume logged: %s", f)
	})
	if err != nil || s.ResumedCells() != 2 {
		t.Errorf("healthy Open = resumed %d, err %v", s.ResumedCells(), err)
	}
	// resume=false always starts fresh.
	s2, err := Open(dir, testFP(), false, nil)
	if err != nil || s2.ResumedCells() != 0 {
		t.Errorf("Open(resume=false) = resumed %d, err %v", s2.ResumedCells(), err)
	}
}

func TestFingerprintHashStability(t *testing.T) {
	a, b := testFP(), testFP()
	if a.Hash() != b.Hash() {
		t.Error("equal fingerprints hash differently")
	}
	// Field boundaries are length-prefixed: moving a char across a
	// boundary must change the hash.
	x := Fingerprint{Workload: "ab", Extra: "c"}
	y := Fingerprint{Workload: "a", Extra: "bc"}
	if x.Hash() == y.Hash() {
		t.Error("fingerprint fields collide by concatenation")
	}
}

func TestSanitize(t *testing.T) {
	for id, want := range map[string]string{
		"fig9-scale":    "fig9-scale",
		"jobgraph:ring": "jobgraph%3Aring",
		"a/b":           "a%2Fb",
		"..":            "..", // dots are safe inside "cell-<id>.json"
	} {
		if got := sanitize(id); got != want {
			t.Errorf("sanitize(%q) = %q, want %q", id, got, want)
		}
	}
	if sanitize("a:b") == sanitize("a%3Ab") {
		// '%' itself is escaped, so escaping cannot collide.
		t.Error("sanitize collision between distinct IDs")
	}
}

func TestCommitEmptyID(t *testing.T) {
	s, err := Create(t.TempDir(), testFP())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Commit("", []byte("{}"), CellMeta{}); err == nil {
		t.Error("empty cell ID accepted")
	}
}

// TestCommitHook pins the abort-injection contract the torture harness
// depends on: the hook fires after each commit is durable, with an
// accurate committed count.
func TestCommitHook(t *testing.T) {
	dir := t.TempDir()
	s, err := Create(dir, testFP())
	if err != nil {
		t.Fatal(err)
	}
	var calls []int
	s.SetCommitHook(func(id string, n int) {
		calls = append(calls, n)
		// Durability at hook time: a fresh Resume already sees the cell.
		r, err := Resume(dir, testFP())
		if err != nil {
			t.Errorf("resume inside hook: %v", err)
			return
		}
		if r.Cells() != n {
			t.Errorf("hook fired before durability: resume sees %d cells, hook says %d", r.Cells(), n)
		}
	})
	s.Commit("a", []byte("{}"), CellMeta{})
	s.Commit("b", []byte("{}"), CellMeta{})
	if len(calls) != 2 || calls[0] != 1 || calls[1] != 2 {
		t.Errorf("hook calls = %v, want [1 2]", calls)
	}
}
