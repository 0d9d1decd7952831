package checkpoint_test

// The kill-and-resume torture harness: run an experiment batch, inject
// a seeded abort at a randomized quiescent boundary (and, on some
// trials, post-abort disk damage), resume from the surviving
// checkpoint, and assert the stitched-together run is byte-identical to
// an uninterrupted one — including the recorded sim-state digests for
// every cell that replayed rather than re-ran.

import (
	"context"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/checkpoint"
	"repro/internal/experiments"
	"repro/internal/fabric"
)

// tortureRunners is the cheap-but-diverse subset the torture trials
// cycle through: analytic tables, packet-level figures, and the TCP
// comparison path all exercise different engine shapes.
var tortureIDs = []string{"fig12", "fig13", "table1", "tcp-path", "prob6-core"}

func selectRunners(t *testing.T, ids []string) []experiments.Runner {
	t.Helper()
	runners, err := experiments.Select(strings.Join(ids, ","))
	if err != nil {
		t.Fatal(err)
	}
	return runners
}

func batchJSON(t *testing.T, results []experiments.Result) string {
	t.Helper()
	var b strings.Builder
	for _, r := range results {
		if r.Err != nil {
			t.Fatalf("%s: %v", r.ID, r.Err)
		}
		b.WriteString(r.Table.JSON())
	}
	return b.String()
}

type tortureConfig struct {
	seed   uint64
	shards int
	chaos  *chaos.Scenario
	extra  string
	ids    []string
}

func (c tortureConfig) session() *experiments.Session {
	s := experiments.NewSession(c.seed)
	s.Shards = c.shards
	s.Chaos = c.chaos
	s.Parallelism = 2
	return s
}

func (c tortureConfig) fingerprint() checkpoint.Fingerprint {
	return checkpoint.Fingerprint{
		Seed:     c.seed,
		Shards:   c.shards,
		Workload: strings.Join(c.ids, ","),
		Extra:    c.extra,
	}
}

// baseline computes the uninterrupted reference: batch output bytes
// plus the per-cell sim-state digests a clean checkpointed run records.
func baseline(t *testing.T, cfg tortureConfig) (string, map[string]string) {
	t.Helper()
	dir := t.TempDir()
	store, err := checkpoint.Create(dir, cfg.fingerprint())
	if err != nil {
		t.Fatal(err)
	}
	runners := selectRunners(t, cfg.ids)
	results, err := experiments.RunAll(context.Background(), cfg.session(), runners, store)
	if err != nil {
		t.Fatal(err)
	}
	digests := make(map[string]string, len(runners))
	var nonEmpty int
	for _, r := range runners {
		meta, ok := store.Meta(r.ID)
		if !ok {
			t.Fatalf("clean run did not commit %s", r.ID)
		}
		if meta.SimDigest != "" {
			nonEmpty++ // analytic cells build no engines and record none
		}
		digests[r.ID] = meta.SimDigest
	}
	if nonEmpty == 0 {
		t.Fatal("no cell in the batch recorded a sim-state digest")
	}
	return batchJSON(t, results), digests
}

// damage is a post-abort fault the torture loop may inject on the
// checkpoint directory before resuming.
type damage struct {
	name  string
	apply func(t *testing.T, dir string)
	// wipes reports whether the damage invalidates the whole
	// checkpoint (forcing a full re-run) rather than a single cell.
	wipes bool
}

func damagePlans(rng *rand.Rand) []damage {
	flipByte := func(t *testing.T, path string) {
		raw, err := os.ReadFile(path)
		if err != nil || len(raw) == 0 {
			return // cell may not exist yet at this abort point
		}
		raw[rng.Intn(len(raw))] ^= 0x40
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	anyCell := func(t *testing.T, dir string) string {
		t.Helper()
		matches, err := filepath.Glob(filepath.Join(dir, "cell-*.json"))
		if err != nil || len(matches) == 0 {
			return ""
		}
		return matches[rng.Intn(len(matches))]
	}
	return []damage{
		{name: "none", apply: func(t *testing.T, dir string) {}},
		{name: "flip payload byte", apply: func(t *testing.T, dir string) {
			if p := anyCell(t, dir); p != "" {
				flipByte(t, p)
			}
		}},
		{name: "delete payload", apply: func(t *testing.T, dir string) {
			if p := anyCell(t, dir); p != "" {
				os.Remove(p)
			}
		}},
		{name: "truncate manifest", wipes: true, apply: func(t *testing.T, dir string) {
			path := filepath.Join(dir, "manifest.json")
			raw, err := os.ReadFile(path)
			if err != nil || len(raw) < 3 {
				return
			}
			os.WriteFile(path, raw[:rng.Intn(len(raw)-1)+1], 0o644)
		}},
		{name: "flip manifest byte", wipes: true, apply: func(t *testing.T, dir string) {
			flipByte(t, filepath.Join(dir, "manifest.json"))
		}},
	}
}

// runTortureTrial aborts a checkpointed run after abortAfter commits,
// applies dmg, resumes, and asserts identity with the baseline.
func runTortureTrial(t *testing.T, cfg tortureConfig, abortAfter int, dmg damage, wantJSON string, wantDigests map[string]string) {
	t.Helper()
	dir := t.TempDir()
	fp := cfg.fingerprint()

	store, err := checkpoint.Create(dir, fp)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	store.SetCommitHook(func(id string, committed int) {
		if committed >= abortAfter {
			cancel() // the seeded "kill": stop dispatching new cells
		}
	})
	runners := selectRunners(t, cfg.ids)
	interrupted, _ := experiments.RunAll(ctx, cfg.session(), runners, store)
	committed := store.Cells()
	if committed < abortAfter {
		t.Fatalf("abort hook never reached %d commits (got %d)", abortAfter, committed)
	}
	var skipped int
	for _, r := range interrupted {
		if r.Err != nil {
			skipped++
		}
	}
	if committed == len(runners) && skipped > 0 {
		t.Errorf("all cells committed yet %d results carry errors", skipped)
	}

	dmg.apply(t, dir)

	// Resume exactly as the CLI would: graceful degradation, never a
	// hard failure, whatever the damage.
	var logged int
	resumedStore, err := checkpoint.Open(dir, fp, true, func(string, ...any) { logged++ })
	if err != nil {
		t.Fatalf("Open after %s: %v", dmg.name, err)
	}
	if dmg.wipes && resumedStore.ResumedCells() != 0 {
		t.Errorf("%s: wiped checkpoint still resumed %d cells", dmg.name, resumedStore.ResumedCells())
	}
	if dmg.wipes && committed > 0 && logged == 0 {
		t.Errorf("%s: degradation not logged", dmg.name)
	}
	results, err := experiments.RunAll(context.Background(), cfg.session(), runners, resumedStore)
	if err != nil {
		t.Fatal(err)
	}

	if got := batchJSON(t, results); got != wantJSON {
		t.Fatalf("abort@%d + %s: resumed output differs from uninterrupted run", abortAfter, dmg.name)
	}
	// Every cell — replayed or re-run — must land on the baseline's
	// sim-state digest: a deeper identity than the printed bytes.
	for _, r := range runners {
		meta, ok := resumedStore.Meta(r.ID)
		if !ok {
			t.Fatalf("%s missing from resumed manifest", r.ID)
		}
		if meta.SimDigest != wantDigests[r.ID] {
			t.Errorf("abort@%d + %s: %s sim digest diverged", abortAfter, dmg.name, r.ID)
		}
	}
	// And the repaired checkpoint must itself be clean.
	if _, err := checkpoint.Resume(dir, fp); err != nil {
		t.Errorf("checkpoint unhealthy after recovery: %v", err)
	}
}

// TestTortureKillAndResume is the harness entry point: seeded trials at
// 1 and 4 shards, each aborting at a randomized commit boundary with
// randomized post-abort damage.
func TestTortureKillAndResume(t *testing.T) {
	configs := []tortureConfig{
		{seed: 7, shards: 1, ids: tortureIDs},
		{seed: 7, shards: 4, ids: tortureIDs},
	}
	trials := 3
	if testing.Short() {
		trials = 2
	}
	for _, cfg := range configs {
		cfg := cfg
		t.Run("wheel-shards"+string(rune('0'+cfg.shards)), func(t *testing.T) {
			t.Parallel()
			wantJSON, wantDigests := baseline(t, cfg)
			rng := rand.New(rand.NewSource(int64(cfg.seed)*1000 + int64(cfg.shards)))
			plans := damagePlans(rng)
			for trial := 0; trial < trials; trial++ {
				abortAfter := 1 + rng.Intn(len(cfg.ids)-1)
				dmg := plans[rng.Intn(len(plans))]
				runTortureTrial(t, cfg, abortAfter, dmg, wantJSON, wantDigests)
			}
		})
	}
}

// TestTortureChaosRun pins interrupted-vs-uninterrupted identity when a
// fault scenario is active: the fingerprint's Extra field separates
// fault-plan checkpoints from clean ones, and resume replays the same
// chaos-perturbed results.
func TestTortureChaosRun(t *testing.T) {
	sc := chaos.NewScenario("torture-chaos").
		LinkDown(time.Millisecond, fabric.Uplink(0, 0), 0)
	cfg := tortureConfig{
		seed:  11,
		chaos: sc,
		extra: "chaos:torture-chaos",
		ids:   []string{"fig12", "table1"},
	}
	wantJSON, wantDigests := baseline(t, cfg)
	rng := rand.New(rand.NewSource(11))
	for _, dmg := range damagePlans(rng)[:3] { // none, flip, delete
		runTortureTrial(t, cfg, 1, dmg, wantJSON, wantDigests)
	}

	// A clean-session checkpoint must not replay into a chaos session:
	// the fingerprints differ, so resume degrades to a full re-run.
	clean := cfg
	clean.chaos = nil
	clean.extra = ""
	dir := t.TempDir()
	store, err := checkpoint.Create(dir, clean.fingerprint())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := experiments.RunAll(context.Background(), clean.session(), selectRunners(t, clean.ids), store); err != nil {
		t.Fatal(err)
	}
	cross, err := checkpoint.Open(dir, cfg.fingerprint(), true, func(string, ...any) {})
	if err != nil {
		t.Fatal(err)
	}
	if cross.ResumedCells() != 0 {
		t.Errorf("chaos run resumed %d cells from a clean-session checkpoint", cross.ResumedCells())
	}
}
