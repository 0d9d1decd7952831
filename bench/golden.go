package main

import (
	"embed"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
)

// goldenFS holds the committed result digests, one file per seed.
//
//go:embed golden/*.json
var goldenFS embed.FS

// goldenDir is where -update-golden writes, relative to the repository
// root the benchmark runs from.
const goldenDir = "bench/golden"

// goldenSeeds are the seeds with committed digests: the default seed
// and one held out while the workloads were written.
var goldenSeeds = []uint64{42, 7}

// goldenFile maps "<workload>/<cell>" to the cell's result digest.
type goldenFile struct {
	Seed  uint64            `json:"seed"`
	Cells map[string]string `json:"cells"`
}

func goldenName(seed uint64) string { return fmt.Sprintf("seed%d.json", seed) }

// loadGolden returns the committed digests for seed, or nil when the
// seed has none.
func loadGolden(seed uint64) (map[string]string, error) {
	b, err := goldenFS.ReadFile("golden/" + goldenName(seed))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var g goldenFile
	if err := json.Unmarshal(b, &g); err != nil {
		return nil, fmt.Errorf("golden %s: %w", goldenName(seed), err)
	}
	return g.Cells, nil
}

// writeGolden writes seed's digests to goldenDir.
func writeGolden(seed uint64, cells map[string]string) error {
	if _, err := os.Stat(goldenDir); err != nil {
		return fmt.Errorf("golden: run from the repository root: %w", err)
	}
	b, err := json.MarshalIndent(goldenFile{Seed: seed, Cells: cells}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(goldenDir, goldenName(seed)), append(b, '\n'), 0o644)
}
