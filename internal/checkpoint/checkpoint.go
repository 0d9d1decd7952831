// Package checkpoint makes long runs crash-safe. A Store manages one
// checkpoint directory for one logical run: every completed cell — an
// experiment, a sweep, any unit of work whose output is a deterministic
// function of the run's configuration — is committed durably as soon as
// it finishes, and a later process can resume the run by replaying the
// committed cells and re-executing only the rest.
//
// # Boundary model
//
// Cells are committed only at quiescent boundaries: instants where the
// event queue of every engine the cell built is empty, so the cell's
// entire effect is its serialized output plus the engine snapshots
// (virtual time, dispatch count, RNG stream) recorded in its metadata.
// Nothing between boundaries is serialized — in-flight events are
// closures — so resume is deterministic fast-forward: the interrupted
// cell re-executes from scratch and, because every cell is a pure
// function of (seed, config), reproduces byte-for-byte what an
// uninterrupted run would have produced.
//
// # Crash safety
//
// Every write is temp-file + rename in the checkpoint directory, so a
// kill at any instant leaves either the old file or the new one, never
// a torn one. A cell becomes durable only when the manifest naming it
// has been renamed into place; payloads whose manifest update was lost
// are orphans and are simply rewritten on the next run. The manifest
// carries a schema version, the run's configuration fingerprint, and an
// integrity hash over its cell list; each cell entry carries the
// payload's length and SHA-256.
//
// # Degradation rules
//
// Load never lets a damaged checkpoint take down a run. Resume returns
// a typed error — ErrNoCheckpoint, ErrTruncated, ErrSchemaVersion,
// ErrFingerprint, ErrCorrupt — and Open (the CLI entry point) logs it,
// discards the directory's state, and falls back to a full re-run. A
// payload that fails its checksum at Lookup time is treated as missing:
// the cell re-executes and the fresh result overwrites the damaged
// file. Corruption costs recomputation, never correctness.
package checkpoint

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// SchemaVersion is the manifest format revision. A manifest written by
// a different revision is discarded (full re-run), never reinterpreted.
const SchemaVersion = 1

// manifestName is the manifest's filename inside the checkpoint dir.
const manifestName = "manifest.json"

// Typed load failures. Each names one way a checkpoint can be unusable;
// all of them degrade to a full re-run via Open.
var (
	// ErrNoCheckpoint: the directory holds no manifest at all.
	ErrNoCheckpoint = errors.New("checkpoint: no checkpoint present")
	// ErrTruncated: the manifest exists but does not parse — a torn or
	// truncated write from a crashed process, or hand damage.
	ErrTruncated = errors.New("checkpoint: manifest truncated or unparseable")
	// ErrSchemaVersion: the manifest parses but was written by a
	// different format revision.
	ErrSchemaVersion = errors.New("checkpoint: manifest schema version mismatch")
	// ErrFingerprint: the checkpoint belongs to a different run
	// configuration (seed, shards, workload, extra). Replaying it would
	// splice another run's results into this one. A manifest written
	// under an older fingerprint layout lands here too and re-runs.
	ErrFingerprint = errors.New("checkpoint: config fingerprint mismatch")
	// ErrCorrupt: an integrity hash does not match its data — the
	// manifest's cell list, or a payload at Lookup time.
	ErrCorrupt = errors.New("checkpoint: integrity check failed")
)

// Fingerprint identifies a run configuration: everything the run's
// output is a function of. Two runs with equal fingerprints produce
// byte-identical cell payloads, which is the property that makes
// replaying committed cells sound.
type Fingerprint struct {
	// Seed is the run's root RNG seed.
	Seed uint64
	// Shards is the engine shard count.
	Shards int
	// Workload names the work: for stellarbench, the comma-joined
	// experiment ID list in run order.
	Workload string
	// Extra carries anything else the output depends on — e.g. the
	// SHA-256 of a chaos scenario or job-graph file. Empty when unused.
	Extra string
}

// Hash returns the fingerprint's canonical hex digest. Fields are
// length-prefixed so no two distinct fingerprints collide by
// concatenation.
func (f Fingerprint) Hash() string {
	h := sha256.New()
	for _, part := range []string{
		fmt.Sprintf("seed=%d", f.Seed),
		fmt.Sprintf("shards=%d", f.Shards),
		"workload=" + f.Workload,
		"extra=" + f.Extra,
	} {
		fmt.Fprintf(h, "%d:%s;", len(part), part)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// HashFile returns the hex SHA-256 of a file's contents — the helper
// CLIs use to fold scenario/graph inputs into Fingerprint.Extra.
func HashFile(path string) (string, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// CellMeta is the sim-state stamp recorded with a committed cell: the
// quiescent-boundary observables of the run that produced it. Resume
// verification compares these stamps across interrupted and
// uninterrupted runs — a deeper identity check than output bytes alone.
type CellMeta struct {
	// Events is the number of sim events the cell dispatched.
	Events uint64 `json:"events"`
	// VirtualNS is the cell's virtual-time progress in nanoseconds (the
	// max engine clock at the boundary).
	VirtualNS int64 `json:"virtual_ns"`
	// SimDigest hashes the cell's engine snapshots (clock, dispatch
	// count, RNG state per engine in build order). Empty for analytic
	// cells that build no engines.
	SimDigest string `json:"sim_digest,omitempty"`
}

// cellEntry is one committed cell in the manifest.
type cellEntry struct {
	ID     string   `json:"id"`
	File   string   `json:"file"`
	Bytes  int64    `json:"bytes"`
	SHA256 string   `json:"sha256"`
	Meta   CellMeta `json:"meta"`
}

// manifest is the checkpoint directory's root record.
type manifest struct {
	Schema      int    `json:"schema_version"`
	Fingerprint string `json:"fingerprint"`
	// CellsSHA is the hex SHA-256 of the canonical encoding of Cells,
	// so in-place damage to the cell list is detected at load, not when
	// a bad entry is first trusted.
	CellsSHA string      `json:"cells_sha256"`
	Cells    []cellEntry `json:"cells"`
}

// cellsDigest computes the manifest's cell-list integrity hash.
func cellsDigest(cells []cellEntry) string {
	b, err := json.Marshal(cells)
	if err != nil {
		panic(err) // plain structs cannot fail to marshal
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// Store is a live handle on a checkpoint directory. Commit and Lookup
// are safe for concurrent use by a run's worker pool.
type Store struct {
	dir string
	fp  string

	mu      sync.Mutex
	man     manifest
	index   map[string]int // cell ID -> position in man.Cells
	resumed int            // cells present when the store was opened

	degraded []error

	// commitHook, when set, runs after each cell becomes durable with
	// the total committed count. The torture harness uses it to abort a
	// run at an exact boundary.
	commitHook func(id string, committed int)
}

// Create starts a fresh checkpoint in dir, creating the directory if
// needed and atomically replacing any manifest already there (earlier
// payload files become orphans and are overwritten as cells commit).
func Create(dir string, fp Fingerprint) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("checkpoint: create %s: %w", dir, err)
	}
	s := &Store{
		dir:   dir,
		fp:    fp.Hash(),
		index: map[string]int{},
	}
	s.man = manifest{Schema: SchemaVersion, Fingerprint: s.fp, CellsSHA: cellsDigest(nil)}
	if err := s.writeManifest(); err != nil {
		return nil, err
	}
	return s, nil
}

// Resume loads an existing checkpoint from dir and validates it against
// fp. Failures are typed (see the Err variables); on any of them the
// caller should treat the directory as holding no usable state.
func Resume(dir string, fp Fingerprint) (*Store, error) {
	raw, err := os.ReadFile(filepath.Join(dir, manifestName))
	if errors.Is(err, os.ErrNotExist) {
		return nil, ErrNoCheckpoint
	}
	if err != nil {
		return nil, fmt.Errorf("checkpoint: reading manifest: %w", err)
	}
	var man manifest
	if err := json.Unmarshal(raw, &man); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrTruncated, err)
	}
	if man.Schema != SchemaVersion {
		return nil, fmt.Errorf("%w: found %d, want %d", ErrSchemaVersion, man.Schema, SchemaVersion)
	}
	want := fp.Hash()
	if man.Fingerprint != want {
		return nil, fmt.Errorf("%w: checkpoint %.12s..., run %.12s...", ErrFingerprint, man.Fingerprint, want)
	}
	if got := cellsDigest(man.Cells); got != man.CellsSHA {
		return nil, fmt.Errorf("%w: manifest cell list", ErrCorrupt)
	}
	s := &Store{dir: dir, fp: want, man: man, index: map[string]int{}, resumed: len(man.Cells)}
	for i, c := range man.Cells {
		if c.ID == "" || c.File == "" {
			return nil, fmt.Errorf("%w: empty cell entry %d", ErrCorrupt, i)
		}
		if _, dup := s.index[c.ID]; dup {
			return nil, fmt.Errorf("%w: duplicate cell %q", ErrCorrupt, c.ID)
		}
		s.index[c.ID] = i
	}
	return s, nil
}

// Open is the graceful entry point CLIs use: with resume set it tries
// Resume and, when the checkpoint is absent, damaged, or from another
// configuration, logs why through logf and falls back to Create — a
// full re-run instead of a crash. Without resume it always starts
// fresh. Only real I/O failures (permissions, disk) surface as errors.
func Open(dir string, fp Fingerprint, resume bool, logf func(format string, args ...any)) (*Store, error) {
	if resume {
		s, err := Resume(dir, fp)
		if err == nil {
			return s, nil
		}
		if logf != nil {
			logf("checkpoint: cannot resume from %s: %v; starting a full run", dir, err)
		}
	}
	return Create(dir, fp)
}

// Dir returns the checkpoint directory.
func (s *Store) Dir() string { return s.dir }

// FingerprintHash returns the run-configuration digest the store is
// bound to.
func (s *Store) FingerprintHash() string { return s.fp }

// Cells reports how many cells are currently committed.
func (s *Store) Cells() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.man.Cells)
}

// ResumedCells reports how many committed cells the store was opened
// with — the work a resumed run gets for free.
func (s *Store) ResumedCells() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.resumed
}

// Degradations returns the non-fatal failures the store has absorbed so
// far (corrupt payloads re-run, checkpoint writes that failed). They
// never fail the run; surfacing them is how operators learn a disk is
// quietly eating data.
func (s *Store) Degradations() []error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]error(nil), s.degraded...)
}

// noteDegradation records a non-fatal failure.
func (s *Store) noteDegradation(err error) {
	s.mu.Lock()
	s.degraded = append(s.degraded, err)
	s.mu.Unlock()
}

// SetCommitHook installs fn to run after every durable commit with the
// cell's ID and the total committed count. Test instrumentation: the
// torture harness cancels a run's context here to inject an abort at an
// exact cell boundary.
func (s *Store) SetCommitHook(fn func(id string, committed int)) {
	s.mu.Lock()
	s.commitHook = fn
	s.mu.Unlock()
}

// Meta returns the recorded metadata for a committed cell without
// reading its payload.
func (s *Store) Meta(id string) (CellMeta, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	i, ok := s.index[id]
	if !ok {
		return CellMeta{}, false
	}
	return s.man.Cells[i].Meta, true
}

// IDs returns the committed cell IDs in sorted order.
func (s *Store) IDs() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.man.Cells))
	for _, c := range s.man.Cells {
		out = append(out, c.ID)
	}
	sort.Strings(out)
	return out
}

// Lookup returns a committed cell's payload and metadata. A missing
// cell returns (nil, _, false, nil). A committed cell whose payload
// file is damaged — wrong length, checksum mismatch, or unreadable —
// returns a wrapped ErrCorrupt and false: the caller re-executes the
// cell, and the recomputed Commit repairs the file. The damage is also
// recorded as a degradation.
func (s *Store) Lookup(id string) (payload []byte, meta CellMeta, ok bool, err error) {
	s.mu.Lock()
	i, present := s.index[id]
	var entry cellEntry
	if present {
		entry = s.man.Cells[i]
	}
	s.mu.Unlock()
	if !present {
		return nil, CellMeta{}, false, nil
	}
	b, rerr := os.ReadFile(filepath.Join(s.dir, entry.File))
	if rerr != nil {
		err = fmt.Errorf("%w: cell %q: %v", ErrCorrupt, id, rerr)
		s.noteDegradation(err)
		return nil, CellMeta{}, false, err
	}
	if int64(len(b)) != entry.Bytes {
		err = fmt.Errorf("%w: cell %q: %d bytes on disk, manifest says %d", ErrCorrupt, id, len(b), entry.Bytes)
		s.noteDegradation(err)
		return nil, CellMeta{}, false, err
	}
	sum := sha256.Sum256(b)
	if hex.EncodeToString(sum[:]) != entry.SHA256 {
		err = fmt.Errorf("%w: cell %q: payload checksum mismatch", ErrCorrupt, id)
		s.noteDegradation(err)
		return nil, CellMeta{}, false, err
	}
	return b, entry.Meta, true, nil
}

// Commit durably records a completed cell: the payload is written
// atomically, then the manifest naming it is rewritten atomically. A
// crash between the two leaves an orphan payload the next run
// overwrites; a crash during either rename leaves the previous file. A
// re-commit of an existing ID replaces its entry (the corrupt-payload
// repair path). Write failures are recorded as degradations as well as
// returned, so callers may ignore the error without losing the signal.
func (s *Store) Commit(id string, payload []byte, meta CellMeta) error {
	if id == "" {
		return errors.New("checkpoint: empty cell ID")
	}
	file := "cell-" + sanitize(id) + ".json"
	if err := writeAtomic(filepath.Join(s.dir, file), payload); err != nil {
		err = fmt.Errorf("checkpoint: cell %q: %w", id, err)
		s.noteDegradation(err)
		return err
	}
	sum := sha256.Sum256(payload)
	entry := cellEntry{
		ID:     id,
		File:   file,
		Bytes:  int64(len(payload)),
		SHA256: hex.EncodeToString(sum[:]),
		Meta:   meta,
	}
	s.mu.Lock()
	if i, ok := s.index[id]; ok {
		s.man.Cells[i] = entry
	} else {
		s.index[id] = len(s.man.Cells)
		s.man.Cells = append(s.man.Cells, entry)
	}
	s.man.CellsSHA = cellsDigest(s.man.Cells)
	err := s.writeManifestLocked()
	hook, n := s.commitHook, len(s.man.Cells)
	s.mu.Unlock()
	if err != nil {
		s.noteDegradation(err)
		return err
	}
	if hook != nil {
		hook(id, n)
	}
	return nil
}

// writeManifest serializes and atomically replaces the manifest.
func (s *Store) writeManifest() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.writeManifestLocked()
}

func (s *Store) writeManifestLocked() error {
	// Indented so line-oriented tools (the CI smoke polls cell count
	// with grep) and humans can read it; size is trivial.
	b, err := json.MarshalIndent(&s.man, "", "  ")
	if err != nil {
		panic(err) // plain structs cannot fail to marshal
	}
	if err := writeAtomic(filepath.Join(s.dir, manifestName), append(b, '\n')); err != nil {
		return fmt.Errorf("checkpoint: manifest: %w", err)
	}
	return nil
}

// writeAtomic writes data to path via a same-directory temp file and
// rename, the all-or-nothing primitive every checkpoint write uses.
func writeAtomic(path string, data []byte) error {
	dir, base := filepath.Split(path)
	tmp, err := os.CreateTemp(dir, base+".tmp-*")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	_, werr := tmp.Write(data)
	serr := tmp.Sync()
	cerr := tmp.Close()
	for _, e := range []error{werr, serr, cerr} {
		if e != nil {
			os.Remove(tmpName)
			return e
		}
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return err
	}
	return nil
}

// sanitize maps a cell ID to a filesystem-safe filename fragment.
// Alphanumerics, '-', '_' and '.' pass through; anything else becomes
// %XX, so distinct IDs cannot collide on disk.
func sanitize(id string) string {
	var b strings.Builder
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '-', c == '_', c == '.':
			b.WriteByte(c)
		default:
			fmt.Fprintf(&b, "%%%02X", c)
		}
	}
	return b.String()
}
