package experiments

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/chaos"
	"repro/internal/fabric"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Session is the per-run state an experiment executes under: the seed,
// the flight recorder, the chaos scenario to arm on every fabric, and
// the worker and shard bounds. Each concurrent run owns its Session, so
// two runs can never alias each other's tracer, scenario or engines.
//
// A Session also records every engine it builds, which is what makes
// per-run event accounting possible: Fired sums events over exactly the
// engines this run created, correct even while other runs overlap.
type Session struct {
	// Seed drives every deterministic RNG the run forks.
	Seed uint64
	// Tracer, when non-nil, is attached to every engine and host the
	// run builds. The tracer is single-threaded, so a session with a
	// tracer executes its cells serially regardless of Parallelism.
	Tracer *trace.Tracer
	// Chaos, when non-nil, is played against every fabric the run
	// builds (offsets relative to each fabric's construction time).
	// Scenarios are read-only during playback, so one scenario may be
	// shared across concurrent sessions and cells.
	Chaos *chaos.Scenario
	// Parallelism bounds the worker pool used by cell-parallel sweeps
	// (FailureSweep, Fig11, Fig12). Values below 2 mean serial. Cell
	// results are assembled in cell order, so the output is
	// byte-identical at any setting.
	Parallelism int
	// Shards bounds the event-engine shards a sharded model runs on in
	// parallel windows (see sim.ShardedEngine). Each model clamps it to
	// its independent units: pods for the multi-pod scale fabrics, hosts
	// for fig6-fleet; single-pod fabrics always run on one engine.
	// Values below 2 mean one engine. Results are byte-identical at any
	// setting — sharding changes how the event loop is driven, not what
	// it computes. A tracer or chaos scenario forces 1 shard: both bind
	// to a single engine's clock.
	Shards int

	mu      sync.Mutex
	engines []*sim.Engine
}

// NewSession returns a serial, unsharded Session with no tracer and no
// chaos scenario.
func NewSession(seed uint64) *Session {
	return &Session{Seed: seed, Parallelism: 1}
}

// fork clones the session's configuration with a private engine list,
// giving one run of a larger batch its own accounting scope.
func (s *Session) fork() *Session {
	return &Session{Seed: s.Seed, Tracer: s.Tracer, Chaos: s.Chaos,
		Parallelism: s.Parallelism, Shards: s.Shards}
}

// newEngine is the experiments' engine constructor: an engine seeded
// per the session, attached to the session's tracer, and recorded for
// per-run event accounting.
func (s *Session) newEngine() *sim.Engine {
	eng := sim.NewEngine(s.Seed)
	if s.Tracer != nil {
		eng.SetTracer(s.Tracer)
	}
	s.mu.Lock()
	s.engines = append(s.engines, eng)
	s.mu.Unlock()
	return eng
}

// shards is the effective shard count: Shards, forced to 1 when a
// tracer or chaos scenario is attached (both bind to a single engine).
func (s *Session) shards() int {
	if s.Shards < 2 || s.Tracer != nil || s.Chaos != nil {
		return 1
	}
	return s.Shards
}

// newShardedEngine builds the session's sharded engine group for a
// model of units independent partitions: the effective shard count,
// clamped to units since a shard with no unit would only idle through
// every window. Every shard is seeded per the session (identical seeds
// keep the RNG fork tree shard-invariant) and recorded for per-run
// event accounting.
func (s *Session) newShardedEngine(units int) *sim.ShardedEngine {
	se := sim.NewShardedEngine(s.Seed, sim.SchedulerWheel, min(s.shards(), units))
	s.mu.Lock()
	for _, eng := range se.Engines() {
		if s.Tracer != nil {
			eng.SetTracer(s.Tracer)
		}
		s.engines = append(s.engines, eng)
	}
	s.mu.Unlock()
	return se
}

// Engines reports how many engines the session has built so far.
func (s *Session) Engines() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.engines)
}

// MaxNow reports the furthest virtual time any engine this session
// built has reached — the run's virtual-time progress stamp. Like
// Fired, call it only after the run completes.
func (s *Session) MaxNow() sim.Time {
	s.mu.Lock()
	defer s.mu.Unlock()
	var t sim.Time
	for _, e := range s.engines {
		if n := e.Now(); n > t {
			t = n
		}
	}
	return t
}

// StateDigest hashes the quiescent snapshot of every engine this
// session built, in build order: clock, dispatch count, pending count
// and root RNG state per engine. Build order is deterministic within a
// run (each run owns its forked session), so two identical runs produce
// identical digests — the sim-state identity the checkpoint torture
// harness asserts across interrupted and uninterrupted runs, stronger
// than comparing printed tables. Analytic runs with no engines digest
// to the empty string. Call only after the run completes.
func (s *Session) StateDigest() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.engines) == 0 {
		return ""
	}
	h := sha256.New()
	var buf [8]byte
	word := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for _, e := range s.engines {
		snap := e.Snapshot()
		word(uint64(snap.Now))
		word(snap.Fired)
		word(uint64(snap.Pending))
		for _, w := range snap.RNG {
			word(w)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// Fired sums the events dispatched by every engine this session built.
// It must not race a still-running experiment: call it after RunSession
// (or RunAll, which computes per-run stats from forked sessions)
// returns.
func (s *Session) Fired() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var n uint64
	for _, e := range s.engines {
		n += e.Fired()
	}
	return n
}

// armChaos plays the session's scenario, if any, on a freshly built
// fabric. Scenario shape is validated at load time; a bind failure here
// means the scenario targets links this experiment's topology does not
// have, which is a configuration error — experiments construct fabrics
// deep inside helpers with no error path, so it panics.
func (s *Session) armChaos(eng *sim.Engine, f *fabric.Fabric) {
	if s.Chaos == nil {
		return
	}
	ce := chaos.New(eng, f)
	if err := ce.Play(s.Chaos); err != nil {
		panic(fmt.Sprintf("experiments: chaos scenario %q does not bind to this topology: %v", s.Chaos.Name, err))
	}
}

// workers is the effective cell-parallel worker bound: Parallelism,
// forced serial when a tracer is attached (the tracer, like the
// engines it records, is single-threaded).
func (s *Session) workers() int {
	if s.Tracer != nil || s.Parallelism < 1 {
		return 1
	}
	return s.Parallelism
}

// runCells executes fn(0..n-1) — independent simulation cells that each
// build a private engine and fabric — under the session's worker bound.
// Every cell runs even when an earlier one fails (sibling determinism:
// a failure must not change which cells executed), and the first error
// by cell index is returned, so error reporting matches a serial run.
func (s *Session) runCells(n int, fn func(i int) error) error {
	errs := make([]error, n)
	if w := s.workers(); w <= 1 || n <= 1 {
		for i := 0; i < n; i++ {
			errs[i] = fn(i)
		}
	} else {
		if w > n {
			w = n
		}
		var next atomic.Int64
		var wg sync.WaitGroup
		wg.Add(w)
		for k := 0; k < w; k++ {
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= n {
						return
					}
					errs[i] = fn(i)
				}
			}()
		}
		wg.Wait()
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
