package experiments

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/chaos"
	stellar "repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/transport"
)

// Session is the per-run state an experiment executes under: the seed,
// the flight recorder, the chaos scenario to arm on its fabrics, and
// the worker bound. Each concurrent run owns its Session, so
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
	// tracer executes its runners and cells serially regardless of
	// Parallelism.
	Tracer *trace.Tracer
	// Chaos, when non-nil, is played (by armChaos, offsets relative to
	// the fabric's construction time) against the 60-agg fabrics of
	// fig9, fig10a/b, fig12, fig15, ablation-flowlet,
	// ablation-pathaware, moe-alltoall, contended-cluster and job-graph
	// replays, each Fig11 cell, LinkFailRecovery and
	// scaleCluster. The other fabric experiments (fig16a/b,
	// ablation-perpath-cc, ablation-rto, ablation-cc, prob6-core,
	// lb-taxonomy) run unarmed, and failure-sweep and chaos-recovery
	// play their own scenarios. A scenario that does not bind to an
	// armed topology fails that experiment. Scenarios are read-only
	// during playback, so one scenario may be shared across concurrent
	// sessions and cells.
	Chaos *chaos.Scenario
	// Parallelism bounds the worker pool RunAll runs its runners on,
	// each runner's pool for cell-parallel sweeps (FailureSweep, Fig11,
	// Fig12), and the engine shards a sharded model runs on (see
	// newShardedEngine). Values below 2 mean serial on one engine.
	// Results are assembled in runner and cell order, and sharding
	// changes how the event loop is driven, not what it computes, so
	// the output is byte-identical at any setting.
	Parallelism int

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
		Parallelism: s.Parallelism}
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

// netConfig is the §7 network fabric every experiment shares: two
// segments of hostsPerSeg hosts under aggs aggregation switches, 50 GB/s
// links, 2 µs hops, a 16 MiB queue limit and a 512 KiB ECN threshold.
// Host counts are scaled to simulator size (documented in DESIGN.md).
// Call sites override only the fields where they differ.
func netConfig(hostsPerSeg, aggs int) fabric.Config {
	return fabric.Config{
		Segments: 2, HostsPerSegment: hostsPerSeg, Aggs: aggs,
		HostLinkBW: 50e9, FabricLinkBW: 50e9,
		LinkDelay: 2 * time.Microsecond, QueueLimit: 16 << 20, ECNThreshold: 512 << 10,
	}
}

// cluster builds fc on a fresh session engine with one transport
// endpoint per host, each configured by tc. The fabric runs on one
// engine whatever Parallelism says. cluster does not arm the session's
// chaos scenario: the experiments Chaos lists call armChaos themselves.
func (s *Session) cluster(fc fabric.Config, tc transport.Config) (*sim.Engine, *fabric.Fabric, []*transport.Endpoint) {
	eng := s.newEngine()
	f := fabric.New(eng, fc)
	eps := make([]*transport.Endpoint, f.NumHosts())
	for h := range eps {
		eps[h] = transport.NewEndpoint(f, fabric.HostID(h), tc)
	}
	return eng, f, eps
}

// maxUplinkQueue is the peak queue depth in bytes over the ToR→agg
// uplinks of segments 0..segs-1: the fabric-level contention signal.
func maxUplinkQueue(f *fabric.Fabric, segs int) uint64 {
	var maxQ uint64
	for seg := 0; seg < segs; seg++ {
		for _, st := range f.UplinkStats(seg) {
			maxQ = max(maxQ, st.MaxQueue)
		}
	}
	return maxQ
}

// host builds a single server from cfg, attached to the session's
// tracer when one is active.
func (s *Session) host(cfg stellar.HostConfig) (*stellar.Host, error) {
	h, err := stellar.NewHost(cfg)
	if err == nil && s.Tracer != nil {
		h.SetTracer(s.Tracer, "host0")
	}
	return h, err
}

// newShardedEngine builds the session's sharded engine group for a
// model of units independent partitions (pods for the multi-pod scale
// fabrics, hosts for fig6-fleet): one shard per worker, capped at units
// since a shard with no unit would only idle through every window. A
// tracer or chaos scenario forces one shard, as both bind to a single
// engine's clock; workers already returns 1 under a tracer. Every shard
// is seeded per the session (identical seeds keep the RNG fork tree
// shard-invariant) and recorded for per-run event accounting.
func (s *Session) newShardedEngine(units int) *sim.ShardedEngine {
	n := s.workers(units)
	if s.Chaos != nil {
		n = 1
	}
	se := sim.NewShardedEngine(s.Seed, sim.SchedulerWheel, n)
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

// StateDigest hashes the quiescent snapshot of every engine this
// session built: clock, dispatch count, pending count and root RNG
// state per engine. The per-engine hashes are combined in sorted order,
// so the digest is independent of build order, which cell-parallel
// sweeps leave to goroutine completion. Two identical runs therefore
// produce identical digests at any Parallelism, a sim-state identity
// stronger than comparing printed tables. Analytic runs with no engines
// digest to the empty string. Call only after the run completes.
func (s *Session) StateDigest() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.engines) == 0 {
		return ""
	}
	sums := make([][sha256.Size]byte, len(s.engines))
	var buf []byte
	for i, e := range s.engines {
		snap := e.Snapshot()
		buf = binary.LittleEndian.AppendUint64(buf[:0], uint64(snap.Now))
		buf = binary.LittleEndian.AppendUint64(buf, snap.Fired)
		buf = binary.LittleEndian.AppendUint64(buf, uint64(snap.Pending))
		for _, w := range snap.RNG {
			buf = binary.LittleEndian.AppendUint64(buf, w)
		}
		sums[i] = sha256.Sum256(buf)
	}
	slices.SortFunc(sums, func(a, b [sha256.Size]byte) int { return bytes.Compare(a[:], b[:]) })
	h := sha256.New()
	for _, sum := range sums {
		h.Write(sum[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// Fired sums the events dispatched by every engine this session built.
// It must not race a still-running experiment: call it after the
// runner returns (RunAll computes per-run stats from forked sessions).
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
// fabric. Scenario shape is validated at load time; an error here means
// the scenario targets links, switches or hosts this experiment's topology
// does not have, and it fails the experiment.
func (s *Session) armChaos(eng *sim.Engine, f *fabric.Fabric) error {
	if s.Chaos == nil {
		return nil
	}
	return chaos.New(eng, f).Play(s.Chaos)
}

// runCells is the one worker pool: it executes fn(0..n-1) on up to
// Parallelism goroutines, one when a tracer is attached (the tracer,
// like the engines it records, is single-threaded). RunAll runs its
// runners on it, and sweeps run their independent simulation cells,
// each building a private engine and fabric. Every item runs even when
// an earlier one fails (sibling determinism: a failure must not change
// which items executed), results land at their index, and the first
// error by index is returned, so error reporting matches a serial run.
func (s *Session) runCells(n int, fn func(i int) error) error {
	w := s.workers(n)
	errs := make([]error, n)
	if w <= 1 {
		for i := 0; i < n; i++ {
			errs[i] = fn(i)
		}
	} else {
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

// workers is the pool size for n items: Parallelism capped at n, at
// least one, and exactly one when a tracer is attached.
func (s *Session) workers(n int) int {
	if s.Tracer != nil {
		return 1
	}
	return max(1, min(s.Parallelism, n))
}
