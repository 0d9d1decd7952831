package sim

import (
	"sort"
	"sync"
)

// ShardedEngine runs N per-shard Engines as one logical simulation,
// synchronized with conservative lookahead (the classic
// Chandy–Misra–Bryant null-message bound, collapsed to a barrier): a
// model partitioned so that every cross-shard interaction is a Handoff
// scheduled at least the lookahead into the future can run its shards
// concurrently inside windows of that width without ever delivering an
// event into a shard's past.
//
// Each round picks T = min next-event time across shards and runs every
// shard to T+lookahead-1 on its own goroutine; handoffs buffer in
// per-shard outboxes and inject at the barrier, sorted by (when, src
// shard, emit order) so destination-side scheduling order is a pure
// function of the model, not of goroutine interleaving. Event callbacks
// must therefore touch only shard-local state: a model with shared
// control state (collective reductions, job-graph replay) runs on one
// engine.
//
// Seeding every shard with the same root seed keeps RNG forks
// shard-invariant: the engine root RNG is only ever forked (never
// consumed), so a component's fork depends only on (seed, tag) and is
// identical no matter which shard hosts it or how many shards exist.
type ShardedEngine struct {
	engs      []*Engine
	lookahead Duration
	halted    bool
	last      Time

	// outbox[src][dst] buffers handoffs emitted by shard src for shard
	// dst during a window; each is appended only by its source
	// shard's goroutine, so no locking. emitSeq orders handoffs from
	// one source deterministically.
	outbox  [][][]handoff
	emitSeq []uint64
	sorter  handoffSorter
}

// handoff is one buffered cross-shard event delivery.
type handoff struct {
	when Time
	src  int
	seq  uint64
	fn   func(any)
	arg  any
}

type handoffSorter struct{ s []handoff }

func (h *handoffSorter) Len() int { return len(h.s) }
func (h *handoffSorter) Less(i, j int) bool {
	a, b := &h.s[i], &h.s[j]
	if a.when != b.when {
		return a.when < b.when
	}
	if a.src != b.src {
		return a.src < b.src
	}
	return a.seq < b.seq
}
func (h *handoffSorter) Swap(i, j int) { h.s[i], h.s[j] = h.s[j], h.s[i] }

// NewShardedEngine builds n shard engines, each seeded with the same
// root seed (see the type comment for why that is load-bearing) and
// running the given scheduler mode: SchedulerWheel for every run,
// SchedulerHeap only for differential tests. n < 1 is clamped to 1.
func NewShardedEngine(seed uint64, mode SchedulerMode, n int) *ShardedEngine {
	if n < 1 {
		n = 1
	}
	se := &ShardedEngine{
		engs:      make([]*Engine, n),
		lookahead: 1, // overwritten by the model via SetLookahead
		outbox:    make([][][]handoff, n),
		emitSeq:   make([]uint64, n),
	}
	for i := range se.engs {
		se.engs[i] = NewEngineMode(seed, mode)
		se.outbox[i] = make([][]handoff, n)
	}
	return se
}

// NumShards reports the shard count.
func (se *ShardedEngine) NumShards() int { return len(se.engs) }

// Shard returns shard i's engine. Model components live on exactly one
// shard and schedule local events on its engine directly.
func (se *ShardedEngine) Shard(i int) *Engine { return se.engs[i] }

// Engines returns the underlying shard engines (for per-run event
// accounting). The slice is the engine's own; do not mutate.
func (se *ShardedEngine) Engines() []*Engine { return se.engs }

// SetLookahead declares the minimum cross-shard latency: every Handoff
// must be scheduled at least this far after the emitting shard's
// current time. The window width. Must be positive.
func (se *ShardedEngine) SetLookahead(d Duration) {
	if d <= 0 {
		panic("sim: sharded lookahead must be positive")
	}
	se.lookahead = d
}

// Lookahead reports the declared minimum cross-shard latency.
func (se *ShardedEngine) Lookahead() Duration { return se.lookahead }

// Handoff delivers fn(arg) to shard dst at virtual time when — the only
// legal way for one shard's event to cause work on another. Across
// shards when must be at least lookahead past the source shard's clock.
func (se *ShardedEngine) Handoff(src, dst int, when Time, fn func(any), arg any) {
	if src == dst {
		se.engs[dst].Post(when, fn, arg)
		return
	}
	if min := se.engs[src].Now().Add(se.lookahead); when < min {
		panic("sim: Handoff inside the lookahead window")
	}
	se.outbox[src][dst] = append(se.outbox[src][dst], handoff{
		when: when, src: src, seq: se.emitSeq[src], fn: fn, arg: arg,
	})
	se.emitSeq[src]++
}

// flush injects every buffered handoff at a window barrier, per
// destination in (when, src, emit order) — a total order independent of
// goroutine scheduling, so destination event seq numbers are
// deterministic.
func (se *ShardedEngine) flush() {
	n := len(se.engs)
	for dst := 0; dst < n; dst++ {
		buf := se.sorter.s[:0]
		for src := 0; src < n; src++ {
			buf = append(buf, se.outbox[src][dst]...)
			se.outbox[src][dst] = se.outbox[src][dst][:0]
		}
		if len(buf) == 0 {
			continue
		}
		se.sorter.s = buf
		sort.Sort(&se.sorter)
		for i := range buf {
			h := &buf[i]
			se.engs[dst].Post(h.when, h.fn, h.arg)
			h.fn = nil
			h.arg = nil
		}
		se.sorter.s = buf[:0]
	}
}

// Halt stops Run before the next window.
func (se *ShardedEngine) Halt() { se.halted = true }

// Fired reports events executed across all shards.
func (se *ShardedEngine) Fired() uint64 {
	var n uint64
	for _, e := range se.engs {
		n += e.Fired()
	}
	return n
}

// Pending reports queued events across all shards, plus buffered
// handoffs not yet injected.
func (se *ShardedEngine) Pending() int {
	n := 0
	for _, e := range se.engs {
		n += e.Pending()
	}
	for _, row := range se.outbox {
		for _, q := range row {
			n += len(q)
		}
	}
	return n
}

// Quiescent reports whether the group sits at a checkpointable
// boundary: no shard holds a queued event and no handoff is buffered
// between windows. Only at such an edge is the group's state fully
// described by its snapshots — anything in flight is a closure that
// must be reconstructed by re-execution.
func (se *ShardedEngine) Quiescent() bool { return se.Pending() == 0 }

// Snapshot captures every shard's quiescent-boundary state in shard
// order. Shard identity is stable across runs, so two deterministic
// runs of the same work produce element-wise identical slices.
func (se *ShardedEngine) Snapshot() []EngineSnapshot {
	out := make([]EngineSnapshot, len(se.engs))
	for i, e := range se.engs {
		out[i] = e.Snapshot()
	}
	return out
}

// Now reports the merged clock: the minimum shard clock, the time up to
// which the whole simulation has provably run.
func (se *ShardedEngine) Now() Time {
	t := se.engs[0].Now()
	for _, e := range se.engs[1:] {
		if n := e.Now(); n < t {
			t = n
		}
	}
	return t
}

// Run drains all shards until no events remain, Halt is called, or the
// clock would pass horizon. Returns the time of the last dispatched
// event (or the merged clock if none ran). A model Halt on any shard
// stops that shard at once and the group at the end of the window.
//
// No handoff emitted inside a window can land before its end, so the
// shards run it concurrently; the WaitGroup barrier provides the
// happens-before edge for handoff payloads crossing goroutines.
func (se *ShardedEngine) Run(horizon Time) Time {
	se.halted = false
	if len(se.engs) == 1 {
		se.last = se.engs[0].Run(horizon)
		return se.last
	}
	var wg sync.WaitGroup
	fired := make([]uint64, len(se.engs))
	for !se.halted {
		t := Forever
		for _, e := range se.engs {
			if w, _, ok := e.PeekTime(); ok && w < t {
				t = w
			}
		}
		if t == Forever || t > horizon {
			break
		}
		limit := t.Add(se.lookahead) - 1
		if limit > horizon {
			limit = horizon
		}
		for i, e := range se.engs {
			fired[i] = e.Fired()
			wg.Add(1)
			go func(e *Engine) {
				defer wg.Done()
				e.Run(limit)
			}(e)
		}
		wg.Wait()
		se.flush()
		for i, e := range se.engs {
			// A shard's clock after Run is its last event time if it
			// fired anything this window (Run only moves the clock by
			// dispatching).
			if e.Fired() > fired[i] && e.Now() > se.last {
				se.last = e.Now()
			}
			if e.Halted() {
				se.halted = true
			}
		}
	}
	return se.last
}

// RunAll drains all shards with no horizon.
func (se *ShardedEngine) RunAll() Time { return se.Run(Forever) }
