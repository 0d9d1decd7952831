// Package sim provides the discrete-event simulation kernel shared by all
// Stellar substrates. It supplies a virtual clock, an event queue, and a
// deterministic random number generator so that every experiment in the
// repository is reproducible from a seed.
//
// Virtual time is an int64 nanosecond count starting at zero. Components
// schedule callbacks with Post, At or After; Engine.Run drains the queue
// in time order (ties broken by scheduling order) until the queue is
// empty or a horizon is reached.
//
// # Scheduler
//
// The engine is a two-tier scheduler. Short-horizon events — per-hop
// packet departures, the transport's 250 µs RTOs, anything within the
// next ~4 ms of virtual time — land in a timer wheel of fixed-width
// buckets: O(1) insert, O(1) cancel, and lazy reaping of canceled
// events when their bucket's time arrives, so an RTO that is armed and
// canceled on every packet never touches the heap at all. Far or
// irregular events go straight into a binary heap. Queues hold events
// by value, and buckets are flushed strictly in time order before any
// event they could precede is popped, so the dispatch order — (time,
// then scheduling sequence) — is byte-identical to a plain heap;
// SchedulerHeap disables the wheel for differential tests only.
//
// Post needs no cancel handle. The *Event handles At, After and AfterArg
// return are recycled through a per-engine free list (safe because the
// engine is single-threaded), so an *Event must not be retained after
// its callback has run: Cancel on a fired event is harmless only until
// the engine reuses the handle.
package sim

import (
	"fmt"
	"math"
	"slices"
	"time"

	"repro/internal/trace"
)

// Time is a point in virtual time, in nanoseconds since simulation start.
type Time int64

// Duration is a span of virtual time in nanoseconds. It mirrors
// time.Duration so the familiar constants convert directly.
type Duration = time.Duration

// Common instants.
const (
	// Forever sorts after every reachable virtual time.
	Forever Time = math.MaxInt64
)

// Add returns t advanced by d.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration t-u.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Seconds reports t as floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / 1e9 }

// String formats the time as a duration since simulation start.
func (t Time) String() string {
	if t == Forever {
		return "forever"
	}
	return Duration(t).String()
}

// SchedulerMode selects the event-queue implementation. Every run
// uses SchedulerWheel; SchedulerHeap exists only as the reference queue
// the in-package differential tests (and jobgraph's replay fuzz)
// compare the wheel against. No CLI flag, session or checkpoint field
// selects it.
type SchedulerMode int

const (
	// SchedulerWheel is the two-tier scheduler: a timer wheel for
	// short-horizon, cancel-heavy events over a heap for the rest.
	SchedulerWheel SchedulerMode = iota
	// SchedulerHeap uses the binary heap alone — the reference
	// implementation the wheel must match event-for-event.
	SchedulerHeap
)

// DefaultSchedulerMode reports the mode every run uses: always
// SchedulerWheel. It remains for callers that pass a mode to
// NewEngineMode or NewShardedEngine, such as the bench module.
func DefaultSchedulerMode() SchedulerMode { return SchedulerWheel }

// Timer-wheel geometry: 8192 buckets of 512 ns cover a ~4.2 ms
// horizon. The bucket is deliberately finer than a packet's
// serialization time (655 ns for 4 KiB at 50 Gbps), so back-to-back
// hop departures land in *future* buckets and take the O(1) wheel path
// instead of crowding the current one; the span reaches past both the
// transport's 250 µs RTO and the drain time of a full switch queue
// (16 MiB at 50 Gbps ≈ 2.6 ms), the two timer populations the fabric
// actually produces. 64 KiB of slot pointers per engine.
const (
	bucketBits = 9 // 512 ns per bucket
	bucketNs   = 1 << bucketBits
	wheelSlots = 8192
	wheelMask  = wheelSlots - 1
)

// bucketOf maps a virtual time to its absolute wheel bucket.
func bucketOf(t Time) uint64 { return uint64(t) >> bucketBits }

// Event is the cancel handle of an event scheduled with At, After or
// AfterArg. The callback lives in the queued entry; the queue reads the
// handle only for cancelable events.
type Event struct {
	when     Time
	canceled bool
	next     *Event // free-list link
}

// When reports the virtual time the event fires at.
func (e *Event) When() Time { return e.when }

// Cancel prevents the event from firing. Safe to call multiple times;
// on an event that already fired it is a no-op, but only until the
// engine recycles the handle — do not retain event pointers past their
// firing time. The entry keeps its arg until reaped but never runs.
func (e *Event) Cancel() {
	e.canceled = true
}

// Canceled reports whether Cancel was called.
func (e *Event) Canceled() bool { return e.canceled }

// entry is one queued event, held by value in the wheel blocks, the run
// and the heap. ev is its cancel handle, nil for Post.
type entry struct {
	when Time
	seq  uint64
	fn   func(any)
	arg  any
	ev   *Event
}

// before is the engine's total dispatch order: time, then scheduling
// sequence.
func (x *entry) before(y *entry) bool {
	if x.when != y.when {
		return x.when < y.when
	}
	return x.seq < y.seq
}

// dead reports whether the event was canceled; a Post has no handle to load.
func (x *entry) dead() bool { return x.ev != nil && x.ev.canceled }

// blockLen is the entry capacity of a wheel block: small enough that a
// sparse bucket (one RTO, one departure) wastes little memory, large
// enough that a dense one is a short chain of contiguous entries.
const blockLen = 16

// block is one link of a wheel bucket's chain, newest first; its entries
// are in scheduling order. Pooled blocks keep stale entries until reused
// (zeroing costs the single-event path ~10%), pinning at most the
// engine's peak bucket population of spent callbacks and args.
type block struct {
	n    int
	next *block
	ents [blockLen]entry
}

// Engine is a single-threaded discrete-event simulator. It is not safe for
// concurrent use; all model code runs inside event callbacks on one
// goroutine, which is what makes the simulation deterministic.
type Engine struct {
	now    Time
	seq    uint64
	rng    *RNG
	fired  uint64
	halted bool
	tracer *trace.Tracer

	mode       SchedulerMode
	wheel      [wheelSlots]*block
	wheelCount int
	// flushed is the absolute bucket index up to which (inclusive) every
	// wheel bucket has been drained. Events scheduled at or before it go
	// to the run or the heap; the wheel covers the next wheelSlots buckets.
	flushed uint64
	// run holds flushed events sorted by (when, seq), consumed
	// sequentially from runHead. Bucket time ranges are disjoint, so a
	// newly flushed bucket sorts after everything already in the run and
	// appending sorted chunks keeps the whole run sorted — the bulk of
	// traffic flows wheel → run → dispatch without ever touching the
	// heap, which is left to same-bucket reschedules and far events.
	run     []entry
	runHead int
	// queue is the binary min-heap by (when, seq).
	queue []entry

	// atEnd holds instant-end callbacks (AtInstantEnd): work deferred to
	// the moment the current instant has no live event left, consumed
	// FIFO from atEndHead. Not events — they carry no time and cost no
	// queue operation.
	atEnd     []instantCall
	atEndHead int

	free      *Event // recycled cancel handles (single-threaded free list)
	freeBlock *block // recycled wheel blocks
}

// instantCall is one deferred instant-end callback.
type instantCall struct {
	fn  func(any)
	arg any
}

// NewEngine returns an engine with its clock at zero, a deterministic
// RNG seeded with seed, and the wheel scheduler.
func NewEngine(seed uint64) *Engine {
	return NewEngineMode(seed, SchedulerWheel)
}

// NewEngineMode returns an engine with an explicit scheduler mode — the
// reference-selection hook the heap-vs-wheel differential tests use.
func NewEngineMode(seed uint64, mode SchedulerMode) *Engine {
	return &Engine{rng: NewRNG(seed), mode: mode}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// RNG returns the engine's deterministic random source.
func (e *Engine) RNG() *RNG { return e.rng }

// SetTracer attaches a flight recorder and binds its clock to the
// engine's virtual time. Components reach it through Tracer(); passing
// nil detaches (the default), making every trace call a no-op.
func (e *Engine) SetTracer(t *trace.Tracer) {
	e.tracer = t
	t.SetClock(func() int64 { return int64(e.now) })
}

// Tracer returns the attached flight recorder, which is nil (a valid,
// disabled tracer) unless SetTracer was called.
func (e *Engine) Tracer() *trace.Tracer { return e.tracer }

// Fired reports how many events have executed so far.
func (e *Engine) Fired() uint64 { return e.fired }

// Pending reports how many events are queued (including canceled ones that
// have not been reaped yet).
func (e *Engine) Pending() int { return len(e.queue) + e.wheelCount + len(e.run) - e.runHead }

// EngineSnapshot is an engine's externally observable state at a
// quiescent boundary: the virtual clock, the dispatch count, the queue
// population and the root RNG stream. Two deterministic runs that
// executed the same work report identical snapshots, which is what
// checkpoint resume verification hashes.
type EngineSnapshot struct {
	// Now is the virtual clock.
	Now Time
	// Fired is the number of events dispatched so far.
	Fired uint64
	// Pending counts still-queued events (including unreaped canceled
	// ones). A snapshot is a quiescent boundary only when this is zero:
	// queued callbacks are closures and cannot be serialized, so state
	// between boundaries is reconstructible only by re-execution.
	Pending int
	// RNG is the engine's root RNG state. Component streams are forked
	// from it by stable tags, so an identical root state on an identical
	// topology reproduces every derived stream.
	RNG [4]uint64
}

// Snapshot captures the engine's quiescent-boundary state. It is cheap
// (no allocation beyond the returned struct) and read-only.
func (e *Engine) Snapshot() EngineSnapshot {
	return EngineSnapshot{Now: e.now, Fired: e.fired, Pending: e.Pending(), RNG: e.rng.State()}
}

// handle takes a cancel handle from the free list (or the allocator)
// for an event at t.
func (e *Engine) handle(t Time) *Event {
	ev := e.free
	if ev == nil {
		return &Event{when: t}
	}
	e.free = ev.next
	*ev = Event{when: t}
	return ev
}

// recycle returns a fired or reaped handle to the free list. The
// canceled flag is deliberately left as-is so Canceled() stays truthful
// on a pointer the caller still holds; handle resets it on reuse.
func (e *Engine) recycle(ev *Event) {
	ev.next = e.free
	e.free = ev
}

// maxRunShift bounds the memmove a run insertion may pay. Past it the
// event goes to the heap instead: with thousands of same-bucket events
// in flight an unbounded sorted insert degrades quadratically, while
// the bound keeps the common small-run case (the RTO/hop workload) on
// the cheap path.
const maxRunShift = 64

// schedule queues fn(arg) at t in the wheel, the run or the heap.
// Events due inside an already-flushed bucket — the sub-bucket hop
// departures that dominate fabric traffic — are binary-inserted into the
// sorted run when the shift is small, leaving the heap same-bucket
// overflow and far events. The entry is written field by field: building
// it on the stack and copying it in costs a store-forwarding stall.
func (e *Engine) schedule(t Time, fn func(any), arg any, ev *Event) {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
	}
	var x *entry
	switch b := bucketOf(t); {
	case e.mode != SchedulerWheel || b > e.flushed+wheelSlots:
	case b > e.flushed:
		slot := b & wheelMask
		blk := e.wheel[slot]
		if blk == nil || blk.n == blockLen {
			blk = e.newBlock(blk)
			e.wheel[slot] = blk
		}
		x = &blk.ents[blk.n]
		blk.n++
		e.wheelCount++
	default:
		// After every entry with when ≤ t (the new seq is the largest).
		// Inline binary search: sort.Search would cost an indirect
		// closure call per probe on the hottest insert path.
		lo, hi := e.runHead, len(e.run)
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if t < e.run[mid].when {
				hi = mid
			} else {
				lo = mid + 1
			}
		}
		if len(e.run)-lo <= maxRunShift {
			x = e.openRun(lo)
		}
	}
	heaped := x == nil
	if heaped {
		e.queue = append(e.queue, entry{})
		x = &e.queue[len(e.queue)-1]
	}
	x.when, x.seq, x.fn, x.arg, x.ev = t, e.seq, fn, arg, ev
	e.seq++
	if heaped {
		e.up(len(e.queue) - 1)
	}
}

// openRun opens a slot in the run at position i for the caller to fill.
func (e *Engine) openRun(i int) *entry {
	n := len(e.run)
	e.run = slices.Grow(e.run, 1)[:n+1]
	if i < n {
		copy(e.run[i+1:], e.run[i:n])
	}
	return &e.run[i]
}

// newBlock takes an empty block from the pool, linked ahead of next. Ten
// blocks (7840 bytes) fill an 8 KiB size class; a lone 784-byte block
// would waste an eighth of its 896-byte class.
func (e *Engine) newBlock(next *block) *block {
	if e.freeBlock == nil {
		slab := new([10]block)
		for i := range slab {
			slab[i].next = e.freeBlock
			e.freeBlock = &slab[i]
		}
	}
	b := e.freeBlock
	e.freeBlock = b.next
	b.next = next
	return b
}

// up restores the heap order above position i.
func (e *Engine) up(i int) {
	q := e.queue
	for i > 0 {
		p := (i - 1) / 2
		if !q[i].before(&q[p]) {
			break
		}
		q[i], q[p] = q[p], q[i]
		i = p
	}
}

// pop removes the heap's top entry.
func (e *Engine) pop() {
	q := e.queue
	n := len(q) - 1
	q[0], q[n] = q[n], entry{}
	q = q[:n]
	e.queue = q
	for i := 0; 2*i+1 < n; {
		m := 2*i + 1
		if m+1 < n && q[m+1].before(&q[m]) {
			m++
		}
		if !q[m].before(&q[i]) {
			break
		}
		q[i], q[m] = q[m], q[i]
		i = m
	}
}

// Post schedules fn(arg) at virtual time t, with no cancel handle: the
// cheapest way to schedule an event that always fires. Hot paths pass
// one long-lived fn so that posting allocates nothing. Scheduling in the
// past panics: that is always a model bug and silently reordering time
// would corrupt results.
func (e *Engine) Post(t Time, fn func(any), arg any) {
	e.schedule(t, fn, arg, nil)
}

// At schedules fn to run at virtual time t and returns its cancel
// handle. Scheduling in the past panics, as for Post.
func (e *Engine) At(t Time, fn func()) *Event {
	ev := e.handle(t)
	e.schedule(t, callFunc, fn, ev)
	return ev
}

// callFunc runs an At callback. A func value is pointer-shaped, so
// carrying it as the entry's arg does not allocate.
func callFunc(fn any) { fn.(func())() }

// After schedules fn to run d from now. Negative d panics via At.
func (e *Engine) After(d Duration, fn func()) *Event {
	return e.At(e.now.Add(d), fn)
}

// AfterArg schedules fn(arg) to run d from now and returns its cancel
// handle: the closure-free form of After, for timers like the RTO.
func (e *Engine) AfterArg(d Duration, fn func(any), arg any) *Event {
	t := e.now.Add(d)
	ev := e.handle(t)
	e.schedule(t, fn, arg, ev)
	return ev
}

// flushBucketsTo drains wheel buckets (flushed, target] into the sorted
// run.
func (e *Engine) flushBucketsTo(target uint64) {
	limit := min(target, e.flushed+wheelSlots)
	if e.runHead > 0 {
		// Compact the consumed prefix so the run never grows unboundedly.
		e.run = e.run[:copy(e.run, e.run[e.runHead:])]
		e.runHead = 0
	}
	for b := e.flushed + 1; b <= limit; b++ {
		slot := b & wheelMask
		if head := e.wheel[slot]; head != nil {
			e.wheel[slot] = nil
			e.flushBucket(head)
		}
	}
	e.flushed = limit
}

// flushBucket appends one bucket's live entries to the run in (when,
// seq) order and returns its blocks to the pool, reaping canceled
// entries on the way — this is where a canceled RTO's handle is
// reclaimed without ever costing a heap operation. Buckets cover
// disjoint time ranges and entries arrive in seq order, so a stable sort
// of this bucket by when keeps the whole run sorted. A single block is
// insertion-sorted; a longer chain is counting-sorted on the 512 offsets
// within the bucket, scattering newest first to just below each offset's
// end so that every offset's entries land in ascending seq.
func (e *Engine) flushBucket(head *block) {
	start := len(e.run)
	if head.next == nil {
		for i := range head.ents[:head.n] {
			x := &head.ents[i]
			if x.dead() {
				e.recycle(x.ev)
			} else {
				j := len(e.run)
				for j > start && x.when < e.run[j-1].when {
					j--
				}
				*e.openRun(j) = *x
			}
		}
	} else {
		var ends [bucketNs]int
		n, lo, hi := 0, bucketNs, 0
		for b := head; b != nil; b = b.next {
			for i := range b.ents[:b.n] {
				x := &b.ents[i]
				if x.dead() {
					e.recycle(x.ev)
					x.fn = nil // the scatter skips it
					continue
				}
				k := int(x.when) & (bucketNs - 1)
				ends[k]++
				lo, hi = min(lo, k), max(hi, k)
				n++
			}
		}
		r := slices.Grow(e.run, n)[:start+n]
		for k, end := lo, start; k <= hi; k++ {
			end += ends[k]
			ends[k] = end
		}
		for b := head; b != nil; b = b.next {
			for i := b.n - 1; i >= 0; i-- {
				if x := &b.ents[i]; x.fn != nil {
					k := int(x.when) & (bucketNs - 1)
					ends[k]--
					r[ends[k]] = *x
				}
			}
		}
		e.run = r
	}
	for b := head; b != nil; {
		next := b.next
		e.wheelCount -= b.n
		b.n = 0
		b.next = e.freeBlock
		e.freeBlock = b
		b = next
	}
}

// peek returns the earliest live event without removing it, reaping
// canceled run/heap heads and flushing any wheel bucket that could
// precede them. Returns nil when nothing live is queued. Instant-end
// callbacks run here, one per iteration, once no live event remains at
// the current instant — so a callback that schedules new work at the
// current instant re-opens it and the remaining callbacks wait. The
// result points into the run or the heap and is valid until the next
// schedule.
func (e *Engine) peek() *entry {
	for {
		// Candidate: the smaller of the run head and the heap top.
		var c *entry
		if e.runHead < len(e.run) {
			c = &e.run[e.runHead]
			if c.dead() {
				e.runHead++
				e.recycle(c.ev)
				continue
			}
		}
		if len(e.queue) > 0 {
			top := &e.queue[0]
			if top.dead() {
				e.recycle(top.ev)
				e.pop()
				continue
			}
			if c == nil || top.before(c) {
				c = top
			}
		}
		if c == nil {
			if e.wheelCount == 0 {
				if e.stepInstantEnd(nil) {
					continue
				}
				return nil
			}
			// Flush only up to the first occupied bucket: draining the
			// whole window would fast-forward flushed so far that every
			// event scheduled next falls behind it and bypasses the wheel.
			b := e.flushed + 1
			for e.wheel[b&wheelMask] == nil {
				b++
			}
			e.flushBucketsTo(b)
			continue
		}
		cb := bucketOf(c.when)
		if cb <= e.flushed {
			if e.stepInstantEnd(c) {
				continue
			}
			return c
		}
		if e.wheelCount == 0 {
			// Nothing in the wheel can precede the candidate.
			e.flushed = cb
			if e.stepInstantEnd(c) {
				continue
			}
			return c
		}
		e.flushBucketsTo(cb)
	}
}

// AtInstantEnd defers fn(arg) to the end of the current instant: it runs
// after every live event scheduled at the current virtual time has
// dispatched, and before the clock advances. Callbacks run FIFO; one
// that schedules new events at the current instant re-opens it, and the
// callbacks still queued run after those events. This is the hook for
// canonical same-instant ordering: a component can buffer same-instant
// arrivals and process them in an order of its own choosing — one that
// does not depend on event scheduling lineage — which is what makes
// sharded execution byte-identical to the single loop.
func (e *Engine) AtInstantEnd(fn func(any), arg any) {
	e.atEnd = append(e.atEnd, instantCall{fn: fn, arg: arg})
}

// stepInstantEnd runs the oldest queued instant-end callback if the
// current instant is over (the next live candidate c, possibly nil, is
// not at now). Reports whether a callback ran.
func (e *Engine) stepInstantEnd(c *entry) bool {
	if e.atEndHead >= len(e.atEnd) || (c != nil && c.when == e.now) {
		return false
	}
	call := e.atEnd[e.atEndHead]
	e.atEnd[e.atEndHead] = instantCall{}
	e.atEndHead++
	if e.atEndHead == len(e.atEnd) {
		e.atEnd = e.atEnd[:0]
		e.atEndHead = 0
	}
	call.fn(call.arg)
	return true
}

// dispatch removes x (which must be peek's result) from its tier and
// fires it.
func (e *Engine) dispatch(x *entry) {
	when, fn, arg, ev := x.when, x.fn, x.arg, x.ev
	if e.runHead < len(e.run) && x == &e.run[e.runHead] {
		e.runHead++
		if e.runHead == len(e.run) {
			e.run = e.run[:0]
			e.runHead = 0
		}
	} else {
		e.pop()
	}
	e.fire(when, fn, arg, ev)
}

// fire advances the clock and runs one dequeued event. Recycling the
// handle first lets a callback that immediately re-arms reuse the hot
// object.
func (e *Engine) fire(when Time, fn func(any), arg any, ev *Event) {
	e.now = when
	e.fired++
	if ev != nil {
		e.recycle(ev)
	}
	fn(arg)
}

// Halt stops Run before the next event is dispatched.
func (e *Engine) Halt() { e.halted = true }

// Halted reports whether Halt was called since the last Run started.
// ShardedEngine reads it after each window to stop the whole group.
func (e *Engine) Halted() bool { return e.halted }

// PeekTime reports the (time, seq) of the next live event without
// dispatching it, and whether one exists. Instant-end callbacks may run
// (exactly as they would on the next Step), so after PeekTime returns
// the reported event really is the next to dispatch.
func (e *Engine) PeekTime() (Time, uint64, bool) {
	x := e.peek()
	if x == nil {
		return 0, 0, false
	}
	return x.when, x.seq, true
}

// Run drains the event queue until it is empty, Halt is called, or the
// clock would pass horizon. It returns the virtual time of the last event
// executed (or the current time if none ran).
func (e *Engine) Run(horizon Time) Time {
	e.halted = false
	tr := e.tracer
	firedBefore := e.fired
	tr.Begin("sim", "engine", "sim", "run", trace.U("pending", uint64(e.Pending())))
	for !e.halted {
		x := e.peek()
		if x == nil || x.when > horizon {
			break
		}
		e.dispatch(x)
		// Batched fast path: every run-buffer event sits in a bucket
		// ≤ flushed, and every wheel event in a bucket > flushed, so
		// while the run is non-empty nothing in the wheel can precede
		// its head — only the heap top competes. Draining the run here
		// skips peek's candidate/flush machinery per event; anything
		// that needs the slow path (heap precedence, a canceled heap
		// head, pending instant-end work, the horizon) breaks out.
		for !e.halted && e.runHead < len(e.run) {
			x := &e.run[e.runHead]
			if x.dead() {
				e.runHead++
				e.recycle(x.ev)
				continue
			}
			if x.when > horizon ||
				(len(e.queue) > 0 && e.queue[0].before(x)) ||
				(e.atEndHead < len(e.atEnd) && x.when != e.now) {
				break
			}
			when, fn, arg, ev := x.when, x.fn, x.arg, x.ev
			e.runHead++
			if e.runHead == len(e.run) {
				e.run = e.run[:0]
				e.runHead = 0
			}
			e.fire(when, fn, arg, ev)
		}
	}
	tr.End("sim", "engine",
		trace.U("fired", e.fired-firedBefore), trace.B("halted", e.halted))
	return e.now
}

// RunAll drains the queue with no horizon.
func (e *Engine) RunAll() Time { return e.Run(Forever) }

// Step executes exactly one (non-canceled) event if any is queued, and
// reports whether one ran.
func (e *Engine) Step() bool {
	x := e.peek()
	if x == nil {
		return false
	}
	e.dispatch(x)
	return true
}

// Advance moves the clock forward by d without running events. It panics
// if any pending live event would be skipped; it exists for tests that
// need to position the clock before scheduling. Canceled events are
// reaped, never guarded: only an event that would actually fire blocks
// the advance.
func (e *Engine) Advance(d Duration) {
	target := e.now.Add(d)
	if x := e.peek(); x != nil && x.when < target {
		panic("sim: Advance would skip a pending event")
	}
	e.now = target
	// Keep the flushed watermark abreast of the clock: after a long jump
	// with an empty wheel, a stale watermark would route every event in
	// the next ~4 ms straight to the heap (bucket > flushed+wheelSlots)
	// until the wheel self-healed. Only safe when the wheel is empty —
	// otherwise the unflushed buckets still hold events.
	if e.wheelCount == 0 {
		if b := bucketOf(target); b > e.flushed {
			e.flushed = b
		}
	}
}
