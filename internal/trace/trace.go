// Package trace is the simulator's flight recorder: a fixed-capacity
// ring buffer of typed events every substrate can write into, with an
// exporter for the Chrome trace-event JSON format (loadable in
// Perfetto / chrome://tracing).
//
// Design constraints, in priority order:
//
//  1. Zero cost when disabled. Every emit method is nil-safe: a nil
//     *Tracer is the off switch, so call sites need no guard and pay
//     one predictable branch. Argument packs are fixed-size value
//     structs copied into the ring — the no-op path performs no heap
//     allocation (enforced by testing.AllocsPerRun in the tests).
//  2. Determinism. Timestamps come from the simulation's virtual
//     clock, and span/flow IDs are derived from virtual time plus a
//     sequence counter — never wall clock — so a traced run is
//     bit-identical across machines and re-runs, and tracing cannot
//     perturb an experiment's numeric results.
//  3. Bounded memory. The ring overwrites the oldest events once full
//     (flight-recorder semantics): a multi-second experiment can stay
//     instrumented on every hot path and still export only the last N
//     events around the incident being debugged.
//
// The timestamp domain of exported traces is virtual-time microseconds:
// one Perfetto "process" per host, one "thread" per component.
package trace

import "time"

// DefaultCapacity is the ring size New uses when given a non-positive
// capacity: 1 Mi events, enough for several milliseconds of fully
// instrumented cluster traffic.
const DefaultCapacity = 1 << 20

// ID identifies one lifecycle span (an async begin/step/end group that
// follows a message or packet across components). The zero ID means
// "untraced" and is what a nil Tracer hands out.
type ID uint64

// Phase classifies an event, mirroring the Chrome trace-event phases
// the exporter maps onto.
type Phase uint8

// Event phases.
const (
	// PhaseInstant is a point event on one component's timeline.
	PhaseInstant Phase = iota
	// PhaseBegin opens a nested duration slice on a component;
	// PhaseEnd closes the most recent open slice on that component.
	PhaseBegin
	PhaseEnd
	// PhaseComplete is a self-contained slice carrying its own
	// duration — used by cost-model components (PCIe, RNIC pipelines)
	// that compute a latency rather than scheduling events.
	PhaseComplete
	// PhaseCounter samples a named numeric series.
	PhaseCounter
	// PhaseSpanBegin / PhaseSpanStep / PhaseSpanEnd are the async
	// lifecycle-span phases: correlated by ID across components, they
	// follow one message or packet through the whole stack.
	PhaseSpanBegin
	PhaseSpanStep
	PhaseSpanEnd
)

// ArgKind says which field of an Arg is live.
type ArgKind uint8

// Argument kinds.
const (
	ArgNone ArgKind = iota
	ArgUint
	ArgInt
	ArgFloat
	ArgString
	ArgDuration
	ArgBool
)

// Arg is one key/value annotation on an event. It is a concrete value
// struct (no interfaces) so building an argument pack never allocates.
type Arg struct {
	Key  string
	Kind ArgKind
	Num  uint64 // ArgUint, ArgInt (two's complement), ArgDuration (ns), ArgBool
	Flt  float64
	Str  string
}

// U builds an unsigned-integer argument.
func U(key string, v uint64) Arg { return Arg{Key: key, Kind: ArgUint, Num: v} }

// I builds a signed-integer argument.
func I(key string, v int64) Arg { return Arg{Key: key, Kind: ArgInt, Num: uint64(v)} }

// F builds a float argument.
func F(key string, v float64) Arg { return Arg{Key: key, Kind: ArgFloat, Flt: v} }

// S builds a string argument. The string should be static or already
// materialised; formatting at the call site defeats the zero-cost path.
func S(key, v string) Arg { return Arg{Key: key, Kind: ArgString, Str: v} }

// D builds a duration argument (stored as nanoseconds).
func D(key string, v time.Duration) Arg { return Arg{Key: key, Kind: ArgDuration, Num: uint64(v)} }

// B builds a boolean argument.
func B(key string, v bool) Arg {
	var n uint64
	if v {
		n = 1
	}
	return Arg{Key: key, Kind: ArgBool, Num: n}
}

// maxArgs bounds annotations per event; extras are dropped (the ring
// entry is fixed-size by design).
const maxArgs = 4

// Event is one ring entry. Host/Comp/Cat/Name must be static or
// pre-materialised strings: the recorder stores them as-is.
type Event struct {
	// Ts is the virtual time of the event in nanoseconds.
	Ts int64
	// Dur is the slice length for PhaseComplete events, in nanoseconds.
	Dur int64
	// Phase classifies the event.
	Phase Phase
	// Host is the Perfetto "process" (one per simulated host, or a
	// shared substrate like "fabric").
	Host string
	// Comp is the Perfetto "thread" (one per component: rnic, pcie,
	// transport, ...).
	Comp string
	// Cat is the event category, used for filtering in the UI.
	Cat string
	// Name labels the event.
	Name string
	// ID correlates lifecycle-span phases; zero otherwise.
	ID ID
	// NArgs says how many of Args are live.
	NArgs uint8
	// Args are the annotations.
	Args [maxArgs]Arg
}

// Tracer is the flight recorder. The zero value of *Tracer (nil) is a
// valid, fully disabled tracer: every method is a no-op.
//
// Tracer is not safe for concurrent use — like the sim.Engine it hangs
// off, all model code runs on one goroutine.
type Tracer struct {
	clock func() int64
	buf   []Event
	total uint64 // events ever emitted; buf index = total % len(buf)
	idSeq uint64
}

// New returns a recorder with the given ring capacity (DefaultCapacity
// if cap <= 0). Bind a virtual clock with SetClock (sim.Engine.SetTracer
// does this); without one every event lands at t=0.
func New(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Tracer{buf: make([]Event, capacity)}
}

// SetClock installs the virtual-time source (nanoseconds).
func (t *Tracer) SetClock(now func() int64) {
	if t == nil {
		return
	}
	t.clock = now
}

// Enabled reports whether the tracer records anything. It is the
// idiomatic guard before building argument strings that would allocate.
func (t *Tracer) Enabled() bool { return t != nil }

// Total reports how many events were ever emitted.
func (t *Tracer) Total() uint64 {
	if t == nil {
		return 0
	}
	return t.total
}

// Dropped reports how many events the ring has overwritten.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	if t.total <= uint64(len(t.buf)) {
		return 0
	}
	return t.total - uint64(len(t.buf))
}

// Len reports how many events are currently held.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	if t.total < uint64(len(t.buf)) {
		return int(t.total)
	}
	return len(t.buf)
}

// Events returns the retained events oldest-first. The slice is freshly
// allocated; entries are value copies safe to hold across further
// emission.
func (t *Tracer) Events() []Event {
	if t == nil || t.total == 0 {
		return nil
	}
	n := uint64(len(t.buf))
	if t.total <= n {
		out := make([]Event, t.total)
		copy(out, t.buf[:t.total])
		return out
	}
	out := make([]Event, 0, n)
	head := t.total % n
	out = append(out, t.buf[head:]...)
	out = append(out, t.buf[:head]...)
	return out
}

// now reads the virtual clock.
func (t *Tracer) now() int64 {
	if t.clock == nil {
		return 0
	}
	return t.clock()
}

// NewID mints a lifecycle-span identifier from the current virtual time
// and a sequence counter. Wall clock is never consulted, so IDs are
// reproducible run-to-run. A nil tracer returns the zero (untraced) ID.
func (t *Tracer) NewID() ID {
	if t == nil {
		return 0
	}
	t.idSeq++
	return ID(uint64(t.now())<<20 | (t.idSeq & 0xfffff))
}

// emit appends one event. args is only read and copied, never retained,
// so call-site variadic packs stay on the caller's stack.
func (t *Tracer) emit(ph Phase, id ID, dur int64, host, comp, cat, name string, args []Arg) {
	e := &t.buf[t.total%uint64(len(t.buf))]
	e.Ts = t.now()
	e.Dur = dur
	e.Phase = ph
	e.Host = host
	e.Comp = comp
	e.Cat = cat
	e.Name = name
	e.ID = id
	n := len(args)
	if n > maxArgs {
		n = maxArgs
	}
	e.NArgs = uint8(n)
	copy(e.Args[:n], args)
	for i := n; i < maxArgs; i++ {
		e.Args[i] = Arg{}
	}
	t.total++
}

// Instant records a point event on host/comp.
func (t *Tracer) Instant(host, comp, cat, name string, args ...Arg) {
	if t == nil {
		return
	}
	t.emit(PhaseInstant, 0, 0, host, comp, cat, name, args)
}

// Begin opens a nested duration slice on host/comp. Pair with End.
func (t *Tracer) Begin(host, comp, cat, name string, args ...Arg) {
	if t == nil {
		return
	}
	t.emit(PhaseBegin, 0, 0, host, comp, cat, name, args)
}

// End closes the most recently opened slice on host/comp.
func (t *Tracer) End(host, comp string, args ...Arg) {
	if t == nil {
		return
	}
	t.emit(PhaseEnd, 0, 0, host, comp, "", "", args)
}

// Complete records a self-contained slice of the given duration ending
// work that conceptually started now — cost-model components (PCIe DMA,
// RNIC pipelines) report their computed latency this way.
func (t *Tracer) Complete(host, comp, cat, name string, dur time.Duration, args ...Arg) {
	if t == nil {
		return
	}
	t.emit(PhaseComplete, 0, int64(dur), host, comp, cat, name, args)
}

// Counter samples a numeric series named name on host/comp.
func (t *Tracer) Counter(host, comp, name string, value float64) {
	if t == nil {
		return
	}
	t.emit(PhaseCounter, 0, 0, host, comp, "counter", name, nil)
	// Store the sample in the entry just written.
	e := &t.buf[(t.total-1)%uint64(len(t.buf))]
	e.NArgs = 1
	e.Args[0] = F("value", value)
}

// SpanBegin opens lifecycle span id on host/comp. The same id may then
// be stepped and ended from any component — that is the point: the span
// follows the message, not the module.
func (t *Tracer) SpanBegin(id ID, host, comp, cat, name string, args ...Arg) {
	if t == nil || id == 0 {
		return
	}
	t.emit(PhaseSpanBegin, id, 0, host, comp, cat, name, args)
}

// SpanStep marks an intermediate point on lifecycle span id.
func (t *Tracer) SpanStep(id ID, host, comp, cat, name string, args ...Arg) {
	if t == nil || id == 0 {
		return
	}
	t.emit(PhaseSpanStep, id, 0, host, comp, cat, name, args)
}

// SpanEnd closes lifecycle span id.
func (t *Tracer) SpanEnd(id ID, host, comp, cat, name string, args ...Arg) {
	if t == nil || id == 0 {
		return
	}
	t.emit(PhaseSpanEnd, id, 0, host, comp, cat, name, args)
}
