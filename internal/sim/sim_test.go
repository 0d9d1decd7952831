package sim

import (
	"fmt"
	"testing"
	"testing/quick"
	"time"
	"unsafe"
)

func TestEngineRunsEventsInTimeOrder(t *testing.T) {
	e := NewEngine(1)
	var got []int
	e.At(30, func() { got = append(got, 3) })
	e.At(10, func() { got = append(got, 1) })
	e.At(20, func() { got = append(got, 2) })
	e.RunAll()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event order = %v, want %v", got, want)
		}
	}
	if e.Now() != 30 {
		t.Errorf("Now() = %v, want 30ns", e.Now())
	}
}

func TestEngineTieBreakIsFIFO(t *testing.T) {
	e := NewEngine(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(5, func() { got = append(got, i) })
	}
	e.RunAll()
	for i := range got {
		if got[i] != i {
			t.Fatalf("same-time events ran out of order: %v", got)
		}
	}
}

func TestEngineAfterUsesCurrentTime(t *testing.T) {
	e := NewEngine(1)
	var fireAt Time
	e.At(100, func() {
		e.After(50*time.Nanosecond, func() { fireAt = e.Now() })
	})
	e.RunAll()
	if fireAt != 150 {
		t.Errorf("nested After fired at %v, want 150ns", fireAt)
	}
}

func TestEngineCancel(t *testing.T) {
	e := NewEngine(1)
	ran := false
	ev := e.AfterArg(10, func(any) { ran = true }, nil)
	ev.Cancel()
	e.RunAll()
	if ran {
		t.Error("canceled event still ran")
	}
	if !ev.canceled {
		t.Error("canceled flag not set after Cancel")
	}
}

func TestEngineHorizonStopsEarly(t *testing.T) {
	e := NewEngine(1)
	ran := 0
	e.At(10, func() { ran++ })
	e.At(1000, func() { ran++ })
	e.Run(100)
	if ran != 1 {
		t.Fatalf("ran %d events before horizon, want 1", ran)
	}
	if e.Pending() != 1 {
		t.Errorf("Pending() = %d, want 1", e.Pending())
	}
	e.RunAll()
	if ran != 2 {
		t.Errorf("resume did not run remaining event")
	}
}

func TestEnginePastSchedulingPanics(t *testing.T) {
	e := NewEngine(1)
	e.At(100, func() {})
	e.RunAll()
	defer func() {
		if recover() == nil {
			t.Error("scheduling in the past did not panic")
		}
	}()
	e.At(50, func() {})
}

func TestEngineHalt(t *testing.T) {
	e := NewEngine(1)
	ran := 0
	e.At(1, func() { ran++; e.Halt() })
	e.At(2, func() { ran++ })
	e.RunAll()
	if ran != 1 {
		t.Fatalf("Halt did not stop the run: ran=%d", ran)
	}
}

func TestEngineStep(t *testing.T) {
	e := NewEngine(1)
	ran := 0
	e.At(1, func() { ran++ })
	e.At(2, func() { ran++ })
	if !e.Step() || ran != 1 {
		t.Fatalf("first Step: ran=%d", ran)
	}
	if !e.Step() || ran != 2 {
		t.Fatalf("second Step: ran=%d", ran)
	}
	if e.Step() {
		t.Error("Step on empty queue returned true")
	}
}

func TestEngineAdvance(t *testing.T) {
	e := NewEngine(1)
	e.Advance(5 * time.Microsecond)
	if e.Now() != Time(5*time.Microsecond) {
		t.Errorf("Now() = %v after Advance", e.Now())
	}
	e.At(e.Now().Add(time.Millisecond), func() {})
	defer func() {
		if recover() == nil {
			t.Error("Advance past a pending event did not panic")
		}
	}()
	e.Advance(2 * time.Millisecond)
}

func TestAdvanceReapsCanceledHead(t *testing.T) {
	// Regression: a canceled event at the queue head must not mask a
	// live event behind it — Advance has to panic for the live one.
	e := NewEngine(1)
	ev := e.AfterArg(10, func(any) {}, nil)
	e.At(20, func() {})
	ev.Cancel()
	defer func() {
		if recover() == nil {
			t.Error("Advance skipped a live event hidden behind a canceled head")
		}
	}()
	e.Advance(30 * time.Nanosecond)
}

func TestAdvancePastOnlyCanceledEvents(t *testing.T) {
	e := NewEngine(1)
	for d := Duration(10); d <= 50; d += 10 {
		e.AfterArg(d, func(any) {}, nil).Cancel()
	}
	e.Advance(100 * time.Nanosecond) // must not panic: nothing live pends
	if e.Now() != 100 {
		t.Errorf("Now() = %v, want 100ns", e.Now())
	}
	if got := e.Pending(); got != 0 {
		t.Errorf("Pending() = %d after reaping, want 0", got)
	}
}

func TestPostRunsWithArgument(t *testing.T) {
	e := NewEngine(1)
	var got []int
	fn := func(a any) { got = append(got, a.(int)) }
	e.Post(20, fn, 2)
	e.Post(10, fn, 1)
	e.AfterArg(30*time.Nanosecond, fn, 3)
	e.RunAll()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Errorf("arg-event order = %v, want [1 2 3]", got)
	}
}

// TestEventPoolingIsAllocationFree pins the steady state at zero
// allocations per operation: cancel handles, wheel blocks and the run
// are all reused once warm.
func TestEventPoolingIsAllocationFree(t *testing.T) {
	e := NewEngine(1)
	fn := func(any) {}
	nop := func() {}
	for _, tc := range []struct {
		name string
		runs int
		op   func()
	}{
		{"AfterArg", 1000, func() { e.AfterArg(time.Microsecond, fn, nil); e.Step() }},
		{"After", 1000, func() { e.After(time.Microsecond, nop); e.Step() }},
		{"Post", 1000, func() { e.Post(e.Now().Add(time.Microsecond), fn, nil); e.Step() }},
		{"burst", 5, func() {
			// 16 k events in one future bucket, every offset in it used:
			// a 1024-block chain flushed by the counting sort.
			base := Time(bucketOf(e.Now())+2) << bucketBits
			for i := 0; i < 16<<10; i++ {
				e.Post(base+Time(i%bucketNs), fn, nil)
			}
			e.RunAll()
		}},
	} {
		// AllocsPerRun's own warm-up call fills the pools.
		if allocs := testing.AllocsPerRun(tc.runs, tc.op); allocs != 0 {
			t.Errorf("%s: schedule+fire allocated %.1f objects/op, want 0", tc.name, allocs)
		}
	}
}

// TestCanceledRTOAllocFree is the steady-state footprint gate of a
// cancel-heavy timer pattern: each round arms 4096 RTOs 250 µs out,
// acks (cancels) them all and moves the clock 10 µs. A live guard event
// 20 µs out stands in for the packets in flight: without one, Advance
// would flush every armed bucket at once and reap its canceled entries.
// A canceled entry stays queued until its bucket comes due, so the
// engine holds one 250 µs window of them. Once warm-up rounds have
// covered that window, the handles and blocks each round arms come from
// the ones the due bucket gives back, and no round allocates.
func TestCanceledRTOAllocFree(t *testing.T) {
	const (
		rto      = 250 * time.Microsecond
		step     = 10 * time.Microsecond
		perRound = 4096
		window   = int(rto / step)
	)
	e := NewEngine(1)
	fn := func(any) {}
	evs := make([]*Event, perRound)
	guard := e.AfterArg(2*step, fn, nil)
	round := func() {
		for i := range evs {
			evs[i] = e.AfterArg(rto, fn, nil)
		}
		for _, ev := range evs {
			ev.Cancel()
		}
		guard.Cancel()
		guard = e.AfterArg(2*step, fn, nil)
		e.Advance(step)
	}
	for i := 0; i < window+2; i++ {
		round()
	}
	if allocs := testing.AllocsPerRun(50, round); allocs != 0 {
		t.Errorf("arm+cancel round allocated %.1f objects, want 0", allocs)
	}
	// One window of canceled RTOs, the canceled guards inside it and the
	// live guard.
	if n, limit := e.Pending(), (window+1)*(perRound+1)+1; n > limit {
		t.Errorf("Pending() = %d, want at most one window: %d", n, limit)
	}
}

// TestEventHandleSize pins the cancel handle at 16 bytes: a canceled
// flag and the free-list link.
func TestEventHandleSize(t *testing.T) {
	if n := unsafe.Sizeof(Event{}); n != 16 {
		t.Errorf("sizeof(Event) = %d bytes, want 16", n)
	}
}

// TestArgData checks the interface data-word read the dispatch loop
// prefetches through: the pointer itself for a pointer argument, nil
// for a nil argument.
func TestArgData(t *testing.T) {
	type payload struct{ n int }
	p := &payload{}
	var a any = p
	if got := argData(&a); got != unsafe.Pointer(p) {
		t.Errorf("argData(*payload) = %p, want %p", got, p)
	}
	var none any
	if got := argData(&none); got != nil {
		t.Errorf("argData(nil) = %p, want nil", got)
	}
}

// TestHeapWheelEquivalence drives the two scheduler implementations
// with an identical randomized schedule/cancel workload — short RTO-like
// timers, same-tick ties, nested scheduling from callbacks, far events,
// and heavy cancellation — and requires the exact same firing sequence.
func TestHeapWheelEquivalence(t *testing.T) {
	type firing struct {
		at Time
		id int
	}
	run := func(mode SchedulerMode) []firing {
		e := NewEngineMode(1, mode)
		rng := NewRNG(0xec)
		var got []firing
		id := 0
		var spawn func(depth int) // schedules one random event tree
		spawn = func(depth int) {
			id++
			me := id
			// Mix of horizons: same-bucket, RTO-scale, far beyond the wheel.
			var d Duration
			switch rng.Intn(4) {
			case 0:
				d = Duration(rng.Intn(2000)) // sub-bucket, lots of ties
			case 1:
				d = Duration(rng.Intn(300)) * time.Microsecond
			case 2:
				d = 250 * time.Microsecond
			default:
				d = Duration(1+rng.Intn(20)) * time.Millisecond
			}
			ev := e.AfterArg(d, func(any) {
				got = append(got, firing{e.Now(), me})
				if depth < 3 && rng.Intn(3) == 0 {
					spawn(depth + 1)
				}
			}, nil)
			// Cancel the bulk, like RTOs that are almost always acked.
			if rng.Intn(10) < 7 {
				ev.Cancel()
			}
		}
		for i := 0; i < 2000; i++ {
			spawn(0)
		}
		e.RunAll()
		return got
	}

	heapSeq := run(SchedulerHeap)
	wheelSeq := run(SchedulerWheel)
	if len(heapSeq) != len(wheelSeq) {
		t.Fatalf("fired %d events on heap vs %d on wheel", len(heapSeq), len(wheelSeq))
	}
	for i := range heapSeq {
		if heapSeq[i] != wheelSeq[i] {
			t.Fatalf("firing %d diverged: heap=%+v wheel=%+v", i, heapSeq[i], wheelSeq[i])
		}
	}
	if len(heapSeq) == 0 {
		t.Fatal("workload fired no events")
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
	c := NewRNG(43)
	same := 0
	a = NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("different seeds matched %d/1000 outputs", same)
	}
}

func TestRNGForkIndependence(t *testing.T) {
	parent := NewRNG(7)
	f1 := parent.Fork(1)
	f2 := parent.Fork(2)
	if f1.Uint64() == f2.Uint64() {
		t.Error("forks with different tags produced identical first output")
	}
	// Forking must not consume parent state.
	p1 := NewRNG(7)
	p1.Fork(1)
	p2 := NewRNG(7)
	if p1.Uint64() != p2.Uint64() {
		t.Error("Fork consumed parent RNG state")
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(5)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64() = %v out of [0,1)", f)
		}
	}
}

func TestRNGIntnUniformish(t *testing.T) {
	r := NewRNG(9)
	const n, trials = 8, 80000
	var buckets [n]int
	for i := 0; i < trials; i++ {
		buckets[r.Intn(n)]++
	}
	want := trials / n
	for i, c := range buckets {
		if c < want*8/10 || c > want*12/10 {
			t.Errorf("bucket %d has %d hits, want ~%d", i, c, want)
		}
	}
}

func TestRNGPermIsPermutation(t *testing.T) {
	f := func(seed uint64) bool {
		r := NewRNG(seed)
		n := 1 + r.Intn(64)
		p := r.Perm(n)
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRNGExpPositiveMean(t *testing.T) {
	r := NewRNG(11)
	sum := 0.0
	const trials = 20000
	for i := 0; i < trials; i++ {
		v := r.Exp(5)
		if v < 0 {
			t.Fatalf("Exp returned negative %v", v)
		}
		sum += v
	}
	mean := sum / trials
	if mean < 4.5 || mean > 5.5 {
		t.Errorf("Exp(5) sample mean = %v, want ~5", mean)
	}
}

func TestTimeHelpers(t *testing.T) {
	tm := Time(1500)
	if tm.Add(500) != 2000 {
		t.Error("Add")
	}
	if tm.Sub(500) != 1000 {
		t.Error("Sub")
	}
	if Time(2e9).Seconds() != 2.0 {
		t.Error("Seconds")
	}
	if Forever.String() != "forever" {
		t.Error("Forever.String")
	}
}

// TestCanceledEntryReapedAtHead pins the cancel contract in each place
// a canceled AfterArg can sit: a one-block wheel bucket, a multi-block
// bucket that the flush counting-sorts, the run and the heap. The
// canceled callback never runs, and its handle reaches the free list
// only when its entry is reaped at the head: not at Cancel, not when its
// bucket flushes, but as the first live event after it comes up.
func TestCanceledEntryReapedAtHead(t *testing.T) {
	nop := func(any) {}
	base := Time(10 * time.Microsecond)
	for _, tc := range []struct {
		place string
		at    Time // when the canceled event is due
		// arm queues live events before and after at and returns the
		// handle of an AfterArg due at at.
		arm func(e *Engine, at Time, dead func(any)) *Event
	}{
		{"1-block wheel bucket", base + 100, func(e *Engine, at Time, dead func(any)) *Event {
			e.Post(base, nop, nil)
			ev := e.AfterArg(at.Sub(e.Now()), dead, nil)
			e.Post(base+200, nop, nil)
			return ev
		}},
		{"3-block wheel bucket", base + 100, func(e *Engine, at Time, dead func(any)) *Event {
			for i := 0; i < 20; i++ {
				e.Post(base+Time(i%7), nop, nil)
			}
			ev := e.AfterArg(at.Sub(e.Now()), dead, nil)
			for i := 0; i < 20; i++ {
				e.Post(base+200+Time(i%7), nop, nil)
			}
			return ev
		}},
		{"run", base + 100, func(e *Engine, at Time, dead func(any)) *Event {
			e.Post(base, nop, nil)
			ev := e.AfterArg(at.Sub(e.Now()), dead, nil)
			e.Post(base+200, nop, nil)
			e.Step() // flushes the bucket into the run
			return ev
		}},
		{"heap", Time(20 * time.Millisecond), func(e *Engine, at Time, dead func(any)) *Event {
			e.Post(at-Time(10*time.Millisecond), nop, nil)
			ev := e.AfterArg(at.Sub(e.Now()), dead, nil)
			e.Post(at+Time(10*time.Millisecond), nop, nil)
			return ev
		}},
	} {
		e := NewEngine(1)
		ran := false
		ev := tc.arm(e, tc.at, func(any) { ran = true })
		if got := placeOf(e, ev); got != tc.place {
			t.Fatalf("%s: entry sits in %s", tc.place, got)
		}
		ev.Cancel()
		if inFreeList(e, ev) {
			t.Fatalf("%s: handle recycled at Cancel", tc.place)
		}
		for e.Step() {
			if got, want := inFreeList(e, ev), e.Now() > tc.at; got != want {
				t.Fatalf("%s: at %v handle on free list = %v, want %v", tc.place, e.Now(), got, want)
			}
		}
		if ran || !inFreeList(e, ev) || e.Pending() != 0 {
			t.Errorf("%s: ran=%v recycled=%v pending=%d, want false/true/0",
				tc.place, ran, inFreeList(e, ev), e.Pending())
		}
	}
}

// placeOf names the queue that holds ev's entry.
func placeOf(e *Engine, ev *Event) string {
	for _, head := range e.wheel {
		if chainHolds(head, ev) {
			return fmt.Sprintf("%d-block wheel bucket", chainLen(head))
		}
	}
	for i := e.runHead; i < len(e.run); i++ {
		if e.run[i].ev == ev {
			return "run"
		}
	}
	for i := range e.queue {
		if e.queue[i].ev == ev {
			return "heap"
		}
	}
	return "no queue"
}

// inFreeList reports whether ev is on e's handle free list.
func inFreeList(e *Engine, ev *Event) bool {
	for f := e.free; f != nil; f = f.next {
		if f == ev {
			return true
		}
	}
	return false
}
