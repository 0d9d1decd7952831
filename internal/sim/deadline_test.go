package sim

import (
	"slices"
	"testing"
	"time"
)

// deadlineLog records each firing of a deadline callback.
func deadlineLog(e *Engine, d *Deadline) *[]Time {
	var got []Time
	d.Init(func(any) { got = append(got, e.Now()) }, nil)
	return &got
}

func TestDeadlineMovedLaterFiresOnceAtNewPoint(t *testing.T) {
	e := NewEngine(1)
	var d Deadline
	got := deadlineLog(e, &d)
	e.SetDeadline(&d, 100, e.Reserve())
	e.SetDeadline(&d, 300, e.Reserve())
	if e.Pending() != 1 {
		t.Fatalf("Pending() = %d after a move later, want the one entry", e.Pending())
	}
	e.RunAll()
	if !slices.Equal(*got, []Time{300}) || e.Fired() != 1 || d.set {
		t.Fatalf("fired at %v, Fired()=%d, armed=%v; want [300ns], 1, false", *got, e.Fired(), d.set)
	}
}

func TestDeadlineMovedEarlierDropsStaleEntry(t *testing.T) {
	e := NewEngine(1)
	var d Deadline
	got := deadlineLog(e, &d)
	e.SetDeadline(&d, 300, e.Reserve())
	e.SetDeadline(&d, 100, e.Reserve())
	if e.Pending() != 2 {
		t.Fatalf("Pending() = %d after a move earlier, want 2 (one stale)", e.Pending())
	}
	e.RunAll()
	if !slices.Equal(*got, []Time{100}) || e.Fired() != 1 || e.Pending() != 0 {
		t.Fatalf("fired at %v, Fired()=%d, Pending()=%d; want [100ns], 1, 0", *got, e.Fired(), e.Pending())
	}
	if e.Now() != 100 {
		t.Errorf("Now() = %v: dropping the stale entry advanced the clock", e.Now())
	}
	// Armed later again, the deadline's stale entry (400) must still be
	// dropped, not re-keyed into a second entry beside the live one.
	e.SetDeadline(&d, 400, e.Reserve())
	e.SetDeadline(&d, 200, e.Reserve())
	e.SetDeadline(&d, 600, e.Reserve())
	e.Run(500)
	if len(*got) != 1 || e.Pending() != 1 {
		t.Fatalf("at 500ns: fired at %v, Pending()=%d; want [100ns], 1", *got, e.Pending())
	}
	e.RunAll()
	if !slices.Equal(*got, []Time{100, 600}) || e.Fired() != 2 || e.Pending() != 0 {
		t.Fatalf("fired at %v, Fired()=%d, Pending()=%d; want [100ns 600ns], 2, 0", *got, e.Fired(), e.Pending())
	}
}

func TestDeadlineStopFiresNothing(t *testing.T) {
	e := NewEngine(1)
	var d Deadline
	got := deadlineLog(e, &d)
	e.SetDeadline(&d, Time(250*time.Microsecond), e.Reserve())
	e.Post(Time(100*time.Microsecond), func(any) { d.Stop() }, nil)
	e.RunAll()
	if len(*got) != 0 || e.Fired() != 1 || e.Pending() != 0 {
		t.Fatalf("fired at %v, Fired()=%d, Pending()=%d; want none, 1 (the Post), 0", *got, e.Fired(), e.Pending())
	}
}

// TestDeadlineMatchesPerTimerEvents is the differential test of the
// transport's timer scheme. Four owners each arm timers (a fixed RTO, a
// variable delay, or one past the wheel's horizon), cancel some as acks
// would, and re-arm some from the firing callback as retransmits do.
// One run gives every timer its own AfterArg event and Cancel; the other
// files each owner's timers in a list sorted by (deadline, seq) behind
// one Deadline that tracks the head. Both must fire the same (time, seq,
// id) sequence and dispatch the same number of events, on either queue.
func TestDeadlineMatchesPerTimerEvents(t *testing.T) {
	type firing struct {
		at  Time
		seq uint64
		id  int
	}
	type timer struct {
		when Time
		seq  uint64
		id   int
		ev   *Event
	}
	type owner struct {
		armed []timer // sorted by (when, seq)
		d     Deadline
	}
	run := func(mode SchedulerMode, useDeadline bool) ([]firing, uint64) {
		e := NewEngineMode(1, mode)
		rng := NewRNG(0xdead)
		owners := make([]*owner, 4)
		var got []firing
		nextID := 0
		delay := func() Duration {
			switch rng.Intn(4) {
			case 0, 1:
				return 250 * time.Microsecond
			case 2:
				return Duration(rng.Intn(600_000))
			default:
				return Duration(5+rng.Intn(10)) * time.Millisecond
			}
		}
		var fire func(o *owner, x timer)
		arm := func(o *owner) {
			x := timer{when: e.Now().Add(delay()), id: nextID}
			nextID++
			if useDeadline {
				x.seq = e.Reserve()
			} else {
				x.seq = e.seq
				x.ev = e.AfterArg(x.when.Sub(e.Now()), func(id any) {
					i := slices.IndexFunc(o.armed, func(y timer) bool { return y.id == id })
					y := o.armed[i]
					o.armed = slices.Delete(o.armed, i, i+1)
					fire(o, y)
				}, x.id)
			}
			// Both runs keep the list sorted, so a random index cancels
			// the same timer in each.
			i := len(o.armed)
			for i > 0 && o.armed[i-1].when > x.when {
				i--
			}
			o.armed = slices.Insert(o.armed, i, x)
			if useDeadline && i == 0 {
				e.SetDeadline(&o.d, x.when, x.seq)
			}
		}
		cancel := func(o *owner, i int) {
			x := o.armed[i]
			o.armed = slices.Delete(o.armed, i, i+1)
			if !useDeadline {
				x.ev.Cancel()
				return
			}
			if i > 0 {
				return
			}
			if len(o.armed) == 0 {
				o.d.Stop()
			} else {
				e.SetDeadline(&o.d, o.armed[0].when, o.armed[0].seq)
			}
		}
		fire = func(o *owner, x timer) {
			got = append(got, firing{e.Now(), x.seq, x.id})
			if rng.Intn(2) == 0 {
				arm(o)
			}
		}
		for k := range owners {
			o := &owner{}
			owners[k] = o
			o.d.Init(func(any) {
				x := o.armed[0]
				cancel(o, 0)
				fire(o, x)
			}, nil)
		}
		step := func(any) {
			o := owners[rng.Intn(len(owners))]
			for n := 1 + rng.Intn(3); n > 0; n-- {
				arm(o)
			}
			for n := rng.Intn(4); n > 0 && len(o.armed) > 0; n-- {
				cancel(o, rng.Intn(len(o.armed)))
			}
		}
		for i := 0; i < 3000; i++ {
			e.Post(Time(rng.Intn(20_000_000)), step, nil)
		}
		e.RunAll()
		if e.Pending() != 0 {
			t.Errorf("mode %d deadline=%v: Pending() = %d after RunAll", mode, useDeadline, e.Pending())
		}
		return got, e.Fired()
	}
	want, wantFired := run(SchedulerHeap, false)
	if len(want) < 1000 {
		t.Fatalf("workload fired only %d timers", len(want))
	}
	for _, mode := range []SchedulerMode{SchedulerWheel, SchedulerHeap} {
		for _, useDeadline := range []bool{false, true} {
			got, fired := run(mode, useDeadline)
			if fired != wantFired {
				t.Errorf("mode %d deadline=%v: Fired() = %d, want %d", mode, useDeadline, fired, wantFired)
			}
			if i := firstDiff(got, want); i >= 0 {
				t.Fatalf("mode %d deadline=%v: firing %d of %d/%d differs", mode, useDeadline, i, len(got), len(want))
			}
		}
	}
}

// firstDiff returns the first index at which a and b differ, -1 if equal.
func firstDiff[T comparable](a, b []T) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	if len(a) != len(b) {
		return min(len(a), len(b))
	}
	return -1
}

// TestDeadlineAllocFree pins the deadline's steady state at zero
// allocations: arming it, moving it later and earlier, stopping it,
// re-arming it and firing it reuse the heap's slots.
func TestDeadlineAllocFree(t *testing.T) {
	e := NewEngine(1)
	var d Deadline
	d.Init(func(any) {}, nil)
	cycle := func() {
		now := e.Now()
		e.SetDeadline(&d, now.Add(250*time.Microsecond), e.Reserve())
		e.SetDeadline(&d, now.Add(300*time.Microsecond), e.Reserve())
		e.SetDeadline(&d, now.Add(200*time.Microsecond), e.Reserve())
		d.Stop()
		e.SetDeadline(&d, now.Add(100*time.Microsecond), e.Reserve())
		e.RunAll()
	}
	if allocs := testing.AllocsPerRun(1000, cycle); allocs != 0 {
		t.Errorf("arm/move/stop/fire cycle allocated %.1f objects, want 0", allocs)
	}
	if e.Fired() != 1001 || e.Pending() != 0 {
		t.Errorf("Fired()=%d Pending()=%d, want one firing per cycle and an empty queue", e.Fired(), e.Pending())
	}
}
