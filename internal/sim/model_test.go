package sim

import (
	"slices"
	"sort"
	"testing"
	"time"
)

// queueAPI is the scheduling surface the reference-model test drives:
// an Engine (wheel or heap) or refQueue.
type queueAPI interface {
	Now() Time
	Post(t Time, fn func(any), arg any)
	AfterArg(d Duration, fn func(any), arg any) *Event
	Cancel(ev *Event)
	RunAll() Time
}

// refQueue is the reference model: pending events kept sorted by
// (when, seq) with sort.Search and slices.Insert, popped from the front,
// canceled ones skipped. It shares no queue code with Engine.
type refQueue struct {
	now     Time
	seq     uint64
	pending []refEvent
}

type refEvent struct {
	when Time
	seq  uint64
	fn   func(any)
	arg  any
	ev   *Event // nil when posted
}

func (m *refQueue) Now() Time { return m.now }

func (m *refQueue) Post(t Time, fn func(any), arg any) { m.add(t, fn, arg, nil) }

func (m *refQueue) AfterArg(d Duration, fn func(any), arg any) *Event {
	ev := &Event{when: m.now.Add(d)}
	m.add(ev.when, fn, arg, ev)
	return ev
}

func (m *refQueue) add(t Time, fn func(any), arg any, ev *Event) {
	x := refEvent{when: t, seq: m.seq, fn: fn, arg: arg, ev: ev}
	m.seq++
	i := sort.Search(len(m.pending), func(i int) bool {
		p := m.pending[i]
		return p.when > x.when || (p.when == x.when && p.seq > x.seq)
	})
	m.pending = slices.Insert(m.pending, i, x)
}

func (m *refQueue) Cancel(ev *Event) { ev.canceled = true }

func (m *refQueue) RunAll() Time {
	for len(m.pending) > 0 {
		x := m.pending[0]
		m.pending = m.pending[1:]
		if x.ev != nil && x.ev.canceled {
			continue
		}
		m.now = x.when
		x.fn(x.arg)
	}
	return m.now
}

// engineQ adapts an Engine to queueAPI and tallies, from the engine's
// internals, which queue paths the workload reached.
type engineQ struct {
	*Engine
	tally map[string]int
}

func (q engineQ) Post(t Time, fn func(any), arg any) {
	q.classify(t)
	q.Engine.Post(t, fn, arg)
}

func (q engineQ) AfterArg(d Duration, fn func(any), arg any) *Event {
	q.classify(q.Now().Add(d))
	return q.Engine.AfterArg(d, fn, arg)
}

func (q engineQ) Cancel(ev *Event) {
	if bucketOf(ev.when) <= q.flushed {
		q.tally["cancel after flush"]++
	} else {
		q.tally["cancel before flush"]++
	}
	ev.Cancel()
}

// classify names the tier an event at t is about to enter.
func (q engineQ) classify(t Time) {
	e := q.Engine
	switch b := bucketOf(t); {
	case b <= e.flushed:
		later := 0
		for j := len(e.run) - 1; j >= e.runHead && e.run[j].when > t; j-- {
			later++
		}
		if later > maxRunShift {
			q.tally["run overflow to heap"]++
		}
	case b > e.flushed+wheelSlots:
		q.tally["far"]++
	default:
		chain := 0
		for blk := e.wheel[b&wheelMask]; blk != nil; blk = blk.next {
			chain++
		}
		if chain >= 3 {
			q.tally["bucket of 3+ blocks"]++
		}
	}
}

type firing struct {
	at Time
	id int
}

// modelRec is one scheduled event of the model workload.
type modelRec struct {
	id   int
	ev   *Event // nil when posted
	done bool   // fired or canceled
}

// modelWorkload is a randomized schedule/cancel workload, identical on
// any queueAPI whose firing order is identical. It opens with a burst of
// two events at every nanosecond offset of one bucket (64 blocks, every
// offset tied), then each firing may post or arm more: same-instant
// ties, nested events inside the current bucket (past maxRunShift when
// it is dense), dense bursts into one future bucket, RTO-like timers,
// events beyond the wheel, and cancels of armed events before and after
// their bucket flushes.
func modelWorkload(q queueAPI, seed uint64) []firing {
	r := NewRNG(seed)
	var log []firing
	var armed []*modelRec
	ids, budget := 0, 12000
	var fire func(any)
	add := func(at Time) {
		ids++
		budget--
		rc := &modelRec{id: ids}
		if r.Intn(2) == 0 {
			q.Post(at, fire, rc)
			return
		}
		rc.ev = q.AfterArg(at.Sub(q.Now()), fire, rc)
		armed = append(armed, rc)
		if r.Intn(5) == 0 {
			cancel(q, rc)
		}
	}
	cancelSome := func(n int) {
		for ; n > 0 && len(armed) > 0; n-- {
			i := r.Intn(len(armed))
			rc := armed[i]
			armed[i] = armed[len(armed)-1]
			armed = armed[:len(armed)-1]
			if !rc.done {
				cancel(q, rc)
			}
		}
	}
	fire = func(arg any) {
		rc := arg.(*modelRec)
		rc.done = true
		now := q.Now()
		log = append(log, firing{now, rc.id})
		if budget <= 0 {
			return
		}
		switch r.Intn(8) {
		case 0: // same-instant ties
			for n := 1 + r.Intn(3); n > 0; n-- {
				add(now)
			}
		case 1: // nested into the current bucket, possibly the next
			add(now.Add(Duration(r.Intn(bucketNs))))
		case 2: // dense burst into one future bucket, ties likely
			base := Time(bucketOf(now)+1+uint64(r.Intn(8))) << bucketBits
			spread := []int{16, 64, bucketNs}[r.Intn(3)]
			for n := 33 + r.Intn(96); n > 0; n-- {
				add(base + Time(r.Intn(spread)))
			}
		case 3:
			add(now.Add(250 * time.Microsecond))
		case 4: // beyond the wheel
			add(now.Add(Duration(5+r.Intn(15)) * time.Millisecond))
		case 5: // a few ns ahead: overflows the run inside a dense bucket
			for n := 1 + r.Intn(4); n > 0; n-- {
				add(now.Add(Duration(r.Intn(8))))
			}
		default:
			cancelSome(1 + r.Intn(3))
		}
	}
	base := Time(3) << bucketBits
	for _, off := range r.Perm(2 * bucketNs) {
		add(base + Time(off%bucketNs))
	}
	for i := 0; i < 300; i++ {
		add(Time(r.Intn(int(2 * time.Millisecond))))
	}
	q.RunAll()
	return log
}

func cancel(q queueAPI, rc *modelRec) {
	rc.done = true
	q.Cancel(rc.ev)
}

// TestQueueMatchesReferenceModel runs the randomized model workload on
// the wheel, on the heap and on refQueue, and requires all three to fire
// the same events at the same times in the same order. The wheel run
// must reach every queue path the workload is built to exercise.
func TestQueueMatchesReferenceModel(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3} {
		want := modelWorkload(&refQueue{}, seed)
		if len(want) < 5000 {
			t.Fatalf("seed %d: model fired only %d events", seed, len(want))
		}
		for _, mode := range []SchedulerMode{SchedulerWheel, SchedulerHeap} {
			q := engineQ{NewEngineMode(1, mode), map[string]int{}}
			got := modelWorkload(q, seed)
			if len(got) != len(want) {
				t.Fatalf("seed %d mode %d: fired %d events, model %d", seed, mode, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("seed %d mode %d: firing %d = %+v, model %+v", seed, mode, i, got[i], want[i])
				}
			}
			if q.Pending() != 0 {
				t.Errorf("seed %d mode %d: %d events still pending", seed, mode, q.Pending())
			}
			if mode != SchedulerWheel {
				continue
			}
			for _, path := range []string{"run overflow to heap", "far", "bucket of 3+ blocks",
				"cancel before flush", "cancel after flush"} {
				if q.tally[path] == 0 {
					t.Errorf("seed %d: workload never reached %q (tally %v)", seed, path, q.tally)
				}
			}
		}
	}
}
