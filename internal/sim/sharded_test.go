package sim

import (
	"fmt"
	"sort"
	"testing"
	"time"
)

// TestAdvanceKeepsWheelPathHot is the regression test for the stale
// flushed watermark: after a long Advance with an empty wheel, newly
// scheduled short-horizon events must land in the wheel (or the already
// flushed run), never silently fall through to the heap.
func TestAdvanceKeepsWheelPathHot(t *testing.T) {
	e := NewEngine(1)
	e.Advance(10 * time.Millisecond) // ~19.5k buckets: past the wheel horizon
	e.After(time.Microsecond, func() {})
	if e.wheelCount != 1 {
		t.Fatalf("post-Advance short-horizon event bypassed the wheel: wheelCount=%d heap=%d run=%d",
			e.wheelCount, len(e.queue), len(e.run)-e.runHead)
	}
	// Same-bucket events go to the flushed run, still not the heap.
	e.After(100*time.Nanosecond, func() {})
	if len(e.queue) != 0 {
		t.Fatalf("post-Advance same-bucket event went to the heap (heap=%d)", len(e.queue))
	}
	ran := 0
	e.After(0, func() { ran++ })
	e.RunAll()
	if ran != 1 {
		t.Fatalf("events lost after Advance: ran=%d", ran)
	}
}

func TestAdvanceWithOccupiedWheelKeepsWatermark(t *testing.T) {
	e := NewEngine(1)
	e.After(time.Millisecond, func() {})   // flushed to the run by Advance's peek
	e.After(2*time.Millisecond, func() {}) // stays in the wheel past the peek
	e.Advance(500 * time.Microsecond)
	if e.wheelCount != 1 {
		t.Fatalf("setup: wheelCount=%d after Advance, want 1", e.wheelCount)
	}
	if watermark := e.flushed; bucketOf(2*1e6) <= watermark {
		t.Fatalf("Advance flushed past an occupied bucket: flushed=%d", watermark)
	}
	fired := 0
	e.At(e.Now(), func() { fired++ })
	e.RunAll()
	if fired != 1 || e.Fired() != 3 {
		t.Fatalf("fired=%d total=%d, want 1/3", fired, e.Fired())
	}
}

// TestFarCandidateKeepsWatermark: a pending event beyond the wheel's
// horizon must not drag the flushed watermark ahead of the clock. Only
// the bucket before it that holds the near event is flushed, so a hop
// scheduled 2 µs after that event fires still lands in the wheel.
func TestFarCandidateKeepsWatermark(t *testing.T) {
	e := NewEngine(1)
	fn := func(any) {}
	e.Post(Time(10*time.Millisecond), fn, nil) // a chaos-style far event
	e.Post(Time(time.Microsecond), fn, nil)
	if !e.Step() || e.Now() != Time(time.Microsecond) {
		t.Fatalf("first Step ran to %v, want 1µs", e.Now())
	}
	e.Post(e.Now().Add(2*time.Microsecond), fn, nil)
	if e.wheelCount != 1 {
		t.Fatalf("hop 2 µs out missed the wheel: flushed=%d (clock bucket %d) wheel=%d run=%d heap=%d",
			e.flushed, bucketOf(e.Now()), e.wheelCount, len(e.run)-e.runHead, len(e.queue))
	}
	e.RunAll()
	if e.Fired() != 3 || e.Pending() != 0 {
		t.Fatalf("fired=%d pending=%d, want 3/0", e.Fired(), e.Pending())
	}
}

// TestAtInstantEndRunsAfterInstant checks the callback fires after every
// event at the current instant — including events those events schedule
// at the same time — and before the clock advances.
func TestAtInstantEndRunsAfterInstant(t *testing.T) {
	for _, mode := range []SchedulerMode{SchedulerWheel, SchedulerHeap} {
		e := NewEngineMode(1, mode)
		var log []string
		e.At(100, func() {
			log = append(log, "a")
			e.AtInstantEnd(func(any) { log = append(log, "end1") }, nil)
			// Same-instant event scheduled from within the instant: must
			// still run before the instant-end callback.
			e.At(100, func() { log = append(log, "b") })
		})
		e.At(100, func() { log = append(log, "c") })
		e.At(200, func() { log = append(log, "later") })
		e.RunAll()
		want := "[a c b end1 later]"
		if got := fmt.Sprint(log); got != want {
			t.Fatalf("mode %d: instant-end order = %v, want %v", mode, got, want)
		}
	}
}

// TestAtInstantEndReopensInstant: a callback that schedules work at the
// current instant re-opens it; remaining callbacks wait for the new
// events to drain.
func TestAtInstantEndReopensInstant(t *testing.T) {
	e := NewEngine(1)
	var log []string
	e.At(50, func() {
		e.AtInstantEnd(func(any) {
			log = append(log, "end1")
			e.At(50, func() { log = append(log, "reopened") })
		}, nil)
		e.AtInstantEnd(func(any) { log = append(log, "end2") }, nil)
	})
	e.RunAll()
	want := "[end1 reopened end2]"
	if got := fmt.Sprint(log); got != want {
		t.Fatalf("re-open order = %v, want %v", got, want)
	}
	if e.Now() != 50 {
		t.Fatalf("Now() = %v, want 50", e.Now())
	}
}

// shardRing is the synthetic cross-shard model the sharded tests drive:
// a token ring where each hop is a Handoff of the declared lookahead,
// and every third hop also does shard-local busywork (extra
// same-instant events) to exercise per-shard ordering. Each shard logs
// to its own slice, since shards run concurrently inside a window.
func shardRing(se *ShardedEngine, hops int) (logs [][]stamped) {
	n := se.NumShards()
	const hop = 2 * time.Microsecond
	se.SetLookahead(hop)
	logs = make([][]stamped, n)
	type token struct{ hop, shard int }
	var fire func(any)
	fire = func(arg any) {
		tk := arg.(*token)
		eng := se.Shard(tk.shard)
		logs[tk.shard] = append(logs[tk.shard], stamped{eng.Now(), fmt.Sprintf("hop%d", tk.hop)})
		if tk.hop%3 == 0 {
			eng.At(eng.Now(), func() {
				logs[tk.shard] = append(logs[tk.shard], stamped{eng.Now(), fmt.Sprintf("local%d", tk.hop)})
			})
		}
		if tk.hop >= hops {
			return
		}
		next := &token{hop: tk.hop + 1, shard: (tk.shard + 1) % n}
		se.Handoff(tk.shard, next.shard, eng.Now().Add(hop), fire, next)
	}
	se.Shard(0).Post(0, fire, &token{hop: 1, shard: 0})
	return logs
}

// stamped is one log line with the virtual time it was written.
type stamped struct {
	at  Time
	msg string
}

// merged flattens per-shard logs into one timeline. The ring's token
// sits on one shard at a time, so ordering by time (stable within a
// shard) recovers the order a single engine logs.
func merged(logs [][]stamped) []stamped {
	var all []stamped
	for _, l := range logs {
		all = append(all, l...)
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].at < all[j].at })
	return all
}

// TestShardedWindowsMatchSingle: the same model run on 2, 4 and 8
// shards produces the event log of one shard, under both schedulers.
func TestShardedWindowsMatchSingle(t *testing.T) {
	for _, mode := range []SchedulerMode{SchedulerWheel, SchedulerHeap} {
		var ref []stamped
		for _, n := range []int{1, 2, 4, 8} {
			se := NewShardedEngine(7, mode, n)
			logs := shardRing(se, 60)
			last := se.RunAll()
			got := merged(logs)
			if want := Time(59 * 2 * int64(time.Microsecond)); last != want {
				t.Fatalf("mode %d shards=%d: last=%v want %v", mode, n, last, want)
			}
			if n == 1 {
				ref = got
				continue
			}
			if fmt.Sprint(got) != fmt.Sprint(ref) {
				t.Fatalf("mode %d shards=%d: log diverged\n got %v\nwant %v", mode, n, got, ref)
			}
		}
	}
}

func TestHandoffInsideLookaheadPanics(t *testing.T) {
	se := NewShardedEngine(1, SchedulerWheel, 2)
	se.SetLookahead(time.Microsecond)
	defer func() {
		if recover() == nil {
			t.Fatal("Handoff inside the lookahead window did not panic")
		}
	}()
	se.Handoff(0, 1, se.Shard(0).Now().Add(time.Nanosecond), func(any) {}, nil)
}

// TestShardedHalt: a model Halt stops its own shard at once and the
// group at the end of the window. Other shards finish the window.
func TestShardedHalt(t *testing.T) {
	se := NewShardedEngine(1, SchedulerWheel, 2)
	se.SetLookahead(time.Microsecond)
	var ran [2]int // per shard: shards run concurrently inside a window
	se.Shard(1).At(10, func() { ran[1]++; se.Shard(1).Halt() })
	se.Shard(1).At(30, func() { ran[1]++ })   // same shard, after Halt
	se.Shard(0).At(20, func() { ran[0]++ })   // same window, other shard
	se.Shard(0).At(5000, func() { ran[0]++ }) // next window
	se.RunAll()
	if ran != [2]int{1, 1} {
		t.Fatalf("ran per shard = %v, want [1 1]", ran)
	}
	if se.Pending() != 2 {
		t.Fatalf("Pending() = %d, want 2", se.Pending())
	}
}
