package transport

import (
	"errors"
	"slices"
	"testing"
	"time"

	"repro/internal/fabric"
	"repro/internal/multipath"
	"repro/internal/sim"
)

// blackhole fails every segment-0 uplink so nothing the sender
// transmits can reach the receiver (and no acks come back).
func blackhole(t *testing.T, r *rig) { faultSegment(t, r.f, 0, fabric.Fault{Down: true}) }

func restore(t *testing.T, r *rig) { faultSegment(t, r.f, 0, fabric.Fault{}) }

func TestRTOBackoffGrowthAndCap(t *testing.T) {
	r := newRig(t, 1, smallCfg(), Config{
		RTO: 250 * time.Microsecond, RTOBackoff: 2, RTOMax: time.Millisecond,
	})
	c, _ := Connect(r.eps[0], r.eps[4], 1, multipath.OBS, 8)
	o := &outstanding{}
	want := []sim.Duration{
		250 * time.Microsecond, // first transmit: base, never backed off
		500 * time.Microsecond,
		time.Millisecond, // 250*2^2
		time.Millisecond, // capped
		time.Millisecond,
	}
	for retries, w := range want {
		o.retries = uint32(retries)
		if got := c.rtoInterval(o); got != w {
			t.Errorf("rtoInterval(retries=%d) = %v, want %v", retries, got, w)
		}
	}
}

func TestRTOJitterBoundedAndFirstTransmitExact(t *testing.T) {
	r := newRig(t, 3, smallCfg(), Config{
		RTO: 250 * time.Microsecond, RTOBackoff: 2, RTOMax: time.Millisecond,
		RTOJitter: 0.2,
	})
	c, _ := Connect(r.eps[0], r.eps[4], 1, multipath.OBS, 8)
	o := &outstanding{}
	if got := c.rtoInterval(o); got != 250*time.Microsecond {
		t.Errorf("first-transmit RTO = %v, want exactly 250us (jitter must not apply)", got)
	}
	o.retries = 1
	base := 500 * time.Microsecond
	for i := 0; i < 100; i++ {
		got := c.rtoInterval(o)
		if got < base || got >= base+sim.Duration(float64(base)*0.2) {
			t.Fatalf("jittered RTO = %v outside [%v, %v)", got, base, base+base/5)
		}
	}
}

func TestRetryBudgetExhaustionSurfacesError(t *testing.T) {
	r := newRig(t, 4, smallCfg(), Config{RetryBudget: 2})
	blackhole(t, r)
	c, _ := Connect(r.eps[0], r.eps[4], 1, multipath.OBS, 8)
	var fails []error
	c.OnFail(func(err error) { fails = append(fails, err) })
	c.Send(64<<10, nil)
	r.eng.RunAll()

	if err := c.Err(); !errors.Is(err, ErrRetryBudget) {
		t.Fatalf("Err() = %v, want ErrRetryBudget", err)
	}
	if len(fails) != 1 || !errors.Is(fails[0], ErrRetryBudget) {
		t.Errorf("OnFail calls = %v, want one with ErrRetryBudget", fails)
	}
	// retries > budget fails the flow on the budget+1'th firing.
	if c.MaxRetries != 3 {
		t.Errorf("MaxRetries = %d, want 3 (budget 2 + the failing attempt)", c.MaxRetries)
	}
	if c.CompletedMessages() != 0 {
		t.Errorf("CompletedMessages = %d on a blackholed flow", c.CompletedMessages())
	}
}

// TestReconnectCompletesAfterFail is the transport half of the
// acceptance scenario: a mid-transfer QP reset (modelled as Fail) is
// healed by Reconnect and every message still completes exactly once.
func TestReconnectCompletesAfterFail(t *testing.T) {
	r := newRig(t, 6, smallCfg(), Config{})
	c, _ := Connect(r.eps[0], r.eps[4], 1, multipath.OBS, 8)
	const msgs = 8
	done := 0
	for i := 0; i < msgs; i++ {
		c.Send(512<<10, func(sim.Time) { done++ })
	}
	failErr := errors.New("qp flushed")
	r.eng.After(100*time.Microsecond, func() { c.Fail(failErr) })
	r.eng.After(300*time.Microsecond, func() { c.Reconnect() })
	r.eng.RunAll()

	if done != msgs || c.CompletedMessages() != msgs {
		t.Fatalf("completed %d/%d messages (callbacks %d)", c.CompletedMessages(), msgs, done)
	}
	if c.Err() != nil {
		t.Errorf("Err() = %v after successful reconnect", c.Err())
	}
	if c.Reconnects != 1 {
		t.Errorf("Reconnects = %d", c.Reconnects)
	}
	if c.Outstanding() != 0 {
		t.Errorf("Outstanding = %d after completion", c.Outstanding())
	}
}

func TestFailWithoutReconnectStaysError(t *testing.T) {
	r := newRig(t, 6, smallCfg(), Config{})
	c, _ := Connect(r.eps[0], r.eps[4], 1, multipath.OBS, 8)
	const msgs = 8
	for i := 0; i < msgs; i++ {
		c.Send(512<<10, nil)
	}
	failErr := errors.New("qp flushed")
	r.eng.After(100*time.Microsecond, func() { c.Fail(failErr) })
	r.eng.RunAll()
	if c.Err() != failErr {
		t.Fatalf("Err() = %v, want %v", c.Err(), failErr)
	}
	if c.CompletedMessages() >= msgs {
		t.Errorf("all %d messages completed despite unrecovered failure", msgs)
	}
}

// TestFailNilPanics: a failed flow is one whose Err is non-nil, so
// Fail(nil) cannot be represented and is refused as misuse.
func TestFailNilPanics(t *testing.T) {
	r := newRig(t, 6, smallCfg(), Config{})
	c, _ := Connect(r.eps[0], r.eps[4], 1, multipath.OBS, 8)
	defer func() {
		if recover() == nil {
			t.Error("Fail(nil) did not panic")
		}
		if c.Err() != nil {
			t.Errorf("Err() = %v after refused Fail(nil)", c.Err())
		}
	}()
	c.Fail(nil)
}

// armedSeqs walks c's armed list from the head, checking its back links
// and its (deadline, rtoSeq) order, and returns the packet seqs in it.
func armedSeqs(t *testing.T, c *Conn) []uint64 {
	t.Helper()
	var seqs []uint64
	var prev *outstanding
	for o := c.armHead; o != nil; prev, o = o, o.next {
		if o.prev != prev {
			t.Fatalf("seq %d: back link does not name its predecessor", o.seq)
		}
		if prev != nil && (o.deadline < prev.deadline || o.deadline == prev.deadline && o.rtoSeq < prev.rtoSeq) {
			t.Fatalf("seq %d filed after seq %d, which is due later", o.seq, prev.seq)
		}
		seqs = append(seqs, o.seq)
	}
	if c.armTail != prev {
		t.Fatal("armTail is not the list's last record")
	}
	return seqs
}

// TestCloseAndFailDisarm: Close and a failure each detach every armed
// RTO and stop the connection's deadline, so no RTO fires afterwards
// on a record the connection has recycled or quiesced.
func TestCloseAndFailDisarm(t *testing.T) {
	for _, tc := range []struct {
		name string
		stop func(*Conn)
	}{
		{"close", (*Conn).Close},
		{"fail", func(c *Conn) { c.Fail(errors.New("qp flushed")) }},
	} {
		r := newRig(t, 9, smallCfg(), Config{})
		blackhole(t, r)
		c, _ := Connect(r.eps[0], r.eps[4], 1, multipath.OBS, 8)
		c.Send(256<<10, nil)
		r.eng.Run(sim.Time(100 * time.Microsecond))
		if len(armedSeqs(t, c)) == 0 {
			t.Fatalf("%s: no RTO armed before teardown", tc.name)
		}
		tc.stop(c)
		if n := len(armedSeqs(t, c)); n != 0 {
			t.Errorf("%s: %d RTOs still armed", tc.name, n)
		}
		// A deadline left armed would run this instead of fireRTO.
		fired := 0
		c.rto.Init(func(any) { fired++ }, nil)
		r.eng.RunAll()
		if fired != 0 || c.Retransmits != 0 || r.eng.Pending() != 0 {
			t.Errorf("%s: deadline fired %d times, Retransmits=%d, Pending=%d after drain; want 0/0/0",
				tc.name, fired, c.Retransmits, r.eng.Pending())
		}
	}
}

// TestBackedOffRTOFiresInDeadlineOrder: with every packet dropped and a
// 3x backoff, packet 0's retransmit is due at 400 µs, behind packets 1
// and 2 first sent later. Packet 2, sent after that retransmit, walks
// back past it in the armed list. Each RTO must still fire at its own
// deadline, in (deadline, seq) order.
func TestBackedOffRTOFiresInDeadlineOrder(t *testing.T) {
	const us = sim.Time(time.Microsecond)
	r := newRig(t, 2, smallCfg(), Config{
		RTO: 100 * time.Microsecond, RTOBackoff: 3, RTOMax: 10 * time.Millisecond,
	})
	faultSegment(t, r.f, 0, fabric.Fault{DropProb: 1})
	c, _ := Connect(r.eps[0], r.eps[4], 1, multipath.OBS, 8)
	c.Send(1024, nil)
	r.eng.At(50*us, func() { c.Send(1024, nil) })
	r.eng.At(120*us, func() {
		c.Send(1024, nil)
		if got, want := armedSeqs(t, c), []uint64{1, 2, 0}; !slices.Equal(got, want) {
			t.Errorf("armed list at 120µs = %v, want %v", got, want)
		}
	})
	type firing struct {
		at  sim.Time
		seq uint64
	}
	var got []firing
	retries := map[uint64]uint32{}
	for len(got) < 6 && r.eng.Step() {
		c.unacked.each(func(o *outstanding) {
			if o.retries != retries[o.seq] {
				retries[o.seq] = o.retries
				got = append(got, firing{r.eng.Now(), o.seq})
			}
		})
	}
	want := []firing{{100 * us, 0}, {150 * us, 1}, {220 * us, 2}, {400 * us, 0}, {450 * us, 1}, {520 * us, 2}}
	if !slices.Equal(got, want) {
		t.Errorf("RTO firings (time, seq) = %v, want %v", got, want)
	}
}
