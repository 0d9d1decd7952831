package transport

import (
	"errors"
	"reflect"
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
	var transitions []FlowState
	c.OnStateChange(func(_, s FlowState) { transitions = append(transitions, s) })
	c.Send(64<<10, nil)
	r.eng.RunAll()

	if c.State() != FlowError {
		t.Fatalf("state = %v, want error", c.State())
	}
	if err := c.Err(); !errors.Is(err, ErrRetryBudget) {
		t.Errorf("Err() = %v, want ErrRetryBudget", err)
	}
	want := []FlowState{FlowDegraded, FlowError}
	if !reflect.DeepEqual(transitions, want) {
		t.Errorf("transitions = %v, want %v", transitions, want)
	}
	// retries > budget fails the flow on the budget+1'th firing.
	if c.MaxRetries != 3 {
		t.Errorf("MaxRetries = %d, want 3 (budget 2 + the failing attempt)", c.MaxRetries)
	}
	if c.CompletedMessages() != 0 {
		t.Errorf("CompletedMessages = %d on a blackholed flow", c.CompletedMessages())
	}
}

func TestDegradedReturnsToActiveOnAck(t *testing.T) {
	r := newRig(t, 5, smallCfg(), Config{})
	// 20% loss forces RTOs (Degraded) but the transfer still completes.
	faultSegment(t, r.f, 0, fabric.Fault{DropProb: 0.20})
	c, _ := Connect(r.eps[0], r.eps[4], 1, multipath.OBS, 8)
	sawDegraded := false
	c.OnStateChange(func(_, s FlowState) {
		if s == FlowDegraded {
			sawDegraded = true
		}
	})
	c.Send(2<<20, nil)
	r.eng.RunAll()
	if !sawDegraded {
		t.Error("no Degraded excursion despite 20% loss")
	}
	if c.State() != FlowActive {
		t.Errorf("final state = %v, want active", c.State())
	}
	if c.CompletedMessages() != 1 {
		t.Errorf("CompletedMessages = %d", c.CompletedMessages())
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
	if c.State() != FlowActive {
		t.Errorf("final state = %v, want active", c.State())
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
	r.eng.After(100*time.Microsecond, func() { c.Fail(errors.New("qp flushed")) })
	r.eng.RunAll()
	if c.State() != FlowError {
		t.Fatalf("state = %v, want error", c.State())
	}
	if c.CompletedMessages() >= msgs {
		t.Errorf("all %d messages completed despite unrecovered failure", msgs)
	}
}

// TestCloseDuringPendingRTOIsInert is the regression test for the
// free-list aliasing hazard: Close used to return outstanding records
// to the pool while their lazily-canceled RTO events still referenced
// them. A canceled RTO never fires, so the drained events are inert.
func TestCloseDuringPendingRTOIsInert(t *testing.T) {
	r := newRig(t, 9, smallCfg(), Config{})
	blackhole(t, r)
	c, _ := Connect(r.eps[0], r.eps[4], 1, multipath.OBS, 8)
	c.Send(256<<10, nil)
	r.eng.Run(sim.Time(100 * time.Microsecond)) // in flight, RTOs armed
	if c.Outstanding() == 0 {
		t.Fatal("expected in-flight packets before Close")
	}
	c.Close()
	r.eng.RunAll() // pending RTO events must drain without firing
	if c.Retransmits != 0 {
		t.Errorf("Retransmits = %d after Close; canceled RTO fired", c.Retransmits)
	}
}

// TestRecoveryDeterministicAcrossSchedulers drives the full recovery
// arc — backoff with jitter, budget exhaustion, reconnect, completion —
// under the wheel and heap schedulers and requires identical results.
func TestRecoveryDeterministicAcrossSchedulers(t *testing.T) {
	type result struct {
		Transitions []FlowState
		At          []sim.Time
		Completed   uint64
		Retransmits uint64
		MaxRetries  uint64
		Final       FlowState
	}
	run := func(mode sim.SchedulerMode) result {
		prev := sim.DefaultSchedulerMode()
		sim.SetDefaultSchedulerMode(mode)
		defer sim.SetDefaultSchedulerMode(prev)
		r := newRig(t, 11, smallCfg(), Config{
			RetryBudget: 2, RTOBackoff: 2, RTOMax: time.Millisecond, RTOJitter: 0.1,
		})
		blackhole(t, r)
		c, _ := Connect(r.eps[0], r.eps[4], 1, multipath.OBS, 8)
		var res result
		c.OnStateChange(func(_, s FlowState) {
			res.Transitions = append(res.Transitions, s)
			res.At = append(res.At, r.eng.Now())
			if s == FlowError {
				r.eng.After(200*time.Microsecond, func() {
					restore(t, r)
					c.Reconnect()
				})
			}
		})
		for i := 0; i < 4; i++ {
			c.Send(256<<10, nil)
		}
		r.eng.RunAll()
		res.Completed = c.CompletedMessages()
		res.Retransmits = c.Retransmits
		res.MaxRetries = c.MaxRetries
		res.Final = c.State()
		return res
	}
	wheel := run(sim.SchedulerWheel)
	heap := run(sim.SchedulerHeap)
	if !reflect.DeepEqual(wheel, heap) {
		t.Errorf("wheel and heap schedulers diverge:\n%+v\nvs\n%+v", wheel, heap)
	}
	if wheel.Completed != 4 || wheel.Final != FlowActive {
		t.Errorf("recovery arc did not complete: %+v", wheel)
	}
}
