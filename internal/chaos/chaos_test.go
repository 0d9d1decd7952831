package chaos

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/fabric"
	"repro/internal/sim"
)

func testFabric(eng *sim.Engine) *fabric.Fabric {
	return fabric.New(eng, fabric.Config{
		Segments: 2, HostsPerSegment: 4, Aggs: 4,
		HostLinkBW: 1e9, FabricLinkBW: 1e9,
		LinkDelay: time.Microsecond, QueueLimit: 1 << 20, ECNThreshold: 64 << 10,
	})
}

func sampleScenario() *Scenario {
	return NewScenario("sample").WithJitter(100*time.Microsecond).
		LinkDown(time.Millisecond, fabric.Uplink(0, 1), 2*time.Millisecond).
		Gray(2*time.Millisecond, fabric.Downlink(1, 2),
			GraySpec{Loss: 0.05, Delay: 10 * time.Microsecond, BWFactor: 0.5}, time.Millisecond).
		SwitchReboot(4*time.Millisecond, fabric.SwitchAgg, 3, time.Millisecond).
		HostStall(5*time.Millisecond, 2, time.Millisecond).
		FailReroute(6*time.Millisecond, 0, 0, 2*time.Millisecond).
		FlushATC(7*time.Millisecond, "*").
		ResetQPs(8*time.Millisecond, "nic0")
}

// TestScenarioJSONRoundTrip: builder → JSON → Load must reproduce the
// scenario exactly (jitter, gray parameters, switch kinds included).
func TestScenarioJSONRoundTrip(t *testing.T) {
	sc := sampleScenario()
	b, err := sc.JSON()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Load(b)
	if err != nil {
		t.Fatalf("Load: %v\n%s", err, b)
	}
	if got.Name != sc.Name {
		t.Errorf("name = %q", got.Name)
	}
	if !reflect.DeepEqual(got.Events, sc.Events) {
		t.Errorf("round trip changed events:\n %+v\nvs %+v", got.Events, sc.Events)
	}
}

func TestScenarioValidation(t *testing.T) {
	cases := []struct {
		name string
		sc   *Scenario
	}{
		{"no name", NewScenario("").LinkDown(0, fabric.Uplink(0, 0), 0)},
		{"no kind", NewScenario("x").Add(Event{At: time.Millisecond})},
		{"negative time", NewScenario("x").Add(Event{At: -1, Kind: LinkDown})},
		{"vacuous gray", NewScenario("x").Gray(0, fabric.Uplink(0, 0), GraySpec{}, 0)},
		{"loss out of range", NewScenario("x").Gray(0, fabric.Uplink(0, 0), GraySpec{Loss: 1.5}, 0)},
	}
	for _, c := range cases {
		if err := c.sc.Validate(); err == nil {
			t.Errorf("%s: validated", c.name)
		}
	}
	if err := sampleScenario().Validate(); err != nil {
		t.Errorf("sample scenario rejected: %v", err)
	}
}

// TestPlayRejectsUnboundTargets: Play must fail up front — before
// scheduling anything — when the scenario addresses links, switches or
// NICs the bound topology does not have.
func TestPlayRejectsUnboundTargets(t *testing.T) {
	eng := sim.NewEngine(1)
	ce := New(eng, testFabric(eng))
	for _, sc := range []*Scenario{
		NewScenario("bad-link").LinkDown(0, fabric.Uplink(0, 99), 0),
		NewScenario("bad-switch").SwitchReboot(0, fabric.SwitchCore, 0, time.Millisecond), // no core tier
		NewScenario("bad-nic").FlushATC(0, "nope"),
		NewScenario("no-nics").ResetQPs(0, "*"),
	} {
		if err := ce.Play(sc); err == nil {
			t.Errorf("%s: played", sc.Name)
		}
	}
	if len(ce.Log()) != 0 {
		t.Error("rejected scenarios left firings in the log")
	}
	// No fabric at all: link faults are rejected, NIC faults still work.
	hostOnly := New(eng, nil)
	if err := hostOnly.Play(NewScenario("x").LinkDown(0, fabric.Uplink(0, 0), 0)); err == nil {
		t.Error("link fault played without a fabric")
	}
}

// TestPlaybackAppliesAndClears drives one of each fabric fault kind
// through the engine and checks the fabric state flips down and back up
// at the scheduled times.
func TestPlaybackAppliesAndClears(t *testing.T) {
	eng := sim.NewEngine(1)
	f := testFabric(eng)
	ce := New(eng, f)
	sc := NewScenario("updown").
		LinkDown(time.Millisecond, fabric.Uplink(0, 1), time.Millisecond).
		Gray(time.Millisecond, fabric.Downlink(1, 2), GraySpec{Loss: 0.1}, time.Millisecond).
		SwitchReboot(time.Millisecond, fabric.SwitchAgg, 3, time.Millisecond).
		HostStall(time.Millisecond, 2, time.Millisecond)
	if err := ce.Play(sc); err != nil {
		t.Fatal(err)
	}
	check := func(when string, want bool) {
		for _, ref := range []fabric.LinkRef{
			fabric.Uplink(0, 1), fabric.Uplink(0, 3), fabric.Downlink(1, 3),
			fabric.HostLink(2, fabric.DirUp), fabric.HostLink(2, fabric.DirDown),
		} {
			ft, err := f.FaultOf(ref)
			if err != nil {
				t.Fatal(err)
			}
			if ft.Down != want {
				t.Errorf("%s: %v Down = %v, want %v", when, ref, ft.Down, want)
			}
		}
		gray, _ := f.FaultOf(fabric.Downlink(1, 2))
		wantLoss := 0.0
		if want {
			wantLoss = 0.1
		}
		if gray.DropProb != wantLoss {
			t.Errorf("%s: gray DropProb = %v, want %v", when, gray.DropProb, wantLoss)
		}
	}
	eng.Run(sim.Time(1500 * time.Microsecond))
	check("mid-fault", true)
	eng.RunAll()
	check("after auto-clear", false)
	if got := ce.Counts()[LinkDown]; got != 1 {
		t.Errorf("Counts[LinkDown] = %d", got)
	}
	// 4 injections + 4 auto-clears.
	if got := len(ce.Log()); got != 8 {
		t.Errorf("log length = %d, want 8", got)
	}
}

// TestPlaybackJitterDeterministic: jitter moves the nominal fault times,
// and the fired timeline — times, order, jitter draws — is identical
// across two playbacks of the same (scenario, seed).
func TestPlaybackJitterDeterministic(t *testing.T) {
	timeline := func() []Firing {
		eng := sim.NewEngine(42)
		f := testFabric(eng)
		ce := New(eng, f)
		sc := NewScenario("jittered").WithJitter(300*time.Microsecond).
			LinkDown(time.Millisecond, fabric.Uplink(0, 1), time.Millisecond).
			SwitchReboot(2*time.Millisecond, fabric.SwitchToR, 1, time.Millisecond).
			HostStall(3*time.Millisecond, 5, time.Millisecond).
			FailReroute(4*time.Millisecond, 0, 2, 2*time.Millisecond)
		if err := ce.Play(sc); err != nil {
			t.Fatal(err)
		}
		eng.RunAll()
		return ce.Log()
	}
	first, second := timeline(), timeline()
	if !reflect.DeepEqual(first, second) {
		t.Errorf("fault timelines differ across playbacks:\nfirst:  %+v\nsecond: %+v", first, second)
	}
	if len(first) == 0 {
		t.Fatal("empty timeline")
	}
	// Jitter must actually move the nominal times.
	if first[0].At == sim.Time(0).Add(time.Millisecond) {
		t.Error("jitter not applied")
	}
}

type fakeNIC struct {
	name             string
	flushes, resets  int
	entries, liveQPs int
}

func (n *fakeNIC) Name() string { return n.name }
func (n *fakeNIC) FlushATC() int {
	n.flushes++
	return n.entries
}
func (n *fakeNIC) ResetQPs() int {
	n.resets++
	return n.liveQPs
}

// TestNICFaults: "*" targets every registered NIC in registration
// order; a name targets exactly one.
func TestNICFaults(t *testing.T) {
	eng := sim.NewEngine(1)
	ce := New(eng, nil)
	a := &fakeNIC{name: "nic0", entries: 7, liveQPs: 3}
	b := &fakeNIC{name: "nic1", entries: 2}
	ce.RegisterNIC(a)
	ce.RegisterNIC(b)
	sc := NewScenario("nics").
		FlushATC(time.Millisecond, "*").
		ResetQPs(2*time.Millisecond, "nic0")
	if err := ce.Play(sc); err != nil {
		t.Fatal(err)
	}
	eng.RunAll()
	if a.flushes != 1 || b.flushes != 1 {
		t.Errorf("flushes = %d,%d", a.flushes, b.flushes)
	}
	if a.resets != 1 || b.resets != 0 {
		t.Errorf("resets = %d,%d", a.resets, b.resets)
	}
	log := ce.Log()
	if len(log) != 2 {
		t.Fatalf("log = %d entries", len(log))
	}
	if log[0].Detail != "flushed 9 entries" {
		t.Errorf("flush detail = %q", log[0].Detail)
	}
	if log[1].Detail != "reset 3 QPs" {
		t.Errorf("reset detail = %q", log[1].Detail)
	}
}

// TestRecoveryObserver replays a canned outage against synthetic
// counters: 1 GB/s for 2 ms, dead for 1 ms (with a retransmit burst),
// then back — and checks TTD/TTR/dip land on the sample grid.
func TestRecoveryObserver(t *testing.T) {
	eng := sim.NewEngine(1)
	const rate = 1e9 / 1e6 // bytes per microsecond at 1 GB/s
	var rx, retx uint64
	rec := NewRecovery(eng, RecoveryConfig{Period: sim.Duration(100 * time.Microsecond)})
	rec.Watch("flow", FlowSource{
		Rx:   func() uint64 { return rx },
		Retx: func() uint64 { return retx },
	})
	rec.Start()
	// Drive the counters on the same grid, just before each sample.
	step := sim.Duration(100 * time.Microsecond)
	for i := 1; i <= 50; i++ {
		at := sim.Time(0).Add(time.Duration(i)*time.Duration(step) - 1000)
		us := 100 * i
		eng.At(at, func() {
			switch {
			case us <= 2000: // healthy
				rx += uint64(100 * rate)
			case us <= 3000: // outage: nothing received, RTOs firing
				retx++
			default: // recovered
				rx += uint64(100 * rate)
			}
		})
	}
	eng.At(sim.Time(0).Add(2*time.Millisecond), rec.NoteFault)
	eng.Run(sim.Time(5 * time.Millisecond))
	rec.Stop()
	got := rec.Report()[0]
	if got.Baseline != 1e9 {
		t.Errorf("baseline = %g, want 1e9", got.Baseline)
	}
	if !got.Detected || got.TimeToDetect != sim.Duration(100*time.Microsecond) {
		t.Errorf("detected=%v ttd=%v, want first sample after fault", got.Detected, got.TimeToDetect)
	}
	if !got.Recovered || got.TimeToRecover != sim.Duration(1100*time.Microsecond) {
		t.Errorf("recovered=%v ttr=%v, want 1.1ms", got.Recovered, got.TimeToRecover)
	}
	// 1 ms at 1 GB/s fully dark ≈ 1 MB of dip.
	if got.DipBytes < 0.9e6 || got.DipBytes > 1.1e6 {
		t.Errorf("dip = %g bytes, want ≈1e6", got.DipBytes)
	}
}

// TestRecoveryNeverDipped: a flow that rides through the fault without
// leaving the settle band reports Recovered with zero TTR and no dip.
func TestRecoveryNeverDipped(t *testing.T) {
	eng := sim.NewEngine(1)
	var rx uint64
	rec := NewRecovery(eng, RecoveryConfig{Period: sim.Duration(100 * time.Microsecond)})
	rec.Watch("steady", FlowSource{
		Rx:   func() uint64 { return rx },
		Retx: func() uint64 { return 0 },
	})
	rec.Start()
	for i := 1; i <= 40; i++ {
		eng.At(sim.Time(0).Add(time.Duration(i)*100*time.Microsecond-1000), func() {
			rx += 100_000
		})
	}
	eng.At(sim.Time(0).Add(2*time.Millisecond), rec.NoteFault)
	eng.Run(sim.Time(4 * time.Millisecond))
	got := rec.Report()[0]
	if got.Detected {
		t.Error("steady flow detected a fault")
	}
	if !got.Recovered || got.TimeToRecover != 0 {
		t.Errorf("recovered=%v ttr=%v, want instant", got.Recovered, got.TimeToRecover)
	}
	if got.DipBytes != 0 {
		t.Errorf("dip = %g", got.DipBytes)
	}
}
