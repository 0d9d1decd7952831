package chaos

import (
	"errors"
	"math"
	"reflect"
	"strings"
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
	return NewScenario("sample").
		LinkDown(time.Millisecond, fabric.Uplink(0, 1), 2*time.Millisecond).
		Gray(2*time.Millisecond, fabric.Downlink(1, 2),
			GraySpec{Loss: 0.05, Delay: 10 * time.Microsecond, BWFactor: 0.5}, time.Millisecond).
		SwitchReboot(4*time.Millisecond, fabric.SwitchAgg, 3, time.Millisecond).
		HostStall(5*time.Millisecond, 2, time.Millisecond).
		Reroute(6*time.Millisecond, fabric.Uplink(0, 0), 2*time.Millisecond)
}

// record collects every firing the engine applies, in order.
func record(ce *Engine) *[]Firing {
	var log []Firing
	ce.Subscribe(func(f Firing) { log = append(log, f) })
	return &log
}

// TestScenarioJSONRoundTrip: a scenario file must load to exactly the
// scenario the builder makes (jitter, gray parameters, switch kinds and
// link references included).
func TestScenarioJSONRoundTrip(t *testing.T) {
	b := []byte(`{"name": "sample", "events": [
	  {"at": "1ms", "jitter": "100us", "kind": "link-down",
	   "link": {"tier": "tor-agg", "dir": "up", "agg": 1}, "for": "2ms"},
	  {"at": "2ms", "kind": "gray", "link": {"tier": "tor-agg", "dir": "down", "segment": 1, "agg": 2},
	   "loss": 0.05, "delay": "10us", "bw_factor": 0.5, "for": "1ms"},
	  {"at": "4ms", "kind": "switch-reboot", "switch": "agg", "index": 3, "for": "1ms"},
	  {"at": "5ms", "kind": "host-stall", "host": 2, "for": "1ms"},
	  {"at": "6ms", "kind": "reroute", "link": {"tier": "tor-agg", "dir": "up"}, "for": "2ms"}]}`)
	got, err := Load(b)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	want := sampleScenario()
	want.Events[0].Jitter = 100 * time.Microsecond
	if !reflect.DeepEqual(got, want) {
		t.Errorf("loaded scenario differs from the builder's:\n %+v\nvs %+v", got, want)
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
		{"loss NaN", NewScenario("x").Gray(0, fabric.Uplink(0, 0), GraySpec{Loss: math.NaN()}, 0)},
		{"negative gray delay", NewScenario("x").Gray(0, fabric.Uplink(0, 0), GraySpec{Delay: -3 * time.Millisecond}, 0)},
		{"bw_factor below the floor", NewScenario("x").Gray(0, fabric.Uplink(0, 0), GraySpec{BWFactor: 1e-300}, 0)},
		{"delay past the ceiling", NewScenario("x").Gray(0, fabric.Uplink(0, 0), GraySpec{Delay: math.MaxInt64}, 0)},
		{"reroute of a downlink", NewScenario("x").Reroute(0, fabric.Downlink(0, 0), 0)},
		{"reroute of a host link", NewScenario("x").Reroute(0, fabric.HostLink(0, fabric.DirUp), 0)},
		{"removed kind", NewScenario("x").Add(Event{Kind: "repair"})},
		{"removed NIC kind", NewScenario("x").Add(Event{Kind: "nic-reset-qps"})},
	}
	for _, c := range cases {
		if err := c.sc.Validate(); err == nil {
			t.Errorf("%s: validated", c.name)
		}
	}
	// A QP reset is no fabric fault: a scenario file naming one fails
	// to load as an unknown kind.
	b := []byte(`{"name": "x", "events": [{"at": "1ms", "kind": "nic-reset-qps", "nic": "*"}]}`)
	if _, err := Load(b); err == nil || !strings.Contains(err.Error(), "unknown fault kind") {
		t.Errorf("nic-reset-qps file: err = %v, want an unknown fault kind", err)
	}
	if err := sampleScenario().Validate(); err != nil {
		t.Errorf("sample scenario rejected: %v", err)
	}
}

// TestLoadRejectsNegativeGrayDelay: a scenario file whose gray fault
// would shorten propagation delay must fail to load, not crash the run
// at playback (the fabric refuses the fault, and a negative delay would
// schedule events in the past).
func TestLoadRejectsNegativeGrayDelay(t *testing.T) {
	b := []byte(`{"name": "x", "events": [{"at": "1ms", "kind": "gray",
		"link": {"tier": "tor-agg", "dir": "up"}, "delay": "-3ms"}]}`)
	if _, err := Load(b); err == nil {
		t.Fatal("scenario with a negative gray delay loaded")
	}
}

// TestLoadRejectsOverflowingOffsets: an event whose fault or clear
// time lies past the end of virtual time must fail to load, not wrap
// negative and crash the run at playback.
func TestLoadRejectsOverflowingOffsets(t *testing.T) {
	b := []byte(`{"name": "x", "events": [{"at": "2000000h", "for": "2000000h",
		"kind": "link-down", "link": {"tier": "tor-agg", "dir": "up"}}]}`)
	if _, err := Load(b); err == nil {
		t.Error("at+for past the end of virtual time loaded")
	}
	near := time.Duration(math.MaxInt64 - 10)
	if err := NewScenario("x").Add(Event{At: near, Jitter: time.Second, Kind: LinkDown}).Validate(); err == nil {
		t.Error("at+jitter past the end of virtual time validated")
	}
	if err := NewScenario("x").Add(Event{At: near, Kind: LinkDown}).Validate(); err != nil {
		t.Errorf("offset at the end of virtual time rejected: %v", err)
	}
}

// TestLoadRejectsUntargetedFaults: a scenario-file fault that needs a
// link or a switch and names none must fail to load, not default to
// host 0's uplink or ToR 0.
func TestLoadRejectsUntargetedFaults(t *testing.T) {
	for _, ev := range []string{
		`{"at": "1ms", "kind": "link-down"}`,
		`{"at": "1ms", "kind": "gray", "loss": 0.1}`,
		`{"at": "1ms", "kind": "switch-reboot", "index": 3, "for": "1ms"}`,
		`{"at": "1ms", "kind": "reroute", "for": "1ms"}`,
	} {
		b := []byte(`{"name": "x", "events": [` + ev + `]}`)
		if _, err := Load(b); !errors.Is(err, ErrNoTarget) {
			t.Errorf("%s: err = %v, want ErrNoTarget", ev, err)
		}
	}
}

// TestPlayRejectsOverflowPastNow: a valid offset that only overflows
// once added to the current virtual time is rejected by Play.
func TestPlayRejectsOverflowPastNow(t *testing.T) {
	eng := sim.NewEngine(1)
	eng.After(time.Millisecond, func() {})
	eng.RunAll()
	ce := New(eng, testFabric(eng))
	log := record(ce)
	sc := NewScenario("late").LinkDown(time.Duration(math.MaxInt64-int64(time.Microsecond)), fabric.Uplink(0, 0), 0)
	if err := ce.Play(sc); err == nil {
		t.Fatal("offset past the end of virtual time played")
	}
	eng.RunAll()
	if len(*log) != 0 {
		t.Error("rejected scenario fired")
	}
}

// TestPlayRejectsUnboundTargets: Play must fail up front — before
// scheduling anything — when the scenario addresses links, switches or
// hosts the bound topology does not have.
func TestPlayRejectsUnboundTargets(t *testing.T) {
	eng := sim.NewEngine(1)
	ce := New(eng, testFabric(eng))
	log := record(ce)
	for _, sc := range []*Scenario{
		NewScenario("bad-link").LinkDown(0, fabric.Uplink(0, 99), 0),
		NewScenario("bad-switch").SwitchReboot(0, fabric.SwitchCore, 0, time.Millisecond), // no core tier
		NewScenario("bad-host").HostStall(0, 99, time.Millisecond),
		// A valid first event does not schedule when a later one fails.
		NewScenario("late-bad-link").LinkDown(0, fabric.Uplink(0, 0), 0).Gray(0, fabric.Downlink(9, 0), GraySpec{Loss: 0.1}, 0),
	} {
		if err := ce.Play(sc); err == nil {
			t.Errorf("%s: played", sc.Name)
		}
	}
	eng.RunAll()
	if len(*log) != 0 {
		t.Error("rejected scenarios fired")
	}
}

// TestPlaybackAppliesAndClears drives one of each fabric fault kind
// through the engine and checks the fabric state flips down and back up
// at the scheduled times.
func TestPlaybackAppliesAndClears(t *testing.T) {
	eng := sim.NewEngine(1)
	f := testFabric(eng)
	ce := New(eng, f)
	log := record(ce)
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
	injected := 0
	for _, f := range *log {
		if f.Phase == PhaseInject && f.Event.Kind == LinkDown {
			injected++
		}
	}
	if injected != 1 {
		t.Errorf("link-down injections = %d, want 1", injected)
	}
	// 4 injections + 4 auto-clears.
	if got := len(*log); got != 8 {
		t.Errorf("firings = %d, want 8", got)
	}
}

// TestRerouteSteersThenRestores: a reroute withdraws the uplink from
// routing for For and then restores it, leaving the link's Down bit to
// the link-down event. Both phases of each fire, and only the link-down
// firings name the link as taken down.
func TestRerouteSteersThenRestores(t *testing.T) {
	eng := sim.NewEngine(1)
	f := testFabric(eng)
	ce := New(eng, f)
	log := record(ce)
	up := fabric.Uplink(0, 1)
	sc := NewScenario("reroute").
		LinkDown(time.Millisecond, up, 3*time.Millisecond).
		Reroute(2*time.Millisecond, up, time.Millisecond)
	if err := ce.Play(sc); err != nil {
		t.Fatal(err)
	}
	state := func(until time.Duration) fabric.Fault {
		eng.Run(sim.Time(until))
		ft, err := f.FaultOf(up)
		if err != nil {
			t.Fatal(err)
		}
		return ft
	}
	delivered := 0
	f.Handle(5, func(*fabric.Packet) { delivered++ })
	send := func() {
		if err := f.Send(&fabric.Packet{Src: 0, Dst: 5, Size: 100, PathID: 1}); err != nil {
			t.Fatal(err)
		}
	}
	for _, step := range []struct {
		until     time.Duration
		want      fabric.Fault
		delivered int
	}{
		{1500 * time.Microsecond, fabric.Fault{Down: true}, 0},
		{2500 * time.Microsecond, fabric.Fault{Down: true, Withdrawn: true}, 1},
		{3500 * time.Microsecond, fabric.Fault{Down: true}, 1},
		{4500 * time.Microsecond, fabric.Fault{}, 2},
	} {
		if got := state(step.until); got != step.want {
			t.Errorf("at %v: fault = %+v, want %+v", step.until, got, step.want)
		}
		send()
		eng.Run(sim.Time(step.until + 100*time.Microsecond))
		if delivered != step.delivered {
			t.Errorf("at %v: delivered %d, want %d", step.until, delivered, step.delivered)
		}
	}
	type firing struct {
		kind  Kind
		phase Phase
		links []fabric.LinkRef
	}
	var got []firing
	for _, fr := range *log {
		got = append(got, firing{fr.Event.Kind, fr.Phase, fr.Links})
	}
	want := []firing{
		{LinkDown, PhaseInject, []fabric.LinkRef{up}},
		{Reroute, PhaseInject, nil},
		{Reroute, PhaseClear, nil},
		{LinkDown, PhaseClear, []fabric.LinkRef{up}},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("firings = %+v, want %+v", got, want)
	}
}

// TestOverlappingFaultsHoldLink: a link two faults hold down comes back
// only when the last of them clears. The switch reboot's clear must not
// restore the uplink the longer link-down still holds, and the firings
// name only the links whose Down bit flipped.
func TestOverlappingFaultsHoldLink(t *testing.T) {
	eng := sim.NewEngine(1)
	f := testFabric(eng)
	ce := New(eng, f)
	log := record(ce)
	up := fabric.Uplink(0, 1)
	sc := NewScenario("overlap").
		LinkDown(time.Millisecond, up, 10*time.Millisecond).
		SwitchReboot(2*time.Millisecond, fabric.SwitchAgg, 1, time.Millisecond)
	if err := ce.Play(sc); err != nil {
		t.Fatal(err)
	}
	down := func(ref fabric.LinkRef) bool {
		ft, err := f.FaultOf(ref)
		if err != nil {
			t.Fatal(err)
		}
		return ft.Down
	}
	for _, step := range []struct {
		until           time.Duration
		upDown, sibDown bool
	}{
		{2500 * time.Microsecond, true, true},
		{5 * time.Millisecond, true, false},
		{12 * time.Millisecond, false, false},
	} {
		eng.Run(sim.Time(step.until))
		if got := down(up); got != step.upDown {
			t.Errorf("at %v: %v Down = %v, want %v", step.until, up, got, step.upDown)
		}
		if got := down(fabric.Uplink(1, 1)); got != step.sibDown {
			t.Errorf("at %v: %v Down = %v, want %v", step.until, fabric.Uplink(1, 1), got, step.sibDown)
		}
	}
	agg, err := f.SwitchLinks(fabric.SwitchAgg, 1)
	if err != nil {
		t.Fatal(err)
	}
	var others []fabric.LinkRef
	for _, ref := range agg {
		if ref != up {
			others = append(others, ref)
		}
	}
	if len(*log) != 4 {
		t.Fatalf("firings = %d, want 4", len(*log))
	}
	for i, want := range [][]fabric.LinkRef{{up}, others, others, {up}} {
		if got := (*log)[i].Links; !reflect.DeepEqual(got, want) {
			t.Errorf("firing %d (%s %s): links = %v, want %v",
				i, (*log)[i].Event.Kind, (*log)[i].Phase, got, want)
		}
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
		log := record(ce)
		sc := NewScenario("jittered").
			LinkDown(time.Millisecond, fabric.Uplink(0, 1), time.Millisecond).
			SwitchReboot(2*time.Millisecond, fabric.SwitchToR, 1, time.Millisecond).
			HostStall(3*time.Millisecond, 5, time.Millisecond).
			Reroute(4*time.Millisecond, fabric.Uplink(0, 2), 2*time.Millisecond)
		for i := range sc.Events {
			sc.Events[i].Jitter = 300 * time.Microsecond
		}
		if err := ce.Play(sc); err != nil {
			t.Fatal(err)
		}
		eng.RunAll()
		return *log
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

// TestRecoveryObserver replays a canned outage against synthetic
// counters: 1 GB/s for 2 ms, dead for 1 ms (with a retransmit burst),
// then back — and checks TTD/TTR/dip land on the sample grid.
func TestRecoveryObserver(t *testing.T) {
	eng := sim.NewEngine(1)
	const rate = 1e9 / 1e6 // bytes per microsecond at 1 GB/s
	var rx, retx uint64
	rec := NewRecovery(eng)
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
	rec := NewRecovery(eng)
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
