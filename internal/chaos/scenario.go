// Package chaos is the deterministic fabric-fault player: a Scenario is
// a declarative timeline of typed link faults — link failures at any
// tier, gray degradation (loss, latency inflation, bandwidth caps),
// whole-switch reboots, host stalls and control-plane reroutes — played
// back on the sim virtual clock by an Engine against one fabric. Every
// fault may carry seeded jitter drawn from the engine's deterministic
// RNG, so the same scenario + seed reproduces the same failure timeline
// byte-for-byte. Faults that are not link state, such as a NIC's QP
// reset, are scheduled by their experiment on the sim engine directly.
// The Recovery observer watches transport counters through the faults
// and reports per-flow time-to-detect, time-to-recover, goodput-dip area
// and stalls.
//
// Scenarios are built either with the fluent Go API:
//
//	sc := chaos.NewScenario("gray-uplink").
//		Gray(4*time.Millisecond, fabric.Uplink(0, 0),
//			chaos.GraySpec{Loss: 0.02}, 10*time.Millisecond).
//		SwitchReboot(20*time.Millisecond, fabric.SwitchAgg, 0, 5*time.Millisecond)
//
// or loaded from JSON (stdlib only; durations are Go duration strings):
//
//	{"name": "gray-uplink", "events": [
//	  {"at": "4ms", "kind": "gray", "link": {"tier": "tor-agg", "dir": "up"},
//	   "loss": 0.02, "for": "10ms"},
//	  {"at": "20ms", "kind": "switch-reboot", "switch": "agg", "index": 0,
//	   "for": "5ms"}]}
package chaos

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"time"

	"repro/internal/fabric"
)

// Kind names a fault type.
type Kind string

// The fault taxonomy. A non-zero For clears a fault that long after it
// is injected; For is the only way to schedule a clear.
const (
	// LinkDown blackholes a link (Link).
	LinkDown Kind = "link-down"
	// Gray degrades a link without killing it: Loss, Delay and BWFactor
	// combine.
	Gray Kind = "gray"
	// SwitchReboot takes every link incident to one switch (Switch +
	// Index) down.
	SwitchReboot Kind = "switch-reboot"
	// HostStall blackholes one host's access links — a wedged host
	// whose NIC stops serving traffic.
	HostStall Kind = "host-stall"
	// Reroute is §7.2's second recovery stage: the control plane
	// withdraws a ToR→Agg uplink (Link) and steers its traffic to the
	// next aggregation switch. The link's Down and gray state stay as
	// they are.
	Reroute Kind = "reroute"
)

// ErrNoTarget is returned by Load for a scenario-file event whose kind
// needs a target the event does not name: "link" for link-down, gray
// and reroute, "switch" for switch-reboot. Left out, the target would
// silently default to host 0's uplink or ToR 0.
var ErrNoTarget = errors.New("chaos: fault names no target")

// GraySpec parameterises a gray degradation.
type GraySpec struct {
	// Loss is the random drop probability.
	Loss float64
	// Delay inflates per-hop propagation latency.
	Delay time.Duration
	// BWFactor in (0,1) caps the link to that fraction of capacity.
	BWFactor float64
}

// Event is one scheduled fault on a scenario timeline.
type Event struct {
	// At is the nominal offset from playback start.
	At time.Duration
	// Jitter widens At by a uniform draw in [0, Jitter) from the chaos
	// engine's seeded RNG — deterministic per scenario position.
	Jitter time.Duration
	// For clears the fault this long after it is injected.
	For time.Duration
	// Kind selects the fault type.
	Kind Kind

	// Link addresses the target for LinkDown, Gray and Reroute (a
	// ToR→Agg uplink). HostStall addresses by Host below.
	Link fabric.LinkRef
	// Gray carries the degradation parameters for Gray.
	Gray GraySpec
	// Switch/Index address a whole switch for SwitchReboot.
	Switch fabric.SwitchKind
	Index  int
	// Host addresses a host for HostStall.
	Host int
}

// eventJSON is the wire form: durations as Go duration strings, gray
// parameters flattened.
type eventJSON struct {
	At     string          `json:"at"`
	Jitter string          `json:"jitter,omitempty"`
	For    string          `json:"for,omitempty"`
	Kind   Kind            `json:"kind"`
	Link   *fabric.LinkRef `json:"link,omitempty"`
	Loss   float64         `json:"loss,omitempty"`
	Delay  string          `json:"delay,omitempty"`
	BW     float64         `json:"bw_factor,omitempty"`
	Switch string          `json:"switch,omitempty"`
	Index  int             `json:"index,omitempty"`
	Host   int             `json:"host,omitempty"`
}

func parseDur(field, s string) (time.Duration, error) {
	if s == "" {
		return 0, nil
	}
	d, err := time.ParseDuration(s)
	if err != nil {
		return 0, fmt.Errorf("chaos: bad %s duration %q: %v", field, s, err)
	}
	return d, nil
}

// UnmarshalJSON decodes the scenario-file form.
func (e *Event) UnmarshalJSON(b []byte) error {
	var j eventJSON
	if err := json.Unmarshal(b, &j); err != nil {
		return err
	}
	var err error
	if e.At, err = parseDur("at", j.At); err != nil {
		return err
	}
	if e.Jitter, err = parseDur("jitter", j.Jitter); err != nil {
		return err
	}
	if e.For, err = parseDur("for", j.For); err != nil {
		return err
	}
	if e.Gray.Delay, err = parseDur("delay", j.Delay); err != nil {
		return err
	}
	e.Kind = j.Kind
	switch {
	case j.Link == nil && (e.Kind == LinkDown || e.Kind == Gray || e.Kind == Reroute):
		return fmt.Errorf("%w: %s event at %v needs \"link\"", ErrNoTarget, e.Kind, e.At)
	case j.Switch == "" && e.Kind == SwitchReboot:
		return fmt.Errorf("%w: %s event at %v needs \"switch\"", ErrNoTarget, e.Kind, e.At)
	}
	if j.Link != nil {
		e.Link = *j.Link
	}
	e.Gray.Loss = j.Loss
	e.Gray.BWFactor = j.BW
	if j.Switch != "" {
		if e.Switch, err = fabric.ParseSwitchKind(j.Switch); err != nil {
			return err
		}
	}
	e.Index, e.Host = j.Index, j.Host
	return nil
}

// validate rejects malformed events before anything is scheduled.
func (e Event) validate() error {
	switch e.Kind {
	case LinkDown, Gray, SwitchReboot, HostStall, Reroute:
	case "":
		return fmt.Errorf("chaos: event at %v has no kind", e.At)
	default:
		return fmt.Errorf("chaos: unknown fault kind %q", e.Kind)
	}
	if e.At < 0 || e.Jitter < 0 || e.For < 0 {
		return fmt.Errorf("chaos: %s: negative time", e.Kind)
	}
	if e.Jitter > math.MaxInt64-e.At || e.For > math.MaxInt64-e.At-e.Jitter {
		return fmt.Errorf("chaos: %s: at+jitter+for overflows virtual time", e.Kind)
	}
	if e.Kind == Reroute && (e.Link.Tier != fabric.TierTorAgg || e.Link.Dir != fabric.DirUp) {
		return fmt.Errorf("chaos: %s event at %v: %s is not a ToR→Agg uplink", e.Kind, e.At, e.Link)
	}
	if e.Kind == Gray && e.Gray.Loss == 0 && e.Gray.Delay == 0 && (e.Gray.BWFactor == 0 || e.Gray.BWFactor == 1) {
		return fmt.Errorf("chaos: gray event at %v degrades nothing", e.At)
	}
	gray := fabric.Fault{DropProb: e.Gray.Loss, ExtraDelay: e.Gray.Delay, BWFactor: e.Gray.BWFactor}
	if err := gray.Validate(); err != nil {
		return fmt.Errorf("chaos: %s event at %v: %w", e.Kind, e.At, err)
	}
	return nil
}

// Scenario is a named, ordered fault timeline.
type Scenario struct {
	Name   string  `json:"name"`
	Events []Event `json:"events"`
}

// NewScenario starts an empty scenario.
func NewScenario(name string) *Scenario { return &Scenario{Name: name} }

// Add appends one event.
func (s *Scenario) Add(e Event) *Scenario {
	s.Events = append(s.Events, e)
	return s
}

// LinkDown fails one link at the offset; dur > 0 repairs it after dur.
func (s *Scenario) LinkDown(at time.Duration, ref fabric.LinkRef, dur time.Duration) *Scenario {
	return s.Add(Event{At: at, Kind: LinkDown, Link: ref, For: dur})
}

// Gray degrades one link at the offset; dur > 0 clears it after dur.
func (s *Scenario) Gray(at time.Duration, ref fabric.LinkRef, g GraySpec, dur time.Duration) *Scenario {
	return s.Add(Event{At: at, Kind: Gray, Link: ref, Gray: g, For: dur})
}

// SwitchReboot takes a whole switch down for dur at the offset.
func (s *Scenario) SwitchReboot(at time.Duration, kind fabric.SwitchKind, index int, dur time.Duration) *Scenario {
	return s.Add(Event{At: at, Kind: SwitchReboot, Switch: kind, Index: index, For: dur})
}

// HostStall blackholes one host's access links for dur at the offset.
func (s *Scenario) HostStall(at time.Duration, host int, dur time.Duration) *Scenario {
	return s.Add(Event{At: at, Kind: HostStall, Host: host, For: dur})
}

// Reroute withdraws a ToR→Agg uplink from routing at the offset; dur > 0
// restores its route after dur.
func (s *Scenario) Reroute(at time.Duration, ref fabric.LinkRef, dur time.Duration) *Scenario {
	return s.Add(Event{At: at, Kind: Reroute, Link: ref, For: dur})
}

// Validate checks every event without binding to a topology.
func (s *Scenario) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("chaos: scenario has no name")
	}
	for i, e := range s.Events {
		if err := e.validate(); err != nil {
			return fmt.Errorf("event %d: %w", i, err)
		}
	}
	return nil
}

// Load parses a scenario from JSON.
func Load(b []byte) (*Scenario, error) {
	var s Scenario
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("chaos: parsing scenario: %w", err)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// LoadFile reads and parses a scenario file.
func LoadFile(path string) (*Scenario, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("chaos: %w", err)
	}
	return Load(b)
}
