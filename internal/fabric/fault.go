package fabric

// Generalized link-fault model. Every fault the simulator can express —
// full link failure, random loss, latency inflation, bandwidth capping,
// and the control plane withdrawing a dead uplink from routing — is a
// per-link Fault applied through SetFault, at any tier of the topology
// (host↔ToR, ToR↔Agg, Agg↔Core). SetFault is the only path that changes
// a link's fault or routing state: a fault that holds for the whole run
// is a SetFault call before it starts, and a timed fault is an
// internal/chaos event, which calls SetFault when it fires.

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/sim"
	"repro/internal/trace"
)

// Tier identifies a layer of links in the Clos topology.
type Tier uint8

// The three link tiers.
const (
	// TierHost is a host↔ToR access link.
	TierHost Tier = iota
	// TierTorAgg is a ToR↔Agg fabric link.
	TierTorAgg
	// TierAggCore is an Agg↔Core escape link (multi-pod topologies).
	TierAggCore
)

// String names the tier as accepted by ParseTier.
func (t Tier) String() string {
	switch t {
	case TierHost:
		return "host"
	case TierTorAgg:
		return "tor-agg"
	case TierAggCore:
		return "agg-core"
	default:
		return fmt.Sprintf("Tier(%d)", uint8(t))
	}
}

// UnmarshalText decodes the tier from JSON scenario files.
func (t *Tier) UnmarshalText(b []byte) error {
	v, err := ParseTier(string(b))
	if err != nil {
		return err
	}
	*t = v
	return nil
}

// ParseTier parses "host", "tor-agg" or "agg-core".
func ParseTier(s string) (Tier, error) {
	switch s {
	case "host":
		return TierHost, nil
	case "tor-agg":
		return TierTorAgg, nil
	case "agg-core":
		return TierAggCore, nil
	}
	return 0, fmt.Errorf("fabric: unknown tier %q (want host, tor-agg or agg-core)", s)
}

// Dir identifies the direction of a unidirectional link within its tier:
// DirUp points away from hosts (host→ToR, ToR→Agg, Agg→Core), DirDown
// toward them.
type Dir uint8

// Link directions.
const (
	DirUp Dir = iota
	DirDown
)

// String names the direction as accepted by ParseDir.
func (d Dir) String() string {
	if d == DirDown {
		return "down"
	}
	return "up"
}

// UnmarshalText decodes the direction from JSON scenario files.
func (d *Dir) UnmarshalText(b []byte) error {
	v, err := ParseDir(string(b))
	if err != nil {
		return err
	}
	*d = v
	return nil
}

// ParseDir parses "up" or "down".
func ParseDir(s string) (Dir, error) {
	switch s {
	case "up":
		return DirUp, nil
	case "down":
		return DirDown, nil
	}
	return 0, fmt.Errorf("fabric: unknown direction %q (want up or down)", s)
}

// LinkRef addresses one unidirectional link. Which index fields are
// meaningful depends on the tier: Host for TierHost, Segment+Agg for
// TierTorAgg, Pod+Agg+Core for TierAggCore.
type LinkRef struct {
	Tier Tier `json:"tier"`
	Dir  Dir  `json:"dir"`

	Host    int `json:"host,omitempty"`
	Segment int `json:"segment,omitempty"`
	Agg     int `json:"agg,omitempty"`
	Pod     int `json:"pod,omitempty"`
	Core    int `json:"core,omitempty"`
}

// HostLink addresses host h's access link in the given direction.
func HostLink(h HostID, dir Dir) LinkRef {
	return LinkRef{Tier: TierHost, Dir: dir, Host: int(h)}
}

// Uplink addresses the ToR→Agg uplink of a segment: the link the
// loss and failure experiments fault, and the only link a Fault can
// mark Withdrawn.
func Uplink(segment, agg int) LinkRef {
	return LinkRef{Tier: TierTorAgg, Dir: DirUp, Segment: segment, Agg: agg}
}

// Downlink addresses the Agg→ToR downlink of a segment.
func Downlink(segment, agg int) LinkRef {
	return LinkRef{Tier: TierTorAgg, Dir: DirDown, Segment: segment, Agg: agg}
}

// CoreLink addresses an Agg↔Core escape link (DirUp is Agg→Core).
func CoreLink(pod, agg, core int, dir Dir) LinkRef {
	return LinkRef{Tier: TierAggCore, Dir: dir, Pod: pod, Agg: agg, Core: core}
}

// String renders the reference for error messages and logs.
func (r LinkRef) String() string {
	switch r.Tier {
	case TierHost:
		return fmt.Sprintf("host/%s/h%d", r.Dir, r.Host)
	case TierTorAgg:
		return fmt.Sprintf("tor-agg/%s/s%d-a%d", r.Dir, r.Segment, r.Agg)
	default:
		return fmt.Sprintf("agg-core/%s/p%d-a%d-c%d", r.Dir, r.Pod, r.Agg, r.Core)
	}
}

// Fault is the complete degraded state of one link. The zero value is a
// healthy link. Down blackholes every packet; DropProb drops a random
// fraction; ExtraDelay inflates propagation latency; BWFactor in (0,1)
// caps the serialisation rate to that fraction of capacity (0 and 1 both
// mean full rate). Gray failures combine those three. Withdrawn, on a
// ToR→Agg uplink only, says the control plane has steered the uplink's
// traffic to the next aggregation switch (§7.2's second recovery stage,
// after the RTO has already repathed around the dead link).
type Fault struct {
	Down       bool
	DropProb   float64
	ExtraDelay sim.Duration
	BWFactor   float64
	Withdrawn  bool
}

// The fault domain's bounds, which keep every hop's departure time far
// inside virtual time. A hop departs after its queue wait, serialisation
// and propagation; virtual time is int64 nanoseconds and spans 292
// years.
const (
	// MinBWFactor is the smallest bandwidth cap. Every link the model
	// builds runs at 50 GB/s (tests use 1 GB/s), so a capped link still
	// moves at least 1 kB/s: a maximal 4 GiB packet serialises in under
	// two months, and the queue limit bounds the wait ahead of it by the
	// same rate. An unbounded factor such as 1e-300 makes the
	// serialisation time overflow to a departure before now.
	MinBWFactor = 1e-6
	// MaxExtraDelay is the largest latency inflation, an hour per hop:
	// added to the worst serialisation above it still leaves a hop
	// centuries short of the end of virtual time.
	MaxExtraDelay = sim.Duration(time.Hour)
)

// ErrBadFault is returned by SetFault for a fault outside its domain
// (see Fault.Validate) or for Withdrawn on a link other than a ToR→Agg
// uplink.
var ErrBadFault = errors.New("fabric: bad fault")

// Validate checks a fault against its domain: DropProb in [0,1],
// BWFactor 0 or in [MinBWFactor,1], and ExtraDelay in [0,MaxExtraDelay]
// (faults only ever add delay, which is what makes LinkDelay a safe
// cross-shard lookahead). The error wraps ErrBadFault.
func (ft Fault) Validate() error {
	switch {
	case !(ft.DropProb >= 0 && ft.DropProb <= 1):
		return fmt.Errorf("%w: drop probability %v outside [0,1]", ErrBadFault, ft.DropProb)
	case !(ft.BWFactor == 0 || ft.BWFactor >= MinBWFactor && ft.BWFactor <= 1):
		return fmt.Errorf("%w: bandwidth factor %v outside [%v,1]", ErrBadFault, ft.BWFactor, MinBWFactor)
	case ft.ExtraDelay < 0 || ft.ExtraDelay > MaxExtraDelay:
		return fmt.Errorf("%w: extra delay %v outside [0,%v]", ErrBadFault, ft.ExtraDelay, MaxExtraDelay)
	}
	return nil
}

// linkAt resolves a reference to a link id, validating tier bounds.
func (f *Fabric) linkAt(ref LinkRef) (int32, error) {
	switch ref.Tier {
	case TierHost:
		if ref.Host < 0 || ref.Host >= len(f.hostAt) {
			return 0, fmt.Errorf("%w: %s", ErrBadHost, ref)
		}
		if ref.Dir == DirUp {
			return hostUp(HostID(ref.Host)), nil
		}
		return hostDown(HostID(ref.Host)), nil
	case TierTorAgg:
		if ref.Segment < 0 || ref.Segment >= f.cfg.Segments || ref.Agg < 0 || ref.Agg >= f.cfg.Aggs {
			return 0, fmt.Errorf("fabric: no such link %s", ref)
		}
		if ref.Dir == DirUp {
			return f.torUp[ref.Segment][ref.Agg], nil
		}
		return f.torDown[ref.Segment][ref.Agg], nil
	case TierAggCore:
		if f.pods <= 1 {
			return 0, fmt.Errorf("fabric: %s: topology has no core layer", ref)
		}
		if ref.Pod < 0 || ref.Pod >= f.pods || ref.Agg < 0 || ref.Agg >= f.cfg.Aggs ||
			ref.Core < 0 || ref.Core >= f.cores {
			return 0, fmt.Errorf("fabric: no such link %s", ref)
		}
		if ref.Dir == DirUp {
			return f.aggUp[ref.Pod][ref.Agg][ref.Core], nil
		}
		return f.coreDown[ref.Pod][ref.Agg][ref.Core], nil
	}
	return 0, fmt.Errorf("fabric: unknown tier %d", ref.Tier)
}

// SetFault installs the full fault state on one link, replacing whatever
// was there (read-modify-write via FaultOf to change one knob), and
// keeps the uplink's route in step with Withdrawn: SetFault(ref,
// Fault{}) restores both the link and its route. State transitions are
// recorded on the flight recorder as "link-fail" and "link-restore",
// "link-gray"/"link-clear" for degradations, and "bgp-reroute" and
// "bgp-restore" when Withdrawn flips. A fault outside its domain is
// refused with ErrBadFault and changes nothing.
func (f *Fabric) SetFault(ref LinkRef, ft Fault) error {
	if err := ft.Validate(); err != nil {
		return fmt.Errorf("%w: %s", err, ref)
	}
	if ft.Withdrawn && (ref.Tier != TierTorAgg || ref.Dir != DirUp) {
		return fmt.Errorf("%w: %s: only a ToR→Agg uplink can be withdrawn", ErrBadFault, ref)
	}
	id, err := f.linkAt(ref)
	if err != nil {
		return err
	}
	l, c := &f.links[id], &f.cold[id]
	prev := c.fault
	c.fault = ft
	l.faulty = ft.Down || ft.DropProb > 0
	l.rate = c.capacity
	if ft.BWFactor > 0 && ft.BWFactor < 1 {
		l.rate = c.capacity * ft.BWFactor
	}
	l.delay = f.cfg.LinkDelay + ft.ExtraDelay
	if ft.Withdrawn != prev.Withdrawn {
		via, name := ref.Agg, "bgp-restore"
		if ft.Withdrawn {
			via, name = (ref.Agg+1)%f.cfg.Aggs, "bgp-reroute"
		}
		f.aggOverride[ref.Segment][ref.Agg] = via
		if tr := f.eng.Tracer(); tr.Enabled() {
			tr.Instant("fabric", "fabric", "fault", name, trace.S("link", c.name), trace.I("via", int64(via)))
		}
	}
	if tr := f.eng.Tracer(); tr.Enabled() {
		grayPrev := prev.DropProb != 0 || prev.ExtraDelay != 0 || !(prev.BWFactor == 0 || prev.BWFactor == 1)
		grayNow := ft.DropProb != 0 || ft.ExtraDelay != 0 || !(ft.BWFactor == 0 || ft.BWFactor == 1)
		switch {
		case !prev.Down && ft.Down:
			tr.Instant("fabric", "fabric", "fault", "link-fail", trace.S("link", c.name))
		case prev.Down && !ft.Down:
			tr.Instant("fabric", "fabric", "fault", "link-restore", trace.S("link", c.name))
		}
		switch {
		case grayNow:
			tr.Instant("fabric", "fabric", "fault", "link-gray",
				trace.S("link", c.name), trace.F("drop", ft.DropProb),
				trace.D("extra-delay", ft.ExtraDelay), trace.F("bw-factor", ft.BWFactor))
		case grayPrev:
			tr.Instant("fabric", "fabric", "fault", "link-clear", trace.S("link", c.name))
		}
	}
	return nil
}

// FaultOf reads the current fault and routing state of one link.
func (f *Fabric) FaultOf(ref LinkRef) (Fault, error) {
	id, err := f.linkAt(ref)
	if err != nil {
		return Fault{}, err
	}
	return f.cold[id].fault, nil
}

// StatsOf reads one link's counters, at any tier — the observable the
// drop-accounting tests and the chaos recovery observer read.
func (f *Fabric) StatsOf(ref LinkRef) (LinkStats, error) {
	id, err := f.linkAt(ref)
	if err != nil {
		return LinkStats{}, err
	}
	return f.stats(id), nil
}

// SwitchKind identifies a switch for whole-switch fault enumeration.
type SwitchKind uint8

// Switch kinds.
const (
	// SwitchToR indexes by segment.
	SwitchToR SwitchKind = iota
	// SwitchAgg indexes by aggregation switch (spans all segments/pods).
	SwitchAgg
	// SwitchCore indexes by core switch.
	SwitchCore
)

// String names the switch kind as accepted by ParseSwitchKind.
func (k SwitchKind) String() string {
	switch k {
	case SwitchToR:
		return "tor"
	case SwitchAgg:
		return "agg"
	case SwitchCore:
		return "core"
	default:
		return fmt.Sprintf("SwitchKind(%d)", uint8(k))
	}
}

// ParseSwitchKind parses "tor", "agg" or "core".
func ParseSwitchKind(s string) (SwitchKind, error) {
	switch s {
	case "tor":
		return SwitchToR, nil
	case "agg":
		return SwitchAgg, nil
	case "core":
		return SwitchCore, nil
	}
	return 0, fmt.Errorf("fabric: unknown switch kind %q (want tor, agg or core)", s)
}

// SwitchLinks enumerates every link incident to one switch — the set a
// whole-switch reboot takes down. A ToR's set includes the access links
// of its hosts; an Agg's set spans all segments and (multi-pod) its core
// attachments; a Core's set spans all pods and aggs.
func (f *Fabric) SwitchLinks(kind SwitchKind, index int) ([]LinkRef, error) {
	var refs []LinkRef
	switch kind {
	case SwitchToR:
		if index < 0 || index >= f.cfg.Segments {
			return nil, fmt.Errorf("fabric: no ToR %d", index)
		}
		for h := index * f.cfg.HostsPerSegment; h < (index+1)*f.cfg.HostsPerSegment; h++ {
			refs = append(refs, HostLink(HostID(h), DirUp), HostLink(HostID(h), DirDown))
		}
		for a := 0; a < f.cfg.Aggs; a++ {
			refs = append(refs, Uplink(index, a), Downlink(index, a))
		}
	case SwitchAgg:
		if index < 0 || index >= f.cfg.Aggs {
			return nil, fmt.Errorf("fabric: no aggregation switch %d", index)
		}
		for s := 0; s < f.cfg.Segments; s++ {
			refs = append(refs, Uplink(s, index), Downlink(s, index))
		}
		for pod := 0; pod < f.pods && f.pods > 1; pod++ {
			for cr := 0; cr < f.cores; cr++ {
				refs = append(refs, CoreLink(pod, index, cr, DirUp), CoreLink(pod, index, cr, DirDown))
			}
		}
	case SwitchCore:
		if f.pods <= 1 || index < 0 || index >= f.cores {
			return nil, fmt.Errorf("fabric: no core switch %d", index)
		}
		for pod := 0; pod < f.pods; pod++ {
			for a := 0; a < f.cfg.Aggs; a++ {
				refs = append(refs, CoreLink(pod, a, index, DirUp), CoreLink(pod, a, index, DirDown))
			}
		}
	default:
		return nil, fmt.Errorf("fabric: unknown switch kind %d", kind)
	}
	return refs, nil
}
