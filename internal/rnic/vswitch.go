package rnic

import (
	"fmt"

	"repro/internal/sim"
)

// TrafficClass distinguishes the two kinds of flows sharing the vSwitch
// pipeline. Their coupling in one ordered table is the root cause of
// Problem ⑤.
type TrafficClass uint8

const (
	// ClassTCP covers all non-RDMA traffic (the paper uses TCP as the
	// stand-in for TCP/UDP/ARP).
	ClassTCP TrafficClass = iota
	// ClassRDMA covers RoCE traffic.
	ClassRDMA
)

func (c TrafficClass) String() string {
	if c == ClassTCP {
		return "tcp"
	}
	return "rdma"
}

// MAC is an Ethernet address. The zero value is the illegal all-zeros
// address the RNIC driver wrote into VxLAN headers for same-host peers
// (Problem ⑤'s second incident); ToR switches drop such frames.
type MAC [6]byte

// IsZero reports whether the address is all zeros.
func (m MAC) IsZero() bool { return m == MAC{} }

func (m MAC) String() string {
	return fmt.Sprintf("%02x:%02x:%02x:%02x:%02x:%02x", m[0], m[1], m[2], m[3], m[4], m[5])
}

// Rule is one entry in the vSwitch's ordered flow table.
type Rule struct {
	Class TrafficClass
	// FlowID identifies the flow (five-tuple hash or QPN).
	FlowID uint64
	// VNI is the VxLAN network identifier for encapsulation.
	VNI uint32
	// SrcMAC / DstMAC fill the VxLAN outer header. All-zero MACs make
	// ToR switches treat the frame as corrupt.
	SrcMAC, DstMAC MAC
	// Target names the virtual device the flow steers to.
	Target string
}

// VSwitch is the RNIC's embedded flow-steering pipeline: one ordered
// table scanned linearly in hardware. TCP and RDMA rules interleave, so
// RDMA lookup latency depends on how many TCP rules precede it.
type VSwitch struct {
	rules   []Rule
	perRule sim.Duration
}

// NewVSwitch builds an empty flow table with the given per-rule scan
// cost.
func NewVSwitch(perRule sim.Duration) *VSwitch {
	return &VSwitch{perRule: perRule}
}

// Len returns the number of installed rules.
func (v *VSwitch) Len() int { return len(v.rules) }

// InstallFront inserts a rule at the head of the table — what the
// off-the-shelf firmware did with TCP entries, pushing RDMA rules deeper
// and inflating their lookup latency (Problem ⑤).
func (v *VSwitch) InstallFront(rule Rule) {
	v.rules = append([]Rule{rule}, v.rules...)
}

// InstallBack appends a rule at the tail of the table.
func (v *VSwitch) InstallBack(rule Rule) {
	v.rules = append(v.rules, rule)
}

// Remove deletes the first rule matching class and flowID, reporting
// whether one was found.
func (v *VSwitch) Remove(class TrafficClass, flowID uint64) bool {
	for i, r := range v.rules {
		if r.Class == class && r.FlowID == flowID {
			v.rules = append(v.rules[:i], v.rules[i+1:]...)
			return true
		}
	}
	return false
}

// Lookup scans the table for the first rule matching class and flowID.
// The returned cost is proportional to the match position: rules buried
// behind others' TCP entries pay for every scan step above them.
func (v *VSwitch) Lookup(class TrafficClass, flowID uint64) (Rule, sim.Duration, error) {
	for i, r := range v.rules {
		if r.Class == class && r.FlowID == flowID {
			return r, sim.Duration(i+1) * v.perRule, nil
		}
	}
	return Rule{}, sim.Duration(len(v.rules)) * v.perRule,
		fmt.Errorf("%w: class=%v flow=%d", ErrNoRule, class, flowID)
}

// Validate checks a rule the way the ToR switch effectively does on the
// wire: VxLAN frames with zero MACs are discarded as corrupt
// (Problem ⑤'s cross-RNIC same-host failure).
func (r Rule) Validate() error {
	if r.SrcMAC.IsZero() || r.DstMAC.IsZero() {
		return fmt.Errorf("rnic: rule for flow %d has zero MAC (src=%s dst=%s); ToR will discard",
			r.FlowID, r.SrcMAC, r.DstMAC)
	}
	return nil
}
