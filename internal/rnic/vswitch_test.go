package rnic

import (
	"errors"
	"strings"
	"testing"
	"time"
)

func TestVSwitchLookupCostGrowsWithPosition(t *testing.T) {
	// Problem ⑤, first incident: TCP entries installed at the front of
	// the table push RDMA rules deeper and inflate their lookup cost.
	v := NewVSwitch(10 * time.Nanosecond)
	v.InstallBack(Rule{Class: ClassRDMA, FlowID: 1, SrcMAC: MAC{1}, DstMAC: MAC{2}, Target: "c1"})
	_, fast, err := v.Lookup(ClassRDMA, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		v.InstallFront(Rule{Class: ClassTCP, FlowID: uint64(100 + i), SrcMAC: MAC{1}, DstMAC: MAC{2}, Target: "other"})
	}
	_, slow, err := v.Lookup(ClassRDMA, 1)
	if err != nil {
		t.Fatal(err)
	}
	if slow != fast+50*10*time.Nanosecond {
		t.Errorf("buried lookup = %v, fresh lookup = %v; want +500ns", slow, fast)
	}
}

func TestVSwitchLookupMiss(t *testing.T) {
	v := NewVSwitch(time.Nanosecond)
	v.InstallBack(Rule{Class: ClassTCP, FlowID: 7})
	if _, _, err := v.Lookup(ClassRDMA, 7); !errors.Is(err, ErrNoRule) {
		t.Errorf("class mismatch err = %v", err)
	}
	if _, _, err := v.Lookup(ClassTCP, 8); !errors.Is(err, ErrNoRule) {
		t.Errorf("flow mismatch err = %v", err)
	}
}

func TestVSwitchRemove(t *testing.T) {
	v := NewVSwitch(time.Nanosecond)
	v.InstallBack(Rule{Class: ClassRDMA, FlowID: 1})
	v.InstallBack(Rule{Class: ClassRDMA, FlowID: 2})
	if !v.Remove(ClassRDMA, 1) {
		t.Error("Remove existing returned false")
	}
	if v.Remove(ClassRDMA, 1) {
		t.Error("Remove missing returned true")
	}
	if v.Len() != 1 {
		t.Errorf("Len = %d", v.Len())
	}
}

func TestZeroMACRuleRejectedByToR(t *testing.T) {
	// Problem ⑤, second incident: same-host VFs on different RNICs got
	// VxLAN rules with zeroed MACs; the ToR discards those frames.
	bad := Rule{Class: ClassRDMA, FlowID: 42, VNI: 7, Target: "vf1"}
	err := bad.Validate()
	if err == nil {
		t.Fatal("zero-MAC rule validated")
	}
	if !strings.Contains(err.Error(), "zero MAC") {
		t.Errorf("err = %v", err)
	}
	good := bad
	good.SrcMAC = MAC{0x02, 0, 0, 0, 0, 1}
	good.DstMAC = MAC{0x02, 0, 0, 0, 0, 2}
	if err := good.Validate(); err != nil {
		t.Errorf("valid rule rejected: %v", err)
	}
}

func TestMACString(t *testing.T) {
	m := MAC{0x02, 0xab, 0, 0, 0, 0x01}
	if m.String() != "02:ab:00:00:00:01" {
		t.Errorf("String = %q", m.String())
	}
	if !(MAC{}).IsZero() || m.IsZero() {
		t.Error("IsZero")
	}
}

func TestTrafficClassString(t *testing.T) {
	if ClassTCP.String() != "tcp" || ClassRDMA.String() != "rdma" {
		t.Error("class strings")
	}
}
