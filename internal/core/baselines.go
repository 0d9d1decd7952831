package stellar

import (
	"fmt"

	"repro/internal/addr"
	"repro/internal/rnic"
	"repro/internal/rund"
)

// LegacyDevice is the §3 baseline: an SR-IOV VF assigned into a RunD
// container via VFIO, steered by VxLAN rules in the RNIC's vSwitch. It
// requires the container to be fully pinned, burns a BDF, and needs a
// switch LUT slot for GDR.
type LegacyDevice struct {
	VF        *rnic.VF
	Container *rund.Container
	RNIC      *rnic.RNIC
	pd        rnic.PD
	gdr       bool
}

// CreateLegacyVF attaches VF index vfIdx of the RNIC to the container.
// The RNIC must already have VFs configured with SetNumVFs — the static
// provisioning Problem ① forces.
func (h *Host) CreateLegacyVF(c *rund.Container, r *rnic.RNIC, vfIdx int) (*LegacyDevice, error) {
	vfs := r.VFs()
	if vfIdx >= len(vfs) {
		return nil, fmt.Errorf("%w: vf %d of %d", rnic.ErrNoSuchVF, vfIdx, len(vfs))
	}
	vf := vfs[vfIdx]
	if c.Mode() != rund.PinFull || !c.Running() {
		return nil, ErrNeedsVFIO
	}
	if err := c.AssignDevice(vf.EP); err != nil {
		return nil, err
	}
	return &LegacyDevice{VF: vf, Container: c, RNIC: r, pd: r.AllocPD()}, nil
}

// EnableGDR claims a PCIe switch LUT slot for the VF; with dense
// deployments this is the call that fails (Problem ③).
func (d *LegacyDevice) EnableGDR() error {
	if err := d.VF.EnableGDR(); err != nil {
		return err
	}
	d.gdr = true
	return nil
}

// RegisterGPUMemory on the legacy stack uses the ATS/ATC path: the MTT
// entry carries an untranslated DA, and GDR needs the LUT slot.
func (d *LegacyDevice) RegisterGPUMemory(gva addr.GVARange, da addr.DA) (*rnic.MR, error) {
	if !d.gdr {
		return nil, ErrGDRUnplanned
	}
	return d.RNIC.RegisterMR(d.pd, gva.Range, rnic.MTTEntry{Base: uint64(da), Owner: addr.OwnerGPU})
}

// Controller is the container-networking control plane of §3: it tracks
// active connections and offloads VxLAN rules to the RNIC vSwitch. The
// BuggyLocalMAC flag reproduces Problem ⑤'s second incident: for
// same-host peers the driver consulted its kernel routing table, found
// a local route, and zeroed the MACs — correct for the kernel stack,
// fatal for RDMA crossing the ToR.
type Controller struct {
	// BuggyLocalMAC enables the faulty same-host rule generation.
	BuggyLocalMAC bool

	nextVNI uint32
}

// NewController builds the control plane.
func NewController() *Controller { return &Controller{nextVNI: 100} }

// hostMAC derives a deterministic locally-administered MAC per RNIC.
func hostMAC(r *rnic.RNIC, salt byte) rnic.MAC {
	var m rnic.MAC
	m[0] = 0x02
	m[5] = salt
	for i, ch := range r.Name() {
		m[1+i%4] ^= byte(ch)
	}
	return m
}

// EstablishRDMA installs the VxLAN steering rules for a flow between
// two legacy devices. Same-host flows between different RNICs trigger
// the zero-MAC bug when BuggyLocalMAC is set: the installed rule fails
// wire validation and the function surfaces ErrToRDiscard — exactly
// what operators saw as "two VFs on different RNICs cannot talk".
func (ctl *Controller) EstablishRDMA(flowID uint64, src, dst *LegacyDevice) error {
	vni := ctl.nextVNI
	ctl.nextVNI++

	sameHost := src.Container.Hypervisor() == dst.Container.Hypervisor()
	crossRNIC := src.RNIC != dst.RNIC

	rule := rnic.Rule{
		Class:  rnic.ClassRDMA,
		FlowID: flowID,
		VNI:    vni,
		Target: src.VF.EP.Name(),
	}
	if ctl.BuggyLocalMAC && sameHost && crossRNIC {
		// The driver found a local forwarding entry and zeroed the
		// MACs; rule.SrcMAC/DstMAC stay zero.
	} else {
		rule.SrcMAC = hostMAC(src.RNIC, 1)
		rule.DstMAC = hostMAC(dst.RNIC, 2)
	}

	if err := rule.Validate(); err != nil {
		return fmt.Errorf("%w: %v", ErrToRDiscard, err)
	}
	src.RNIC.VSwitch().InstallBack(rule)
	dst.RNIC.VSwitch().InstallBack(rnic.Rule{
		Class: rnic.ClassRDMA, FlowID: flowID, VNI: vni,
		SrcMAC: rule.DstMAC, DstMAC: rule.SrcMAC, Target: dst.VF.EP.Name(),
	})
	return nil
}

// InstallTCPFlows front-inserts n TCP rules on the RNIC's vSwitch —
// the behaviour that buried RDMA rules and inflated their lookup
// latency (Problem ⑤, first incident).
func (ctl *Controller) InstallTCPFlows(r *rnic.RNIC, n int) {
	for i := 0; i < n; i++ {
		r.VSwitch().InstallFront(rnic.Rule{
			Class:  rnic.ClassTCP,
			FlowID: uint64(1_000_000 + i),
			VNI:    ctl.nextVNI,
			SrcMAC: rnic.MAC{0x02, 1, 2, 3, 4, byte(i)},
			DstMAC: rnic.MAC{0x02, 9, 8, 7, 6, byte(i)},
			Target: "host-tcp",
		})
		ctl.nextVNI++
	}
}
