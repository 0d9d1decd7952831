package experiments

import (
	"errors"
	"fmt"

	stellar "repro/internal/core"
	"repro/internal/iommu"
	"repro/internal/rnic"
	"repro/internal/rund"
)

// Problems replays the six operational incidents of §3.1 against the
// legacy stack, one row each, so an operator can see every failure mode
// the paper motivates Stellar with — and what the number behind it is.
func Problems(s *Session) (*Table, error) {
	t := &Table{
		ID:     "problems",
		Title:  "§3.1 operational problems replayed against the legacy stack",
		Header: []string{"problem", "scenario", "outcome"},
	}

	// ① VF inflexibility.
	{
		h, err := s.host(podHost(256 << 30))
		if err != nil {
			return nil, err
		}
		r := h.RNICs[0]
		if err := r.SetNumVFs(2); err != nil {
			return nil, err
		}
		err = r.SetNumVFs(3)
		outcome := "unexpectedly succeeded"
		if errors.Is(err, rnic.ErrVFReconfig) {
			outcome = "rejected: full reset required (reproduced)"
		}
		t.AddRow("1 VF inflexibility", "reconfigure 2 VFs -> 3 VFs live", outcome)
		perVF := rnic.VFMemoryBytes >> 20
		t.AddRow("1 VF memory cost", "63 virtual queues per VF",
			fmt.Sprintf("%d MiB of host memory per VF (reproduced)", perVF))
	}

	// ② Pinned GPA required by VFIO.
	{
		h, err := s.host(podHost(4 << 40))
		if err != nil {
			return nil, err
		}
		c, err := h.Hypervisor.CreateContainer(rund.DefaultConfig("p2", 1600<<30))
		if err != nil {
			return nil, err
		}
		boot, err := c.Start(rund.PinFull)
		if err != nil {
			return nil, err
		}
		t.AddRow("2 VFIO full pin", "boot a 1.6 TB secure container",
			fmt.Sprintf("%.0f s spent pinning (paper: ~390 s) (reproduced)", boot.Seconds()))
	}

	// ③ PCIe switch LUT capacity.
	{
		cfg := stellar.DefaultHostConfig()
		cfg.MemoryBytes = 512 << 30
		h, err := s.host(cfg)
		if err != nil {
			return nil, err
		}
		for _, r := range h.RNICs {
			if err := r.SetNumVFs(40); err != nil {
				return nil, err
			}
		}
		enabled := 0
		var lastErr error
	outer:
		for _, r := range h.RNICs {
			for _, vf := range r.VFs() {
				if err := vf.EnableGDR(); err != nil {
					lastErr = err
					break outer
				}
				enabled++
			}
		}
		outcome := fmt.Sprintf("only %d GDR-capable VFs before %v (paper: 32/server) (reproduced)", enabled, errors.Unwrap(lastErr))
		if lastErr == nil {
			outcome = "LUT never filled (NOT reproduced)"
		}
		t.AddRow("3 LUT capacity", "enable GDR on 160 VFs across 4 RNICs", outcome)
	}

	// ④ Conflicting PCIe fabric settings.
	{
		_, err := iommu.New(iommu.Config{Mode: iommu.ModePT, ATSEnabled: true, PlatformATSPTConflict: true})
		outcome := "unexpectedly succeeded"
		if errors.Is(err, iommu.ErrATSConflict) {
			outcome = "pt+ATS rejected on the afflicted platform; production forced nopt (reproduced)"
		}
		t.AddRow("4 ATS/IOMMU conflict", "enable ATS with iommu=pt", outcome)
	}

	// ⑤ vSwitch interference: rule burial and the zero-MAC discard.
	{
		cfg := stellar.DefaultHostConfig()
		cfg.MemoryBytes = 256 << 30
		h, err := s.host(cfg)
		if err != nil {
			return nil, err
		}
		if err := h.RNICs[0].SetNumVFs(1); err != nil {
			return nil, err
		}
		if err := h.RNICs[1].SetNumVFs(1); err != nil {
			return nil, err
		}
		c, err := h.Hypervisor.CreateContainer(rund.DefaultConfig("p5", 8<<30))
		if err != nil {
			return nil, err
		}
		if _, err := c.Start(rund.PinFull); err != nil {
			return nil, err
		}
		d0, err := h.CreateLegacyVF(c, h.RNICs[0], 0)
		if err != nil {
			return nil, err
		}
		d1, err := h.CreateLegacyVF(c, h.RNICs[1], 0)
		if err != nil {
			return nil, err
		}
		ctl := stellar.NewController()
		if err := ctl.EstablishRDMA(1, d0, d1); err != nil {
			return nil, err
		}
		_, before, err := h.RNICs[0].VSwitch().Lookup(rnic.ClassRDMA, 1)
		if err != nil {
			return nil, err
		}
		ctl.InstallTCPFlows(h.RNICs[0], 200)
		_, after, err := h.RNICs[0].VSwitch().Lookup(rnic.ClassRDMA, 1)
		if err != nil {
			return nil, err
		}
		t.AddRow("5 steering interference", "200 TCP rules front-inserted above an RDMA rule",
			fmt.Sprintf("RDMA lookup %v -> %v (reproduced)", before, after))

		buggy := stellar.NewController()
		buggy.BuggyLocalMAC = true
		err = buggy.EstablishRDMA(2, d0, d1)
		outcome := "unexpectedly succeeded"
		if errors.Is(err, stellar.ErrToRDiscard) {
			outcome = "ToR discards zero-MAC VxLAN frames; VFs cannot talk (reproduced)"
		}
		t.AddRow("5 zero-MAC bug", "same-host VFs on different RNICs", outcome)
	}

	// ⑥ Single-path transmission (summarised from prob6-core).
	{
		core, err := Prob6Core(s)
		if err != nil {
			return nil, err
		}
		t.AddRow("6 single-path RDMA", "cross-pod permutation at the core layer",
			fmt.Sprintf("ECMP core imbalance %s vs %s sprayed (reproduced)", core.Rows[0][1], core.Rows[1][1]))
	}

	return t, nil
}
