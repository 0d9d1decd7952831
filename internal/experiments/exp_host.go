package experiments

import (
	"fmt"
	"time"

	"repro/internal/addr"
	stellar "repro/internal/core"
	"repro/internal/perftest"
	"repro/internal/pvdma"
	"repro/internal/rnic"
	"repro/internal/rund"
	"repro/internal/workload"
)

// podHost is the single server the pod experiments boot containers on:
// the default host with memBytes of memory and 4 GiB per GPU.
func podHost(memBytes uint64) stellar.HostConfig {
	cfg := stellar.DefaultHostConfig()
	cfg.MemoryBytes = memBytes
	cfg.GPUMemoryBytes = 4 << 30
	return cfg
}

// Fig6 regenerates the GPU pod start-up figure: boot time across
// container memory sizes with VFIO full pinning vs PVDMA.
func Fig6(s *Session) (*Table, error) {
	t := &Table{
		ID:     "fig6",
		Title:  "GPU pod start-up time vs memory size (paper: 390 s pin at 1.6 TB; PVDMA < 20 s, up to 15x)",
		Header: []string{"memory", "full-pin boot (s)", "pvdma boot (s)", "speedup"},
	}
	sizes := []struct {
		label string
		bytes uint64
	}{
		{"16GB", 16 << 30},
		{"160GB", 160 << 30},
		{"800GB", 800 << 30},
		{"1.6TB", 1600 << 30},
	}
	for _, sz := range sizes {
		h, err := s.host(podHost(4 << 40))
		if err != nil {
			return nil, err
		}
		cFull, err := h.Hypervisor.CreateContainer(rund.DefaultConfig("full-"+sz.label, sz.bytes))
		if err != nil {
			return nil, err
		}
		fullBoot, err := cFull.Start(rund.PinFull)
		if err != nil {
			return nil, err
		}
		cPV, err := h.Hypervisor.CreateContainer(rund.DefaultConfig("pv-"+sz.label, sz.bytes))
		if err != nil {
			return nil, err
		}
		pvBoot, err := cPV.Start(rund.PinOnDemand)
		if err != nil {
			return nil, err
		}
		t.AddRow(sz.label,
			fmt.Sprintf("%.1f", fullBoot.Seconds()),
			fmt.Sprintf("%.1f", pvBoot.Seconds()),
			fmt.Sprintf("%.1fx", fullBoot.Seconds()/pvBoot.Seconds()))
	}
	t.Notes = append(t.Notes,
		"full-pin grows linearly with memory (IOMMU pinning); PVDMA stays flat apart from general hypervisor overhead")
	return t, nil
}

// gdrRig is a host prepared for GDR sweeps on one RNIC.
type gdrRig struct {
	host *stellar.Host
	qp   *rnic.QP
	key  uint32
	va   uint64
	r    *rnic.RNIC
}

// gdrMode selects how GPU memory is registered for GDR.
type gdrMode int

const (
	// modeEMTT is Stellar: translated entry, AT=translated direct P2P.
	modeEMTT gdrMode = iota
	// modeATS is the CX6/CX7 path: untranslated GPU entry resolved
	// per-page through ATS/ATC, then routed direct.
	modeATS
	// modeRC is HyV/MasQ: the RNIC does not know the target is GPU
	// memory, emits untranslated TLPs, and the RC forwards them — the
	// 141 Gbps ceiling of Figure 14.
	modeRC
)

// newGDRRig registers gdrBytes of GPU memory for GDR in the given mode.
func newGDRRig(s *Session, rnicCfg rnic.Config, mode gdrMode, gdrBytes uint64) (*gdrRig, error) {
	cfg := stellar.DefaultHostConfig()
	cfg.MemoryBytes = 64 << 30
	cfg.GPUMemoryBytes = 2 * gdrBytes
	cfg.NumRNICs, cfg.NumGPUs, cfg.NumSwitches = 1, 1, 1
	cfg.RNICConfig = func(int) rnic.Config { return rnicCfg }
	h, err := s.host(cfg)
	if err != nil {
		return nil, err
	}
	r := h.RNICs[0]
	gmem, err := h.GPUs[0].AllocDeviceMemory(gdrBytes)
	if err != nil {
		return nil, err
	}
	pd := r.AllocPD()
	va := addr.Range{Start: 0x100000000, Size: gdrBytes}
	entry := rnic.MTTEntry{Base: gmem.Start, Owner: addr.OwnerGPU, Translated: true}
	if mode != modeEMTT {
		const da = 0x7000000000
		if _, err := h.Complex.IOMMU().Map(addr.NewDARange(da, gdrBytes), addr.HPA(gmem.Start)); err != nil {
			return nil, err
		}
		owner := addr.OwnerGPU // modeATS: per-page ATS, then direct
		if mode == modeRC {
			// HyV/MasQ treats everything as host memory: untranslated
			// TLPs that detour through the Root Complex.
			owner = addr.OwnerHostMemory
		}
		entry = rnic.MTTEntry{Base: da, Owner: owner}
	}
	mr, err := r.RegisterMR(pd, va, entry)
	if err != nil {
		return nil, err
	}
	qp, err := r.CreateQP(pd)
	if err != nil {
		return nil, err
	}
	for _, st := range []rnic.QPState{rnic.QPInit, rnic.QPReadyToReceive, rnic.QPReadyToSend} {
		if err := r.ModifyQP(qp, st); err != nil {
			return nil, err
		}
	}
	return &gdrRig{host: h, qp: qp, key: mr.Key, va: va.Start, r: r}, nil
}

// Fig8 regenerates the ATC-miss figure: GDR bandwidth vs total buffer
// size for the ATS/ATC CX6 vs eMTT vStellar, with the diagnostic
// counters (PCIe latency proxy, IOTLB pressure) alongside.
func Fig8(s *Session) (*Table, error) {
	t := &Table{
		ID:     "fig8",
		Title:  "GDR write bandwidth vs working-set size (paper: CX6 190->170->150 Gbps; vStellar flat)",
		Header: []string{"buffer", "cx6-ats Gbps", "cx6 miss-rate", "vstellar Gbps", "vstellar miss-rate"},
	}
	// 16 connections round-robin over independent buffers ~ one sweep
	// striding across the aggregate working set.
	bufferSizes := []uint64{1 << 20, 8 << 20, 32 << 20, 64 << 20, 128 << 20}
	const msg = 256 << 10

	cx6Cfg := rnic.ConfigCX6("cx6")
	cx6Cfg.ATCCapacityPages = 4096 // 16 MiB reach at 4 KiB pages
	for _, buf := range bufferSizes {
		row := []string{fmt.Sprintf("%dMB", buf>>20)}
		for _, emtt := range []bool{false, true} {
			cfg := cx6Cfg
			mode := modeATS
			if emtt {
				cfg = rnic.DefaultConfig("vstellar")
				mode = modeEMTT
			}
			rig, err := newGDRRig(s, cfg, mode, buf)
			if err != nil {
				return nil, err
			}
			sw := &perftest.Sweep{
				RNIC: rig.r, QP: rig.qp, Key: rig.key, VABase: rig.va,
				Stack: perftest.VStellar(), Iterations: int(buf / msg), Stride: msg,
			}
			pts, err := sw.Run([]uint64{msg})
			if err != nil {
				return nil, err
			}
			// Second pass measures steady state over the full set.
			pts, err = sw.Run([]uint64{msg})
			if err != nil {
				return nil, err
			}
			row = append(row,
				fmt.Sprintf("%.0f", perftest.Gbps(pts[0].Bandwidth)),
				fmt.Sprintf("%.2f", pts[0].ATCMissRate))
		}
		t.AddRow(row...)
	}
	t.Notes = append(t.Notes,
		"cx6 bandwidth decays once the working set exceeds the ATC reach; eMTT holds flat with zero misses")
	return t, nil
}

// Fig13 regenerates the microbenchmark figure: write latency and
// bandwidth across message sizes for bare metal, vStellar, and the
// CX7 VF+VxLAN stack. vStellar's data path is bare metal's (§8.1), so
// one sweep fills both columns.
func Fig13(s *Session) (*Table, error) {
	t := &Table{
		ID:     "fig13",
		Title:  "RDMA write latency/throughput (paper: vStellar == bare metal; VF+VxLAN +7% lat, -9% bw)",
		Header: []string{"size", "bare lat(us)", "vstellar lat(us)", "vf lat(us)", "bare Gbps", "vstellar Gbps", "vf Gbps"},
	}
	stacks := []perftest.StackOverhead{perftest.VStellar(), perftest.VFVxLAN()}
	sizes := []uint64{8, 256, 4096, 64 << 10, 1 << 20, 8 << 20}
	results := make([][]perftest.Point, len(stacks))
	for i, st := range stacks {
		rig, err := newGDRRig(s, rnic.DefaultConfig("rnic0"), modeEMTT, 64<<20)
		if err != nil {
			return nil, err
		}
		sw := &perftest.Sweep{RNIC: rig.r, QP: rig.qp, Key: rig.key, VABase: rig.va,
			Stack: st, WireRTT: 4 * time.Microsecond}
		pts, err := sw.Run(sizes)
		if err != nil {
			return nil, err
		}
		results[i] = pts
	}
	vs, vf := results[0], results[1]
	for j, size := range sizes {
		lat := fmt.Sprintf("%.2f", float64(vs[j].Latency)/1e3)
		bw := fmt.Sprintf("%.0f", perftest.Gbps(vs[j].Bandwidth))
		t.AddRow(
			fmtSize(size),
			lat, lat,
			fmt.Sprintf("%.2f", float64(vf[j].Latency)/1e3),
			bw, bw,
			fmt.Sprintf("%.0f", perftest.Gbps(vf[j].Bandwidth)),
		)
	}
	return t, nil
}

// Fig14 regenerates the GDR throughput comparison: vStellar and bare
// metal via the eMTT direct path vs HyV/MasQ through the Root Complex.
// Bare metal and vStellar share the eMTT path, so one run fills both
// rows.
func Fig14(s *Session) (*Table, error) {
	t := &Table{
		ID:     "fig14",
		Title:  "GDR write throughput (paper: vStellar 393 Gbps == bare metal; HyV/MasQ 141 Gbps)",
		Header: []string{"stack", "route", "Gbps"},
	}
	type sys struct {
		names []string
		mode  gdrMode
	}
	for _, sc := range []sys{{[]string{"bare-metal-stellar", "vstellar"}, modeEMTT}, {[]string{"hyv-masq"}, modeRC}} {
		cfg := rnic.DefaultConfig("rnic0")
		rig, err := newGDRRig(s, cfg, sc.mode, 64<<20)
		if err != nil {
			return nil, err
		}
		sweep := &perftest.Sweep{RNIC: rig.r, QP: rig.qp, Key: rig.key, VABase: rig.va, Stack: perftest.VStellar()}
		pts, err := sweep.Run([]uint64{8 << 20})
		if err != nil {
			return nil, err
		}
		res, err := rig.r.RDMAWrite(rig.qp, rig.key, rig.va, 1<<20)
		if err != nil {
			return nil, err
		}
		for _, name := range sc.names {
			t.AddRow(name, res.Route.String(), fmt.Sprintf("%.0f", perftest.Gbps(pts[0].Bandwidth)))
		}
	}
	t.Notes = append(t.Notes, "HyV/MasQ GDR routes via the Root Complex (~36% of vStellar's bandwidth)")
	return t, nil
}

// Table1Exp regenerates Table 1: the published strategies and
// production-measured ratios, with the analytic model's estimates
// alongside.
func Table1Exp(s *Session) (*Table, error) {
	t := &Table{
		ID:     "table1",
		Title:  "Parallel strategy and communication ratio of typical models",
		Header: []string{"framework", "model", "strategy(TP,PP,DP,mbs,ga,gbs)", "TP% paper/model", "DP% paper/model", "PP% paper/model"},
	}
	p := workload.DefaultPlatform()
	for _, m := range workload.Table1() {
		tp, dp, pp := m.Ratios(p)
		fmtPair := func(paper, model float64) string {
			if paper == 0 {
				return "n/a"
			}
			return fmt.Sprintf("%.2f/%.2f", paper*100, model*100)
		}
		t.AddRow(
			string(m.Framework), m.Name,
			fmt.Sprintf("%d,%d,%d,%d,%d,%d", m.TP, m.PP, m.DP, m.MicroBatch, m.GradAccum, m.GlobalBatch),
			fmtPair(m.MeasuredTPRatio, tp),
			fmtPair(m.MeasuredDPRatio, dp),
			fmtPair(m.MeasuredPPRatio, pp),
		)
	}
	t.Notes = append(t.Notes,
		"paper values are production measurements; model values come from the analytic volume model (see EXPERIMENTS.md for the gap discussion)")
	return t, nil
}

// Sec4 verifies the §4 agility claims: device creation time, device
// count ceiling, container-init speedup, and device density that takes
// no PCIe switch LUT slot.
func Sec4(s *Session) (*Table, error) {
	t := &Table{
		ID:     "sec4",
		Title:  "vStellar agility (paper: 1.5 s device create, 64k devices, 15-30x container init)",
		Header: []string{"claim", "measured"},
	}
	h, err := s.host(podHost(4 << 40))
	if err != nil {
		return nil, err
	}
	// fullestLUT reads the most occupied switch LUT as "used/capacity".
	fullestLUT := func() string {
		used := 0
		for _, sw := range h.Switches {
			used = max(used, sw.LUTLen())
		}
		return fmt.Sprintf("%d/%d", used, h.Switches[0].LUTCapacity())
	}
	lutAtStart := fullestLUT()
	c, err := h.Hypervisor.CreateContainer(rund.DefaultConfig("agile", 64<<30))
	if err != nil {
		return nil, err
	}
	if _, err := c.Start(rund.PinOnDemand); err != nil {
		return nil, err
	}
	d, err := h.CreateVStellar(c, h.RNICs[0])
	if err != nil {
		return nil, err
	}
	t.AddRow("device create time", fmt.Sprintf("%.1f s", d.CreateLatency.Seconds()))
	t.AddRow("device ceiling", fmt.Sprintf("%d", h.DeviceLimit()))

	// Container init speedup at 1.6 TB.
	cFull, err := h.Hypervisor.CreateContainer(rund.DefaultConfig("full", 1600<<30))
	if err != nil {
		return nil, err
	}
	fullBoot, err := cFull.Start(rund.PinFull)
	if err != nil {
		return nil, err
	}
	cPV, err := h.Hypervisor.CreateContainer(rund.DefaultConfig("pv", 1600<<30))
	if err != nil {
		return nil, err
	}
	pvBoot, err := cPV.Start(rund.PinOnDemand)
	if err != nil {
		return nil, err
	}
	t.AddRow("1.6TB container init speedup", fmt.Sprintf("%.0fx", fullBoot.Seconds()/pvBoot.Seconds()))
	t.AddRow("SFs per RNIC after 100 create/destroy cycles", func() string {
		r := h.RNICs[0]
		for i := 0; i < 100; i++ {
			sf := r.CreateSF()
			r.DestroySF(sf)
		}
		return fmt.Sprintf("%d live", r.NumSFs())
	}())

	// The serverless density of §3.1: 120 GDR-capable devices, spread
	// over the RNICs. A vStellar device is an SF behind the PF, so the
	// LUT holds the same entries as before the first one.
	const density = 120
	for i := 0; h.NumDevices() < density; i++ {
		if _, err := h.CreateVStellar(c, h.RNICs[i%len(h.RNICs)]); err != nil {
			return nil, err
		}
	}
	t.AddRow("fullest switch LUT at host start", lutAtStart)
	t.AddRow("vStellar devices on the host", fmt.Sprintf("%d", h.NumDevices()))
	t.AddRow(fmt.Sprintf("fullest switch LUT after %d devices", density), fullestLUT())
	return t, nil
}

// AblationEMTT isolates the eMTT contribution: the same RNIC with the
// translated fast path on vs off.
func AblationEMTT(s *Session) (*Table, error) {
	t := &Table{
		ID:     "ablation-emtt",
		Title:  "eMTT ablation: AT=translated bypass on vs off",
		Header: []string{"emtt", "route", "Gbps", "rc-translations"},
	}
	for _, emtt := range []bool{true, false} {
		cfg := rnic.DefaultConfig("rnic0")
		mode := modeEMTT
		if !emtt {
			mode = modeRC
		}
		rig, err := newGDRRig(s, cfg, mode, 32<<20)
		if err != nil {
			return nil, err
		}
		sweep := &perftest.Sweep{RNIC: rig.r, QP: rig.qp, Key: rig.key, VABase: rig.va, Stack: perftest.VStellar()}
		pts, err := sweep.Run([]uint64{4 << 20})
		if err != nil {
			return nil, err
		}
		res, err := rig.r.RDMAWrite(rig.qp, rig.key, rig.va, 1<<20)
		if err != nil {
			return nil, err
		}
		u := rig.host.Complex.IOMMU()
		rcTranslations := u.Walks() + u.IOTLB().Hits()
		t.AddRow(fmt.Sprintf("%v", emtt), res.Route.String(),
			fmt.Sprintf("%.0f", perftest.Gbps(pts[0].Bandwidth)),
			fmt.Sprintf("%d", rcTranslations))
	}
	return t, nil
}

// AblationPVDMABlock sweeps the PVDMA block size: IOMMU programming
// count vs pinned-byte overshoot for a fixed workload.
func AblationPVDMABlock(s *Session) (*Table, error) {
	t := &Table{
		ID:     "ablation-pvdma-block",
		Title:  "PVDMA block-size ablation (paper picks 2 MiB)",
		Header: []string{"block", "registrations", "map cost (ms)", "pinned (MiB)"},
	}
	for _, bs := range []uint64{addr.PageSize4K, 64 << 10, addr.PageSize2M, 16 << 20} {
		h, err := s.host(podHost(16 << 30))
		if err != nil {
			return nil, err
		}
		c, err := h.Hypervisor.CreateContainer(rund.DefaultConfig("ab", 1<<30))
		if err != nil {
			return nil, err
		}
		if _, err := c.Start(rund.PinOnDemand); err != nil {
			return nil, err
		}
		mgr := pvdma.New(c, pvdma.Config{BlockSize: bs})
		// Workload: 64 scattered 64 KiB buffers.
		var totalCost time.Duration
		for i := 0; i < 64; i++ {
			gva, gpa, err := c.AllocGuestBuffer(64 << 10)
			if err != nil {
				return nil, err
			}
			_ = gva
			cost, err := mgr.MapDMA(addr.GPA(gpa.Start), gpa.Size)
			if err != nil {
				return nil, err
			}
			totalCost += cost
		}
		st := mgr.Stats()
		t.AddRow(fmtSize(bs),
			fmt.Sprintf("%d", st.BlocksRegistered),
			fmt.Sprintf("%.3f", totalCost.Seconds()*1e3),
			fmt.Sprintf("%.1f", float64(c.GuestMemory().PinnedBytes())/float64(1<<20)))
	}
	t.Notes = append(t.Notes,
		"small blocks register often (IOMMU overhead); huge blocks over-pin — 2 MiB balances both")
	return t, nil
}

func fmtSize(b uint64) string {
	switch {
	case b >= 1<<30:
		return fmt.Sprintf("%dGB", b>>30)
	case b >= 1<<20:
		return fmt.Sprintf("%dMB", b>>20)
	case b >= 1<<10:
		return fmt.Sprintf("%dKB", b>>10)
	default:
		return fmt.Sprintf("%dB", b)
	}
}
