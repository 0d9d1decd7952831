package perftest

import (
	"errors"
	"testing"
	"time"

	"repro/internal/addr"
	"repro/internal/gpu"
	"repro/internal/iommu"
	"repro/internal/mem"
	"repro/internal/pcie"
	"repro/internal/rnic"
)

// bench bundles an RNIC + GPU host ready for GDR sweeps.
type bench struct {
	complex *pcie.Complex
	rnic    *rnic.RNIC
	gpu     *gpu.GPU
	qp      *rnic.QP
	key     uint32
	vaBase  uint64
}

// newGDRBench registers gdrBytes of GPU memory either through the eMTT
// (translated) or the ATS/ATC path.
func newGDRBench(t *testing.T, cfg rnic.Config, emttEntry bool, gdrBytes uint64) *bench {
	t.Helper()
	u, err := iommu.New(iommu.Config{Mode: iommu.ModeNoPT, ATSEnabled: true})
	if err != nil {
		t.Fatal(err)
	}
	m := mem.New(mem.Config{TotalBytes: 16 << 30})
	c := pcie.NewComplex(pcie.Config{}, u, m)
	sw := c.AddSwitch("sw0")
	r, err := rnic.New(c, sw, cfg)
	if err != nil {
		t.Fatal(err)
	}
	g, err := gpu.New(c, sw, "gpu0", 2*gdrBytes)
	if err != nil {
		t.Fatal(err)
	}
	if err := sw.RegisterGDR(r.PF().BDF()); err != nil {
		t.Fatal(err)
	}
	gmem, err := g.AllocDeviceMemory(gdrBytes)
	if err != nil {
		t.Fatal(err)
	}
	pd := r.AllocPD()
	va := addr.Range{Start: 0x100000000, Size: gdrBytes}
	var entry rnic.MTTEntry
	if emttEntry {
		entry = rnic.MTTEntry{Base: gmem.Start, Owner: addr.OwnerGPU, Translated: true}
	} else {
		const da = 0x700000000
		if _, err := c.IOMMU().Map(addr.NewDARange(da, gdrBytes), addr.HPA(gmem.Start)); err != nil {
			t.Fatal(err)
		}
		entry = rnic.MTTEntry{Base: da, Owner: addr.OwnerGPU}
	}
	mr, err := r.RegisterMR(pd, va, entry)
	if err != nil {
		t.Fatal(err)
	}
	qp, err := r.CreateQP(pd)
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range []rnic.QPState{rnic.QPInit, rnic.QPReadyToReceive, rnic.QPReadyToSend} {
		if err := r.ModifyQP(qp, st); err != nil {
			t.Fatal(err)
		}
	}
	return &bench{complex: c, rnic: r, gpu: g, qp: qp, key: mr.Key, vaBase: va.Start}
}

func TestSweepValidation(t *testing.T) {
	b := newGDRBench(t, rnic.DefaultConfig("rnic0"), true, 64<<20)
	s := &Sweep{RNIC: b.rnic, QP: b.qp, Key: b.key, VABase: b.vaBase, Stack: VStellar()}
	if _, err := s.Run(nil); !errors.Is(err, ErrNoSizes) {
		t.Errorf("err = %v", err)
	}
}

func TestLatencyMonotoneInSize(t *testing.T) {
	b := newGDRBench(t, rnic.DefaultConfig("rnic0"), true, 64<<20)
	s := &Sweep{RNIC: b.rnic, QP: b.qp, Key: b.key, VABase: b.vaBase,
		Stack: VStellar(), WireRTT: 4 * time.Microsecond}
	pts, err := s.Run([]uint64{64, 4096, 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if !(pts[0].Latency < pts[1].Latency && pts[1].Latency < pts[2].Latency) {
		t.Errorf("latencies not monotone: %v %v %v", pts[0].Latency, pts[1].Latency, pts[2].Latency)
	}
}

func TestEMTTBandwidthFlatAcrossSizes(t *testing.T) {
	// Figure 8's vStellar line: bandwidth stays flat as the working set
	// grows, because the eMTT never misses.
	b := newGDRBench(t, rnic.DefaultConfig("rnic0"), true, 256<<20)
	s := &Sweep{RNIC: b.rnic, QP: b.qp, Key: b.key, VABase: b.vaBase,
		Stack: VStellar(), Iterations: 4, Stride: 1 << 20}
	pts, err := s.Run([]uint64{256 << 10, 4 << 20, 32 << 20})
	if err != nil {
		t.Fatal(err)
	}
	first := pts[0].Bandwidth
	for _, p := range pts {
		if p.Bandwidth < first*0.95 || p.Bandwidth > first*1.05 {
			t.Errorf("eMTT bandwidth moved: %v vs %v at size %d", p.Bandwidth, first, p.Size)
		}
		if p.ATCMissRate != 0 {
			t.Errorf("eMTT sweep saw ATC misses: %v", p.ATCMissRate)
		}
	}
	if g := Gbps(first); g < 350 || g > 430 {
		t.Errorf("eMTT GDR bandwidth = %.0f Gbps, want ~400 (paper: 393)", g)
	}
}

func TestATSModeBandwidthDropsWhenATCThrashes(t *testing.T) {
	// Figure 8's CX6 line: beyond the ATC reach the per-page ATS cost
	// eats into bandwidth.
	cfg := rnic.ConfigCX6("cx6")
	cfg.ATCCapacityPages = 512 // 2 MiB reach at 4 KiB pages
	b := newGDRBench(t, cfg, false, 256<<20)
	s := &Sweep{RNIC: b.rnic, QP: b.qp, Key: b.key, VABase: b.vaBase,
		Stack: VStellar(), Iterations: 2}

	small, err := s.Run([]uint64{1 << 20}) // fits: second iteration hits
	if err != nil {
		t.Fatal(err)
	}
	big, err := s.Run([]uint64{16 << 20}) // 8x the ATC: thrash
	if err != nil {
		t.Fatal(err)
	}
	if big[0].ATCMissRate <= small[0].ATCMissRate {
		t.Errorf("miss rates: big %v <= small %v", big[0].ATCMissRate, small[0].ATCMissRate)
	}
	if big[0].Bandwidth >= small[0].Bandwidth {
		t.Errorf("ATS bandwidth did not drop: %.0f -> %.0f Gbps",
			Gbps(small[0].Bandwidth), Gbps(big[0].Bandwidth))
	}
}

func TestVFVxLANOverheadVsVStellar(t *testing.T) {
	// Figure 13's comparison: the VF stack adds ~7% small-message
	// latency and loses ~9% large-message bandwidth.
	run := func(stack StackOverhead) []Point {
		b := newGDRBench(t, rnic.DefaultConfig("rnic0"), true, 64<<20)
		s := &Sweep{RNIC: b.rnic, QP: b.qp, Key: b.key, VABase: b.vaBase,
			Stack: stack, WireRTT: 4 * time.Microsecond}
		pts, err := s.Run([]uint64{8, 8 << 20})
		if err != nil {
			t.Fatal(err)
		}
		return pts
	}
	vs := run(VStellar())
	vf := run(VFVxLAN())
	latOverhead := float64(vf[0].Latency)/float64(vs[0].Latency) - 1
	if latOverhead < 0.02 || latOverhead > 0.2 {
		t.Errorf("VF small-message latency overhead = %.1f%%, want ~7%%", latOverhead*100)
	}
	bwLoss := 1 - vf[1].Bandwidth/vs[1].Bandwidth
	if bwLoss < 0.05 || bwLoss > 0.15 {
		t.Errorf("VF bandwidth loss = %.1f%%, want ~9%%", bwLoss*100)
	}
}

func TestGbps(t *testing.T) {
	if Gbps(1e9) != 8 {
		t.Error("Gbps conversion")
	}
}
