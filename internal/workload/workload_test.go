package workload

import (
	"testing"
	"time"

	"repro/internal/fabric"
	"repro/internal/multipath"
	"repro/internal/sim"
	"repro/internal/transport"
)

func TestTable1CarriesPublishedNumbers(t *testing.T) {
	rows := Table1()
	if len(rows) != 4 {
		t.Fatalf("Table1 has %d rows", len(rows))
	}
	llama33 := rows[0]
	if llama33.TP != 2 || llama33.PP != 3 || llama33.DP != 148 ||
		llama33.GradAccum != 58 || llama33.GlobalBatch != 8584 {
		t.Errorf("Llama-33B strategy wrong: %+v", llama33)
	}
	if llama33.MeasuredDPRatio != 0.2095 || llama33.MeasuredTPRatio != 0.0457 || llama33.MeasuredPPRatio != 0.0265 {
		t.Error("Llama-33B measured ratios wrong")
	}
	gpt := rows[1]
	if gpt.TP != 4 || gpt.PP != 12 || gpt.DP != 34 || gpt.MeasuredPPRatio != 0.2014 {
		t.Errorf("GPT-200B row wrong: %+v", gpt)
	}
	if rows[2].Framework != DeepSpeedZero1 || rows[2].MeasuredDPRatio != 0.173 {
		t.Error("Zero1 row wrong")
	}
	if rows[3].Framework != DeepSpeedZero3 || rows[3].MeasuredDPRatio != 0.105 {
		t.Error("Zero3 row wrong")
	}
	if gpt.GPUs() != 4*12*34 {
		t.Errorf("GPUs() = %d", gpt.GPUs())
	}
}

func TestStepVolumesStructure(t *testing.T) {
	rows := Table1()
	llama33, gpt := rows[0], rows[1]
	vL, vG := llama33.StepVolumes(), gpt.StepVolumes()

	// No TP/PP traffic without those dimensions.
	zero1 := rows[2]
	vZ := zero1.StepVolumes()
	if vZ.TP != 0 || vZ.PP != 0 || vZ.DP == 0 {
		t.Errorf("Zero1 volumes = %+v", vZ)
	}
	// Deeper pipelines and more grad accumulation mean more PP bytes.
	if vG.PP <= vL.PP {
		t.Errorf("GPT PP volume %d not above Llama %d", vG.PP, vL.PP)
	}
	// Wider TP at bigger hidden means more TP bytes.
	if vG.TP <= vL.TP {
		t.Errorf("GPT TP volume %d not above Llama %d", vG.TP, vL.TP)
	}
	// DP volume is bounded by 2x the shard size.
	shard := llama33.Params * 2 / uint64(llama33.TP*llama33.PP)
	if vL.DP > 2*shard {
		t.Errorf("Llama DP volume %d exceeds 2x shard %d", vL.DP, 2*shard)
	}
}

func TestZero3MovesMoreThanZero1PerParam(t *testing.T) {
	rows := Table1()
	z1, z3 := rows[2], rows[3]
	perParam1 := float64(z1.StepVolumes().DP) / float64(z1.Params)
	perParam3 := float64(z3.StepVolumes().DP) / float64(z3.Params)
	if perParam3 <= perParam1 {
		t.Errorf("Zero3 per-param traffic %.3f not above Zero1 %.3f", perParam3, perParam1)
	}
}

func TestRatiosQualitativeOrdering(t *testing.T) {
	// The analytic model will not match production percentages (the
	// paper's jobs include measurement effects we cannot observe), but
	// the orderings Table 1 shows must hold; see EXPERIMENTS.md.
	p := DefaultPlatform()
	rows := Table1()
	_, dpL, ppL := rows[0].Ratios(p)
	tpG, _, ppG := rows[1].Ratios(p)
	tpL, _, _ := rows[0].Ratios(p)

	if ppG <= ppL {
		t.Errorf("GPT PP ratio %.3f not above Llama %.3f (paper: 20.14%% vs 2.65%%)", ppG, ppL)
	}
	if tpG <= tpL {
		t.Errorf("GPT TP ratio %.3f not above Llama %.3f (paper: 10.88%% vs 4.57%%)", tpG, tpL)
	}
	if dpL <= 0.05 {
		t.Errorf("Llama DP ratio %.3f; expected a dominant DP share (paper: 20.95%%)", dpL)
	}
	// All ratios are sane fractions.
	for _, m := range rows {
		tp, dp, pp := m.Ratios(p)
		for _, r := range []float64{tp, dp, pp} {
			if r < 0 || r > 1 {
				t.Errorf("%s ratio out of range: %v", m.Name, r)
			}
		}
	}
}

func TestStepComputeScalesWithModel(t *testing.T) {
	p := DefaultPlatform()
	rows := Table1()
	small := rows[2].StepComputeTime(p) // Llama-2B, 16 GPUs, tiny batch
	big := rows[1].StepComputeTime(p)   // GPT-200B
	if small >= big {
		t.Errorf("compute times: 2B %v >= 200B %v", small, big)
	}
	if small <= 0 {
		t.Error("non-positive compute time")
	}
}

func newJobCluster(t *testing.T, seed uint64, hostsPerSeg int) (*sim.Engine, *fabric.Fabric, []*transport.Endpoint) {
	t.Helper()
	eng := sim.NewEngine(seed)
	f := fabric.New(eng, fabric.Config{
		Segments: 2, HostsPerSegment: hostsPerSeg, Aggs: 16,
		HostLinkBW: 12.5e9, FabricLinkBW: 12.5e9,
		LinkDelay: 2 * time.Microsecond, QueueLimit: 4 << 20, ECNThreshold: 256 << 10,
	})
	var eps []*transport.Endpoint
	for h := 0; h < f.NumHosts(); h++ {
		eps = append(eps, transport.NewEndpoint(f, fabric.HostID(h), transport.Config{}))
	}
	return eng, f, eps
}

func TestRunStepProducesStep(t *testing.T) {
	eng, f, eps := newJobCluster(t, 10, 8)
	cfg := JobConfig{
		Model: Table1()[0], Platform: DefaultPlatform(),
		Alg: multipath.OBS, Paths: 64,
		Placement: Reranked, SimBytes: 4 << 20,
	}
	res, err := RunStep(eng, f, eps, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.BusBW <= 0 || res.StepTime <= res.ComputeTime {
		t.Errorf("res = %+v", res)
	}
	if res.Speed() <= 0 {
		t.Error("Speed() non-positive")
	}
}

func TestRunStepStellarBeatsSinglePathUnderRandomRanking(t *testing.T) {
	// Figure 16b's mechanism: with randomly-ranked placement the DP
	// ring crosses segments everywhere; single-path ECMP collides on
	// the agg layer while 64/128-path spray stays clean.
	base := JobConfig{
		Model: Table1()[0], Platform: DefaultPlatform(),
		Placement: RandomRanking, PlacementSeed: 3,
		SimBytes: 4 << 20,
	}
	engA, fA, epsA := newJobCluster(t, 11, 8)
	stellar := base
	stellar.Alg, stellar.Paths = multipath.OBS, 128
	resStellar, err := RunStep(engA, fA, epsA, stellar)
	if err != nil {
		t.Fatal(err)
	}
	engB, fB, epsB := newJobCluster(t, 11, 8)
	cx7 := base
	cx7.Alg, cx7.Paths = multipath.SinglePath, 128 // ECMP: one random path per conn
	resCX7, err := RunStep(engB, fB, epsB, cx7)
	if err != nil {
		t.Fatal(err)
	}
	if resStellar.BusBW <= resCX7.BusBW {
		t.Errorf("stellar busBW %.2e not above single-path %.2e", resStellar.BusBW, resCX7.BusBW)
	}
	if resStellar.Speed() <= resCX7.Speed() {
		t.Errorf("stellar speed %.4f not above cx7 %.4f", resStellar.Speed(), resCX7.Speed())
	}
}

func TestRunStepRerankedNarrowsGap(t *testing.T) {
	// Figure 16a: with reranked placement congestion is minimal and the
	// transport gap shrinks.
	gap := func(placement Placement) float64 {
		speeds := make(map[string]float64)
		for _, tc := range []struct {
			name  string
			alg   multipath.Algorithm
			paths int
		}{{"stellar", multipath.OBS, 128}, {"cx7", multipath.SinglePath, 128}} {
			eng, f, eps := newJobCluster(t, 12, 8)
			cfg := JobConfig{
				Model: Table1()[0], Platform: DefaultPlatform(),
				Alg: tc.alg, Paths: tc.paths,
				Placement: placement, PlacementSeed: 5,
				SimBytes: 4 << 20,
			}
			res, err := RunStep(eng, f, eps, cfg)
			if err != nil {
				t.Fatal(err)
			}
			speeds[tc.name] = res.Speed()
		}
		return speeds["stellar"]/speeds["cx7"] - 1
	}
	reranked := gap(Reranked)
	random := gap(RandomRanking)
	if random <= reranked {
		t.Errorf("gap under random ranking (%.3f) not above reranked (%.3f)", random, reranked)
	}
}

func TestRunStepValidation(t *testing.T) {
	eng, f, _ := newJobCluster(t, 14, 4)
	if _, err := RunStep(eng, f, nil, JobConfig{}); err == nil {
		t.Error("empty host list accepted")
	}
}

func TestPlacementString(t *testing.T) {
	if Reranked.String() != "reranked" || RandomRanking.String() != "random" {
		t.Error("Placement strings")
	}
}

func TestMoEExpertParallelVolumes(t *testing.T) {
	moe := MixtralLike()
	v := moe.StepVolumes()
	if v.EP == 0 {
		t.Fatal("MoE job has no EP volume")
	}
	// Table 1 jobs (EP=1) carry no EP traffic.
	for _, m := range Table1() {
		if m.StepVolumes().EP != 0 {
			t.Errorf("%s has EP volume without expert parallelism", m.Name)
		}
	}
	// More experts, more all-to-all bytes.
	wider := moe
	wider.ExpertParallel = 16
	if wider.StepVolumes().EP <= v.EP {
		t.Error("EP volume did not grow with expert count")
	}
	// Ratios stay sane for the MoE job too.
	tp, dp, pp := moe.Ratios(DefaultPlatform())
	for _, r := range []float64{tp, dp, pp} {
		if r < 0 || r > 1 {
			t.Errorf("MoE ratio out of range: %v", r)
		}
	}
}

func TestMoEStepSlowerThanDenseEquivalent(t *testing.T) {
	eng, f, eps := newJobCluster(t, 31, 8)
	moe := MixtralLike()
	dense := moe
	dense.ExpertParallel = 1
	cfg := JobConfig{
		Platform: DefaultPlatform(), Alg: multipath.OBS, Paths: 64,
		Placement: Reranked, SimBytes: 2 << 20,
	}
	cfg.Model = moe
	moeRes, err := RunStep(eng, f, eps, cfg)
	if err != nil {
		t.Fatal(err)
	}
	eng2, f2, eps2 := newJobCluster(t, 31, 8)
	cfg.Model = dense
	denseRes, err := RunStep(eng2, f2, eps2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if moeRes.CommTime <= denseRes.CommTime {
		t.Errorf("MoE comm %v not above dense %v (EP traffic missing)", moeRes.CommTime, denseRes.CommTime)
	}
}
