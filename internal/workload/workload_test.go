package workload

import "testing"

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

func TestStepComposesComputeAndExposedComm(t *testing.T) {
	m, p := Table1()[0], DefaultPlatform()
	res := Step(m, p, 40e9)
	if res.BusBW != 40e9/gpusPerHost {
		t.Errorf("BusBW = %.3e, want the ring rate over %d GPUs", res.BusBW, gpusPerHost)
	}
	if res.ComputeTime != m.StepComputeTime(p) || res.CommTime <= 0 {
		t.Errorf("res = %+v", res)
	}
	if res.StepTime != res.ComputeTime+res.CommTime {
		t.Errorf("step %v is not compute %v + exposed comm %v", res.StepTime, res.ComputeTime, res.CommTime)
	}
	if res.Speed() != 1/res.StepTime.Seconds() {
		t.Errorf("Speed() = %v, want 1/%v", res.Speed(), res.StepTime)
	}
}

func TestStepFasterAtHigherBusBW(t *testing.T) {
	// Figure 16's mechanism on the model side: a ring that sprays past
	// collisions measures a higher bus bandwidth, which exposes less
	// communication and speeds up the step; compute is unchanged.
	m, p := Table1()[0], DefaultPlatform()
	slow, fast := Step(m, p, 20e9), Step(m, p, 40e9)
	if fast.CommTime >= slow.CommTime || fast.Speed() <= slow.Speed() {
		t.Errorf("40 GB/s step %+v not faster than 20 GB/s step %+v", fast, slow)
	}
	if fast.ComputeTime != slow.ComputeTime {
		t.Errorf("compute moved with bandwidth: %v vs %v", fast.ComputeTime, slow.ComputeTime)
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
	moe := MixtralLike()
	dense := moe
	dense.ExpertParallel = 1
	moeRes := Step(moe, DefaultPlatform(), 40e9)
	denseRes := Step(dense, DefaultPlatform(), 40e9)
	if moeRes.CommTime <= denseRes.CommTime {
		t.Errorf("MoE comm %v not above dense %v (EP traffic missing)", moeRes.CommTime, denseRes.CommTime)
	}
}
