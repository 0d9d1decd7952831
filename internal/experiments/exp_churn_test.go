package experiments

import (
	"math"
	"testing"
)

// TestChurnFleetScale pins the fig6-fleet acceptance floor: at least
// 2000 lifecycles fleet-wide, the calibration cell within 5% of the
// paper's 390 s / 1.6 TB full-pin point, and each operating point
// exercising its mechanism (queueing, evictions, recycling).
func TestChurnFleetScale(t *testing.T) {
	s := NewSession(42)
	cells, reps, err := runChurnFleet(s)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for i, rep := range reps {
		total += rep.ColdStarts
		if rep.Teardowns != rep.ColdStarts {
			t.Errorf("%s: %d starts but %d teardowns", cells[i].label, rep.ColdStarts, rep.Teardowns)
		}
	}
	if total < 2000 {
		t.Errorf("fleet-wide lifecycles = %d, want >= 2000", total)
	}

	pinAll, pvdma, recycle, calib := reps[0], reps[1], reps[2], reps[3]
	if pinAll.WaitedGrants == 0 || pinAll.PeakQueued == 0 {
		t.Error("pin-all cell never saturated its exclusive VF inventory")
	}
	if pinAll.Evictions != 0 {
		t.Errorf("pin-all cell recorded %d PVDMA evictions", pinAll.Evictions)
	}
	if pvdma.Evictions == 0 {
		t.Error("pvdma cell produced no eviction pressure")
	}
	if recycle.Recycled == 0 {
		t.Error("recycle cell never restarted a MicroVM")
	}
	if calib.ColdStarts == 0 {
		t.Fatal("calibration cell ran no containers")
	}
	if dev := math.Abs(calib.PinSpan.P50-churnCalibrationTarget) / churnCalibrationTarget; dev > 0.05 {
		t.Errorf("1.6 TB full-pin span p50 = %.2f s, off the paper's %.0f s by %.1f%%",
			calib.PinSpan.P50, churnCalibrationTarget, 100*dev)
	}
}
