package experiments

import (
	"fmt"
	"time"

	"repro/internal/churn"
	"repro/internal/rnic"
	"repro/internal/rund"
)

// churnCalibrationBytes is the paper's Figure 6 extreme point: a 1.6 TB
// (decimal) guest that takes ~390 s to full-pin. The decimal size is
// exactly 390,625,000 4 KiB pages, so the pin span is a pure function
// of the per-page pin cost.
const churnCalibrationBytes = 1_600_000_000_000

// churnCalibrationTarget is the paper's measured full-pin time.
const churnCalibrationTarget = 390.0

// churnCell is one fleet configuration of the fig6-fleet sweep.
type churnCell struct {
	label string
	cfg   churn.Config
}

// churnCells returns the four fleets fig6-fleet runs. The first three
// sweep the serverless operating points — VFIO full-pin over an
// exclusive (SR-IOV VF) inventory, PVDMA on-demand over a shared
// (IP-pool) inventory, and PVDMA with MicroVM recycling — and the
// fourth is the single-knob calibration fleet whose every container is
// the paper's 1.6 TB pod.
func churnCells() []churnCell {
	pinAll := churn.DefaultConfig()
	pinAll.Hosts = 8
	pinAll.Window = 30 * time.Second
	pinAll.Mode = rund.PinFull
	pinAll.Sizes = []uint64{4 << 30, 8 << 30}
	pinAll.MeanLifetime = 10 * time.Second
	// An exclusive VF inventory sized just under the offered load, so
	// grants queue and the cold-start tail shows the slot wait.
	pinAll.Pool = rnic.DevPoolConfig{Mode: rnic.DeviceExclusive, Capacity: 24, Devices: 24, Queue: true}

	pvdma := churn.DefaultConfig()

	recycle := churn.DefaultConfig()
	recycle.Hosts = 8
	recycle.Window = 30 * time.Second
	recycle.Recycle = true

	calib := churn.DefaultConfig()
	calib.Hosts = 1
	calib.Window = 10 * time.Second
	calib.MeanInterarrival = 500 * time.Millisecond
	calib.Sizes = []uint64{churnCalibrationBytes}
	calib.Mode = rund.PinFull
	calib.MeanLifetime = 2 * time.Second
	// Every arrival stays active through its ~390 s pin, so the host
	// must hold ~20 concurrent 1.6 TB guests.
	calib.HostMemoryBytes = 64 << 40
	calib.Pool = rnic.DevPoolConfig{Mode: rnic.DeviceShared, Capacity: 64, Devices: 4, Queue: true}

	return []churnCell{
		{"pin-all/excl-vf", pinAll},
		{"pvdma/ip-pool", pvdma},
		{"pvdma/recycle", recycle},
		{"calib-1.6TB", calib},
	}
}

// runChurnFleet executes every cell under the session and returns the
// reports in cell order. Cells are independent fleets, so they run
// under the session's worker bound; each builds its own sharded engine,
// at most one shard per host (churn hosts never interact, which is what
// makes the windows legal).
func runChurnFleet(s *Session) ([]churnCell, []*churn.Report, error) {
	cells := churnCells()
	reps := make([]*churn.Report, len(cells))
	err := s.runCells(len(cells), func(i int) error {
		cfg := cells[i].cfg
		rep, err := churn.Run(s.newShardedEngine(cfg.Hosts), cfg)
		if err != nil {
			return fmt.Errorf("fig6-fleet %s: %w", cells[i].label, err)
		}
		if rep.Teardowns != rep.ColdStarts {
			return fmt.Errorf("fig6-fleet %s: fleet did not drain (%d starts, %d teardowns)",
				cells[i].label, rep.ColdStarts, rep.Teardowns)
		}
		reps[i] = rep
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	return cells, reps, nil
}

// ChurnFleet is fig6-fleet: the serverless churn driver run at fleet
// scale, turning the paper's Figure 6 cold-start point into
// distributions under VF/IP-pool exhaustion, PVDMA eviction pressure
// and MicroVM recycling, plus the 390 s / 1.6 TB full-pin calibration.
func ChurnFleet(s *Session) (*Table, error) {
	t := &Table{
		ID:    "fig6-fleet",
		Title: "Serverless churn: cold-start distributions under pool exhaustion and pin pressure",
		Header: []string{"fleet", "starts", "queued", "rejects",
			"cold p50/p99/p999 (s)", "vf/pin/vnet p99 (s)", "teardown p99 (s)",
			"evictions", "peak pin (GiB)", "pool peak held/wait"},
	}
	cells, reps, err := runChurnFleet(s)
	if err != nil {
		return nil, err
	}
	total := 0
	for i, rep := range reps {
		total += rep.ColdStarts
		t.AddRow(cells[i].label,
			fmt.Sprintf("%d", rep.ColdStarts),
			fmt.Sprintf("%d", rep.WaitedGrants),
			fmt.Sprintf("%d", rep.PoolFailures+rep.MemFailures),
			fmt.Sprintf("%.2f/%.2f/%.2f", rep.ColdStart.P50, rep.ColdStart.P99, rep.ColdStart.P999),
			fmt.Sprintf("%.3f/%.3f/%.3f", rep.VFSpan.P99, rep.PinSpan.P99, rep.VNetSpan.P99),
			fmt.Sprintf("%.2f", rep.Teardown.P99),
			fmt.Sprintf("%d", rep.Evictions),
			fmt.Sprintf("%.1f", float64(rep.PeakPinned)/(1<<30)),
			fmt.Sprintf("%d/%d", rep.PeakOccupancy, rep.PeakQueued))
	}
	calib := reps[len(reps)-1]
	dev := 100 * (calib.PinSpan.P50 - churnCalibrationTarget) / churnCalibrationTarget
	t.Notes = append(t.Notes,
		fmt.Sprintf("%d container lifecycles fleet-wide; every fleet drains (teardowns == cold starts)", total),
		fmt.Sprintf("calibration: 1.6 TB full-pin span p50 = %.2f s vs paper's %.0f s (%+.2f%%)",
			calib.PinSpan.P50, churnCalibrationTarget, dev),
		"pin-all tail includes exclusive-VF queue wait; pvdma fleets pin a 1/64 working set under a 1 GiB/host budget")
	return t, nil
}
