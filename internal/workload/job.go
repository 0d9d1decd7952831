package workload

import (
	"errors"
	"fmt"

	"repro/internal/collective"
	"repro/internal/fabric"
	"repro/internal/multipath"
	"repro/internal/sim"
	"repro/internal/transport"
)

// Placement is the cluster-scheduling strategy of §8.2.
type Placement uint8

const (
	// Reranked co-locates communicating ranks (contiguous hosts),
	// minimising cross-switch traffic.
	Reranked Placement = iota
	// RandomRanking shuffles ranks across segments, simulating many
	// small uncoordinated jobs sharing the fabric.
	RandomRanking
)

func (p Placement) String() string {
	if p == Reranked {
		return "reranked"
	}
	return "random"
}

// ErrNoHosts is returned when a job gets an empty participant list.
var ErrNoHosts = errors.New("workload: no hosts")

// JobConfig validation errors. Each names the field it rejects so
// callers can distinguish configuration mistakes with errors.Is.
var (
	ErrPaths    = errors.New("workload: Paths below 1")
	ErrSimBytes = errors.New("workload: SimBytes implausibly large (negative value converted to uint64?)")
)

// Step-model constants no experiment varies.
const (
	// gpusPerHost divides the ring's per-host bus bandwidth into the
	// per-GPU share: 8 GPUs share each server's NICs.
	gpusPerHost = 8
	// overlapFactor is the fraction of communication hidden behind
	// compute (§9: overlap exists but is incomplete).
	overlapFactor = 0.5
	// virtOverhead is the virtualization stack's bandwidth loss: none,
	// since vStellar's data path is direct-mapped (Figure 15).
	virtOverhead = 0
	// flowBase is the ring's first flow ID: the ring is alone on its fabric.
	flowBase = 0
)

// JobConfig describes one training job's communication experiment.
type JobConfig struct {
	Model    ModelConfig
	Platform Platform
	// Alg/Paths select the transport stack: OBS/128 for Stellar,
	// SinglePath/1 for the CX7 ECMP baseline.
	Alg   multipath.Algorithm
	Paths int
	// Placement orders the DP ring over the hosts.
	Placement Placement
	// PlacementSeed shuffles RandomRanking deterministically.
	PlacementSeed uint64
	// SimBytes is the simulated AllReduce size used to measure bus
	// bandwidth; the real DP volume is then divided by the measured
	// rate. Scaling the wire volume (not the model) keeps event counts
	// tractable at 1,024-GPU shapes.
	SimBytes uint64
}

// Validate rejects out-of-domain JobConfig fields. A zero SimBytes,
// which RingBusBW replaces with its default, is legal.
func (cfg JobConfig) Validate() error {
	if cfg.Paths < 1 {
		return fmt.Errorf("%w: %d", ErrPaths, cfg.Paths)
	}
	// A negative int flowing through a uint64 conversion lands in the
	// top half of the range; no real AllReduce is within 2^62 bytes.
	if cfg.SimBytes > 1<<62 {
		return fmt.Errorf("%w: %d", ErrSimBytes, cfg.SimBytes)
	}
	return nil
}

// StepResult is one simulated training step.
type StepResult struct {
	// BusBW is the measured per-participant AllReduce bandwidth.
	BusBW float64
	// CommTime is the exposed (non-overlapped) communication time.
	CommTime sim.Duration
	// ComputeTime is the modelled compute time.
	ComputeTime sim.Duration
	// StepTime is compute + exposed communication.
	StepTime sim.Duration
}

// Speed returns steps per second.
func (r StepResult) Speed() float64 {
	if r.StepTime <= 0 {
		return 0
	}
	return 1 / r.StepTime.Seconds()
}

// OrderHosts applies the placement policy to the participant list:
// Reranked returns the input order (contiguous, co-located ranks);
// RandomRanking applies a deterministic seeded shuffle. The input
// slice is never mutated. Shared by RingBusBW's DP ring and the
// jobgraph cluster scheduler, so both layers place identically. The
// permutation depends only on the list's length, so ordering host
// indices predicts the ring an endpoint list of that length gets.
func OrderHosts[T any](hosts []T, p Placement, seed uint64) []T {
	out := make([]T, len(hosts))
	copy(out, hosts)
	if p == RandomRanking {
		rng := sim.NewRNG(seed)
		rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	}
	return out
}

// RunStep measures one training step: RingBusBW drives the job's DP
// AllReduce on the fabric, and Step composes the full step time from
// the measured bus bandwidth with the analytic model.
func RunStep(eng *sim.Engine, f *fabric.Fabric, eps []*transport.Endpoint, cfg JobConfig) (StepResult, error) {
	busBW, err := RingBusBW(eng, eps, cfg)
	if err != nil {
		return StepResult{}, err
	}
	return Step(cfg.Model, cfg.Platform, busBW), nil
}

// RingBusBW is RunStep's simulated half: it drives one DP AllReduce of
// cfg.SimBytes over eps, in cfg's placement order with cfg's transport
// stack, and returns the ring's bus bandwidth per host in bytes/s. The
// model and platform play no part, so jobs that differ only in those
// share one measurement.
func RingBusBW(eng *sim.Engine, eps []*transport.Endpoint, cfg JobConfig) (float64, error) {
	if len(eps) < 2 {
		return 0, ErrNoHosts
	}
	if err := cfg.Validate(); err != nil {
		return 0, err
	}
	if cfg.SimBytes == 0 {
		cfg.SimBytes = 8 << 20
	}
	ordered := OrderHosts(eps, cfg.Placement, cfg.PlacementSeed)
	ring, err := collective.NewRing(ordered, flowBase, cfg.Alg, cfg.Paths)
	if err != nil {
		return 0, err
	}
	defer ring.Close()

	var res collective.Result
	ring.Reduce(eng, cfg.SimBytes, func(r collective.Result) { res = r })
	eng.RunAll()
	if res.BusBW <= 0 {
		return 0, errors.New("workload: allreduce produced no bandwidth sample")
	}
	return res.BusBW, nil
}

// Step is RunStep's analytic half: one training step of m on p, given
// the DP ring's bus bandwidth per host (RingBusBW).
func Step(m ModelConfig, p Platform, ringBusBW float64) StepResult {
	busBW := ringBusBW / gpusPerHost * (1 - virtOverhead)

	v := m.StepVolumes()
	commSec := float64(v.DP) / busBW
	// TP rides NVLink; PP and EP cross the network like DP.
	commSec += float64(v.TP) / p.NVLinkBW
	commSec += float64(v.PP+v.EP) / busBW
	exposed := commSec * (1 - overlapFactor)

	compute := m.StepComputeTime(p)
	step := compute + sim.Duration(exposed*1e9)
	return StepResult{
		BusBW:       busBW,
		CommTime:    sim.Duration(exposed * 1e9),
		ComputeTime: compute,
		StepTime:    step,
	}
}
