package workload

import "repro/internal/sim"

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
)

// StepResult is one simulated training step.
type StepResult struct {
	// BusBW is the ring's bus bandwidth per GPU: the host's share
	// over its 8 GPUs.
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
// slice is never mutated. Shared by the DP rings of Figures 15 and 16
// and the contended-cluster jobs, so both place identically.
// The permutation depends only on the list's length, so ordering host
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

// Step is one training step of m on p, given the DP ring's bus
// bandwidth per host in bytes/s. Figures 15 and 16 measure that rate
// on the fabric (a collective.Ring over OrderHosts' order) and pass it
// here; the model and platform play no part in the measurement, so
// jobs that differ only in those share one ring.
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
