package jobgraph

import (
	"fmt"
	"time"

	"repro/internal/sim"
	"repro/internal/workload"
)

// GenConfig drives FromModel: the Table-1 step model rendered as an op
// graph so Fig 15/16 shapes are reproducible as traces.
type GenConfig struct {
	// Model supplies the parallel strategy and communication volumes.
	Model workload.ModelConfig
	// Platform supplies compute and NVLink rates for op durations.
	Platform workload.Platform
	// Ranks is the DP ring width on the simulated fleet (like the
	// host count of fig15's and fig16's rings).
	Ranks int
	// Steps is the number of training steps to unroll.
	Steps int
	// CollectiveBytes is the simulated DP AllReduce size per step —
	// the same wire-volume scaling fig15's and fig16's reduce sizes
	// apply, keeping event counts tractable at 1,024-GPU shapes.
	CollectiveBytes uint64
	// ComputeTime overrides the modelled per-step compute time; zero
	// means Model.StepComputeTime(Platform). Experiments that care
	// about communication contention rather than absolute step times
	// set this small so makespans are communication-dominated.
	ComputeTime sim.Duration
}

// FromModel unrolls the closed-form step model into a graph: per step,
// one compute op per rank, a pipeline-parallel activation handoff
// between neighbouring ranks when the model has PP stages (send + recv
// pairs, sized by the model's PP:DP volume ratio), and one DP ring
// AllReduce over all ranks gated on every rank's compute (and PP
// receive) completing. Step s+1's compute depends on step s's
// AllReduce, matching the no-overlap step structure the paper's
// Table-1 ratios assume.
func FromModel(cfg GenConfig) (*Graph, error) {
	if cfg.Ranks < 2 {
		return nil, fmt.Errorf("%w: FromModel needs >= 2 ranks", ErrRanks)
	}
	if cfg.Steps < 1 {
		cfg.Steps = 1
	}
	if cfg.CollectiveBytes == 0 {
		cfg.CollectiveBytes = 8 << 20
	}
	compute := cfg.ComputeTime
	if compute == 0 {
		compute = cfg.Model.StepComputeTime(cfg.Platform)
	}
	// PP handoff size: scale the simulated collective the way the
	// model's volumes relate, floored so the op stays a real transfer.
	var ppBytes uint64
	v := cfg.Model.StepVolumes()
	if cfg.Model.PP > 1 && v.DP > 0 {
		ppBytes = cfg.CollectiveBytes * v.PP / v.DP
		if ppBytes < 64<<10 {
			ppBytes = 64 << 10
		}
	}

	all := make([]int, cfg.Ranks)
	for i := range all {
		all[i] = i
	}
	b := NewBuilder(cfg.Model.Name, cfg.Ranks)
	prevAR := ""
	for s := 0; s < cfg.Steps; s++ {
		arDeps := make([]string, 0, 2*cfg.Ranks)
		for r := 0; r < cfg.Ranks; r++ {
			var deps []string
			if prevAR != "" {
				deps = []string{prevAR}
			}
			c := b.Compute(fmt.Sprintf("s%d/c%d", s, r), r, compute, deps...)
			arDeps = append(arDeps, c)
		}
		if ppBytes > 0 {
			for r := 0; r+1 < cfg.Ranks; r++ {
				tag := uint64(s)
				snd := b.Send(fmt.Sprintf("s%d/pp%d", s, r), r, r+1, ppBytes, tag,
					fmt.Sprintf("s%d/c%d", s, r))
				rcv := b.Recv(fmt.Sprintf("s%d/ppr%d", s, r+1), r+1, r, tag,
					fmt.Sprintf("s%d/c%d", s, r+1))
				arDeps = append(arDeps, snd, rcv)
			}
		}
		prevAR = b.Collective(fmt.Sprintf("s%d/ar", s), all, cfg.CollectiveBytes, arDeps...)
	}
	g, err := b.Build()
	if err != nil {
		return nil, err
	}
	g.Comment = fmt.Sprintf("generated from %s: %d ranks x %d steps, %d B allreduce",
		cfg.Model.Name, cfg.Ranks, cfg.Steps, cfg.CollectiveBytes)
	return g, nil
}

// InferenceBurst synthesizes an inference-serving job: a frontend
// (rank 0) scatters requests round-robin to worker ranks, each worker
// computes for think time and sends the response back, and the
// frontend acknowledges each response with a short compute. Requests
// pipeline — request k+1 leaves the frontend as soon as request k's
// dispatch compute is done — so workers overlap, which is the bursty
// many-small-flows shape that interferes with training rings.
func InferenceBurst(name string, ranks, requests int, reqBytes uint64, think sim.Duration) (*Graph, error) {
	if ranks < 2 {
		return nil, fmt.Errorf("%w: InferenceBurst needs >= 2 ranks", ErrRanks)
	}
	if requests < 1 {
		requests = 1
	}
	if reqBytes == 0 {
		reqBytes = 256 << 10
	}
	if think == 0 {
		think = 200 * time.Microsecond
	}
	b := NewBuilder(name, ranks)
	prevDispatch := ""
	for q := 0; q < requests; q++ {
		w := 1 + q%(ranks-1)
		tag := uint64(q)
		var deps []string
		if prevDispatch != "" {
			deps = []string{prevDispatch}
		}
		// Frontend forms the request, ships it, worker thinks, replies.
		d := b.Compute(fmt.Sprintf("q%d/dispatch", q), 0, think/8, deps...)
		s := b.Send(fmt.Sprintf("q%d/req", q), 0, w, reqBytes, tag, d)
		r := b.Recv(fmt.Sprintf("q%d/reqr", q), w, 0, tag)
		c := b.Compute(fmt.Sprintf("q%d/infer", q), w, think, r)
		rs := b.Send(fmt.Sprintf("q%d/resp", q), w, 0, reqBytes/2+1, tag, c)
		rr := b.Recv(fmt.Sprintf("q%d/respr", q), 0, w, tag)
		b.Compute(fmt.Sprintf("q%d/ack", q), 0, think/16, rr)
		prevDispatch = d
		_, _ = s, rs
	}
	return b.Build()
}

// StorageStream synthesizes background storage traffic: paired ranks
// (2i -> 2i+1) stream a sequence of bulk chunks, each chunk's send
// gated on the previous chunk's receive — a checkpoint write or
// dataset prefetch that holds sustained bandwidth without collectives.
func StorageStream(name string, ranks, chunks int, chunkBytes uint64) (*Graph, error) {
	if ranks < 2 {
		return nil, fmt.Errorf("%w: StorageStream needs >= 2 ranks", ErrRanks)
	}
	if chunks < 1 {
		chunks = 1
	}
	if chunkBytes == 0 {
		chunkBytes = 4 << 20
	}
	b := NewBuilder(name, ranks)
	for p := 0; p+1 < ranks; p += 2 {
		src, dst := p, p+1
		prev := ""
		for k := 0; k < chunks; k++ {
			tag := uint64(k)
			var deps []string
			if prev != "" {
				deps = []string{prev}
			}
			b.Send(fmt.Sprintf("p%d/w%d", p, k), src, dst, chunkBytes, tag, deps...)
			prev = b.Recv(fmt.Sprintf("p%d/wr%d", p, k), dst, src, tag)
		}
	}
	return b.Build()
}
