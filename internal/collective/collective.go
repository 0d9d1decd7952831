// Package collective builds the traffic patterns of §7 and §8 on top of
// the transport, one driver each: ring AllReduce (the bandwidth-dominant
// collective in LLM training; Ring.Reduce, Ring.Rounds), permutation
// traffic (Figure 9's stress pattern; RunPermutation), a cyclic on/off
// driver for background load (Figures 10a and 10b; Cyclic), and a batch
// of point-to-point flows (Figure 12's connections, §9's all-to-all;
// SendAll).
//
// Ring AllReduce is modelled at steady state: each of the N participants
// streams 2·(N−1)/N of the reduce size to its ring successor, and the
// operation completes when the slowest flow finishes. That volume-per-
// link equality is what makes "bus bandwidth" the per-flow goodput, the
// same normalisation NCCL reports.
package collective

import (
	"errors"
	"fmt"

	"repro/internal/fabric"
	"repro/internal/multipath"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/transport"
)

// ErrTooFewParticipants is returned for rings of fewer than 2 members.
var ErrTooFewParticipants = errors.New("collective: need at least 2 participants")

// Ring is a ring-AllReduce communicator over a fixed participant order.
type Ring struct {
	conns []*transport.Conn
	n     int
	// freeOps recycles per-Reduce operation state so back-to-back
	// reduces (Cyclic, trace replay, the bench loop) allocate nothing
	// per op in steady state.
	freeOps *reduceOp
}

// reduceOp is the in-flight state of one Reduce: completion bookkeeping
// plus one pre-sized launch argument per ring flow, so neither the
// launch events nor the per-flow completions build closures.
type reduceOp struct {
	ring      *Ring
	size, vol uint64
	start     sim.Time
	last      sim.Time
	remaining int
	done      func(Result)
	tr        *trace.Tracer
	span      trace.ID
	launches  []launchArg
	next      *reduceOp // free-list link
}

// launchArg carries one flow's share of a reduceOp through the
// transport's arg-style completion.
type launchArg struct {
	op *reduceOp
	c  *transport.Conn
}

func (r *Ring) allocOp() *reduceOp {
	op := r.freeOps
	if op == nil {
		return &reduceOp{ring: r, launches: make([]launchArg, len(r.conns))}
	}
	r.freeOps = op.next
	op.next = nil
	return op
}

func (r *Ring) releaseOp(op *reduceOp) {
	op.done = nil
	op.tr = nil
	op.next = r.freeOps
	r.freeOps = op
}

// flowDone is the shared completion for every ring flow of every op.
func flowDone(a any, at sim.Time) {
	la := a.(*launchArg)
	op := la.op
	if at > op.last {
		op.last = at
	}
	op.remaining--
	if op.remaining > 0 {
		return
	}
	elapsed := op.last.Sub(op.start)
	res := Result{Size: op.size, VolumePerFlow: op.vol, Start: op.start, End: op.last}
	if elapsed > 0 {
		res.BusBW = float64(op.vol) / elapsed.Seconds()
	}
	if op.tr.Enabled() {
		op.tr.SpanEnd(op.span, "cluster", "collective", "coll", "allreduce",
			trace.F("busbw", res.BusBW))
	}
	done, ring := op.done, op.ring
	ring.releaseOp(op)
	// The op is recycled before the caller's callback runs so a
	// done-handler that immediately reduces again (Cyclic) reuses it.
	if done != nil {
		done(res)
	}
}

// NewRing wires participant i to participant (i+1) mod N with the given
// path-selection algorithm and fan-out. Flow IDs start at flowBase.
func NewRing(eps []*transport.Endpoint, flowBase uint64, alg multipath.Algorithm, paths int) (*Ring, error) {
	if len(eps) < 2 {
		return nil, ErrTooFewParticipants
	}
	r := &Ring{n: len(eps)}
	for i, src := range eps {
		dst := eps[(i+1)%len(eps)]
		c, err := transport.Connect(src, dst, flowBase+uint64(i), alg, paths)
		if err != nil {
			return nil, fmt.Errorf("collective: ring edge %d: %w", i, err)
		}
		r.conns = append(r.conns, c)
	}
	return r, nil
}

// Result summarises one AllReduce operation.
type Result struct {
	Size          uint64
	VolumePerFlow uint64
	Start, End    sim.Time
	// BusBW is per-participant bus bandwidth in bytes/sec.
	BusBW float64
}

// VolumePerFlow returns the ring-AllReduce bytes each participant
// streams for a reduce of size bytes: 2·(N−1)/N · size.
func VolumePerFlow(n int, size uint64) uint64 {
	return 2 * uint64(n-1) * size / uint64(n)
}

// Reduce launches one AllReduce of size bytes at the current virtual
// time of eng; done fires when every ring flow has fully acknowledged.
// Every ring member's conn must run on eng: the completion state is
// shared across the ring, so a ring never spans engine shards.
func (r *Ring) Reduce(eng *sim.Engine, size uint64, done func(Result)) {
	op := r.allocOp()
	op.size = size
	op.vol = VolumePerFlow(r.n, size)
	op.start = eng.Now()
	op.last = 0
	op.remaining = len(r.conns)
	op.done = done
	op.tr = eng.Tracer()
	op.span = 0
	if op.tr.Enabled() {
		op.span = op.tr.NewID()
		op.tr.SpanBegin(op.span, "cluster", "collective", "coll", "allreduce",
			trace.U("size", size), trace.I("participants", int64(r.n)),
			trace.U("vol-per-flow", op.vol))
	}
	for i, c := range r.conns {
		la := &op.launches[i]
		la.op, la.c = op, c
		c.SendArg(op.vol, flowDone, la)
	}
}

// Rounds runs n back-to-back reduces of size bytes until the last
// completes, then halts eng, and returns their results. A reduce still
// running horizon after the call is an error naming cell ("experiment:
// cell"), not a zero Result printed as 0.00 GB/s.
func (r *Ring) Rounds(eng *sim.Engine, size uint64, n int, horizon sim.Duration, cell string) ([]Result, error) {
	results := make([]Result, 0, n)
	var next func(Result)
	next = func(res Result) {
		results = append(results, res)
		if len(results) < n {
			r.Reduce(eng, size, next)
		} else {
			eng.Halt()
		}
	}
	r.Reduce(eng, size, next)
	eng.Run(eng.Now().Add(horizon))
	if len(results) < n {
		return nil, fmt.Errorf("%s: %d of %d reduces completed within %v", cell, len(results), n, horizon)
	}
	return results, nil
}

// Conns exposes the ring's flows for stats collection.
func (r *Ring) Conns() []*transport.Conn { return r.conns }

// Close tears down every ring flow.
func (r *Ring) Close() {
	for _, c := range r.conns {
		c.Close()
	}
}

// Cyclic drives a ring with on/off bursts: during each on-phase it
// back-to-back reduces chunks of chunkSize; during the off-phase it is
// silent. The Figure 10b background task is "active for 5 seconds and
// paused for 5 seconds cyclically"; an on-phase longer than the run is
// Figure 10a's static background.
type Cyclic struct {
	ring      *Ring
	eng       *sim.Engine
	chunk     uint64
	on, off   sim.Duration
	deadline  sim.Time // end of the current on-phase
	reduced   func(Result)
	Completed uint64
}

// NewCyclic builds the driver; call Start to begin the first on-phase.
func NewCyclic(eng *sim.Engine, ring *Ring, chunkSize uint64, on, off sim.Duration) *Cyclic {
	c := &Cyclic{ring: ring, eng: eng, chunk: chunkSize, on: on, off: off}
	c.reduced = c.onReduced // bound once: a back-to-back reduce allocates no closure
	return c
}

// Start begins the on/off cycle at the current virtual time. The cycle
// never ends: drive the engine with Run up to a horizon, not RunAll.
func (c *Cyclic) Start() { c.startPhase() }

func (c *Cyclic) startPhase() {
	c.deadline = c.eng.Now().Add(c.on)
	c.ring.Reduce(c.eng, c.chunk, c.reduced)
}

func (c *Cyclic) onReduced(Result) {
	c.Completed++
	if c.eng.Now() < c.deadline {
		c.ring.Reduce(c.eng, c.chunk, c.reduced) // keep bursting within the on-phase
		return
	}
	c.eng.After(c.off, c.startPhase)
}

// SendAll sends bytes on every conn, in slice order, at the current
// virtual time of eng. done fires once, when the last conn's bytes are
// acknowledged: End is that latest completion and BusBW the per-flow
// goodput, bytes over End−Start. An empty batch never fires done. Every
// conn's source must run on eng: the completion state is shared across
// the batch, so a batch never spans engine shards.
func SendAll(eng *sim.Engine, conns []*transport.Conn, bytes uint64, done func(Result)) {
	start := eng.Now()
	remaining := len(conns)
	var last sim.Time
	for _, c := range conns {
		c.Send(bytes, func(at sim.Time) {
			if at > last {
				last = at
			}
			remaining--
			if remaining > 0 {
				return
			}
			res := Result{Size: bytes, VolumePerFlow: bytes, Start: start, End: last}
			if elapsed := last.Sub(start); elapsed > 0 {
				res.BusBW = float64(bytes) / elapsed.Seconds()
			}
			done(res)
		})
	}
}

// PermutationConfig drives RunPermutation.
type PermutationConfig struct {
	// Alg and Paths configure every flow's selector.
	Alg   multipath.Algorithm
	Paths int
	// BytesPerFlow is the volume each flow transfers.
	BytesPerFlow uint64
	// SamplePeriod is the queue-depth sampling interval.
	SamplePeriod sim.Duration
	// Seed permutes the destination assignment.
	Seed uint64
	// FlowBase offsets flow IDs.
	FlowBase uint64
}

// PermutationResult reports Figure 9's observables.
type PermutationResult struct {
	// AvgQueue / MaxQueue are over all ToR uplinks and samples, bytes.
	AvgQueue float64
	MaxQueue uint64
	// Goodput is aggregate delivered bytes/sec across flows.
	Goodput float64
	// Elapsed is the time to drain every flow.
	Elapsed sim.Duration
}

// RunPermutation injects cross-segment permutation traffic: with two
// segments, every host in segment 0 sends to a distinct random host in
// segment 1 and vice versa (the paper's 120-flow permutation across two
// segments); with more, each segment sends a permutation into the
// segment halfway around the fabric — cross-pod when the topology has
// pods. It then runs the engine(s) to completion while sampling uplink
// queues.
//
// Every piece of mutable state is partitioned by pod — completion
// counters, queue samplers, queue sums — and each pod's sampler runs on
// the engine that owns it, so the function is safe on a sharded fabric
// and produces identical results at any shard count (per-pod sampling
// is the structure even on one engine).
func RunPermutation(eng *sim.Engine, f *fabric.Fabric, eps []*transport.Endpoint, cfg PermutationConfig) (PermutationResult, error) {
	if cfg.SamplePeriod == 0 {
		cfg.SamplePeriod = 50_000 // 50 µs
	}
	fcfg := f.Config()
	hostsPerSeg := fcfg.HostsPerSegment
	segs := fcfg.Segments
	if segs < 2 {
		return PermutationResult{}, errors.New("collective: permutation needs 2 segments")
	}

	// Build the (src, dst) host pairs. The two-segment construction and
	// launch order are kept bit-for-bit as before; larger fabrics use
	// per-segment permutation streams so the pattern is independent of
	// segment count ordering.
	type pair struct{ src, dst int }
	var pairs []pair
	if segs == 2 {
		rng := sim.NewRNG(cfg.Seed)
		perm01 := rng.Perm(hostsPerSeg)
		perm10 := rng.Perm(hostsPerSeg)
		for i := 0; i < hostsPerSeg; i++ {
			pairs = append(pairs, pair{i, hostsPerSeg + perm01[i]})
			pairs = append(pairs, pair{hostsPerSeg + i, perm10[i]})
		}
	} else {
		for s := 0; s < segs; s++ {
			perm := sim.NewRNG(cfg.Seed + uint64(s)*0x9e37).Perm(hostsPerSeg)
			dstSeg := (s + segs/2) % segs
			for i := 0; i < hostsPerSeg; i++ {
				pairs = append(pairs, pair{s*hostsPerSeg + i, dstSeg*hostsPerSeg + perm[i]})
			}
		}
	}

	pods := f.Pods()
	remaining := make([]int, pods)         // flows sourced per pod; owner-shard writes only
	doneAt := make([]sim.Time, len(pairs)) // per-conn slot: no shared max
	conns := make([]*transport.Conn, 0, len(pairs))
	start := eng.Now()
	flow := cfg.FlowBase
	for idx, pr := range pairs {
		c, err := transport.Connect(eps[pr.src], eps[pr.dst], flow, cfg.Alg, cfg.Paths)
		if err != nil {
			return PermutationResult{}, err
		}
		flow++
		conns = append(conns, c)
		pod := f.Pod(fabric.HostID(pr.src))
		remaining[pod]++
		idx := idx
		c.Send(cfg.BytesPerFlow, func(at sim.Time) {
			doneAt[idx] = at
			remaining[pod]--
		})
	}

	// One queue sampler per pod, on the pod's own engine, over the
	// pod's own segments; it stops once the pod's sourced flows drain.
	podSegs := make([][]int, pods)
	for s := 0; s < segs; s++ {
		p := f.Pod(fabric.HostID(s * hostsPerSeg))
		podSegs[p] = append(podSegs[p], s)
	}
	// Per-pod running sums: only the mean is reported.
	sums := make([]float64, pods)
	counts := make([]int, pods)
	maxQs := make([]uint64, pods)
	for p := 0; p < pods; p++ {
		p := p
		peng := f.EngineForSegment(podSegs[p][0])
		var sample func()
		sample = func() {
			if remaining[p] == 0 {
				return
			}
			for _, seg := range podSegs[p] {
				for _, d := range f.UplinkQueueDepths(seg) {
					sums[p] += float64(d)
					counts[p]++
					if d > maxQs[p] {
						maxQs[p] = d
					}
				}
			}
			peng.After(cfg.SamplePeriod, sample)
		}
		peng.After(cfg.SamplePeriod, sample)
	}

	if se := f.Sharded(); se != nil {
		se.RunAll()
	} else {
		eng.RunAll()
	}

	// Merge per-pod observations in pod order.
	var res PermutationResult
	var sum float64
	var count int
	for p := 0; p < pods; p++ {
		sum += sums[p]
		count += counts[p]
		if maxQs[p] > res.MaxQueue {
			res.MaxQueue = maxQs[p]
		}
	}
	if count > 0 {
		res.AvgQueue = sum / float64(count)
	}
	var lastDone sim.Time
	for _, at := range doneAt {
		if at > lastDone {
			lastDone = at
		}
	}
	res.Elapsed = lastDone.Sub(start)
	if res.Elapsed > 0 {
		total := uint64(len(conns)) * cfg.BytesPerFlow
		res.Goodput = float64(total) / res.Elapsed.Seconds()
	}
	for _, c := range conns {
		c.Close()
	}
	return res, nil
}
