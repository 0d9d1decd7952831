package jobgraph

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"repro/internal/collective"
	"repro/internal/multipath"
	"repro/internal/sim"
	"repro/internal/transport"
)

// Options configures one replay of a graph onto a fleet.
type Options struct {
	// Alg and Paths select every flow's path-selection stack (OBS/128
	// for Stellar, SinglePath for the ECMP baseline).
	Alg   multipath.Algorithm
	Paths int
	// FlowBase offsets the replay's flow IDs; concurrent jobs on one
	// fleet must use disjoint ranges (the scheduler handles this).
	FlowBase uint64
	// Start delays the root ops by this much virtual time after
	// Replay.Start is called.
	Start sim.Duration
}

// Result summarises one completed replay.
type Result struct {
	// Start and End bound the replay in virtual time.
	Start, End sim.Time
	// Makespan is End - Start.
	Makespan sim.Duration
	// RankEnd is each rank's last op completion (collectives count
	// toward every member rank).
	RankEnd []sim.Time
	// OpEnd is each op's completion time, indexed like Graph.Ops.
	OpEnd []sim.Time
	// WireBytes is the total bytes the replay put on the fabric:
	// send payloads plus per-flow ring volume of each collective.
	WireBytes uint64
}

// ErrIncomplete is returned by Replay.Result when ops are still
// pending — the engine was halted or not run to completion.
var ErrIncomplete = errors.New("jobgraph: replay incomplete")

// ErrTooFewEndpoints is returned when the endpoint slice cannot seat
// every rank.
var ErrTooFewEndpoints = errors.New("jobgraph: fewer endpoints than ranks")

// Replay executes one graph on one engine. Determinism: ops are
// examined in Graph.Ops order at every step — ready roots launch in op
// order, successors are stored in op order, and all network ops ride
// the engine's deterministic event queue — so a replay's timings are a
// pure function of (graph, seed, topology, options), byte-identical
// against the heap reference queue.
type Replay struct {
	g   *Graph
	eng *sim.Engine
	eps []*transport.Endpoint // eps[r] is rank r's endpoint
	opt Options

	indeg  []int
	succ   [][]int
	opEnd  []sim.Time
	doneOp []bool // per op: completed (opEnd alone is ambiguous at t=0)
	index  map[string]int
	launch sim.Time
	remain int
	done   func(Result)

	conns    map[matchKey]*transport.Conn // send conns keyed by (src,dst)
	rings    map[int]*collective.Ring     // per collective op index
	sendIdx  map[matchKey]int             // send op index by match key
	recvIdx  map[matchKey]int             // recv op index by match key
	sendDone []bool                       // indexed by op
	recvWait map[int]bool                 // recv op index -> deps satisfied
	wire     uint64
	started  bool

	args  []opArg // pre-sized per-op launch/completion args (see exec)
	ready []int   // completeBatch scratch, reused across batches
}

// opArg is one op's launch/completion argument. Each op executes
// exactly once, so one record per op — pre-allocated in NewReplay —
// lets exec schedule through the engine's arg-style entry points
// (Post, SendArg) with package-level functions instead of minting
// per-op closures on the replay hot path.
type opArg struct {
	r *Replay
	i int
	t sim.Time // completion instant for deferred compute/recv batches
}

// NewReplay validates the graph against the fleet and pre-builds every
// connection the replay will drive: one transport conn per distinct
// (src, dst) send pair and one ring per collective op, with flow IDs
// assigned deterministically from opts.FlowBase.
func NewReplay(eng *sim.Engine, eps []*transport.Endpoint, g *Graph, opts Options) (*Replay, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	if len(eps) < g.Ranks {
		return nil, fmt.Errorf("%w: %d < %d", ErrTooFewEndpoints, len(eps), g.Ranks)
	}
	if opts.Paths < 1 {
		opts.Paths = 1
	}
	r := &Replay{
		g: g, eng: eng, eps: eps[:g.Ranks], opt: opts,
		indeg:    make([]int, len(g.Ops)),
		succ:     make([][]int, len(g.Ops)),
		opEnd:    make([]sim.Time, len(g.Ops)),
		doneOp:   make([]bool, len(g.Ops)),
		conns:    make(map[matchKey]*transport.Conn),
		rings:    make(map[int]*collective.Ring),
		sendIdx:  make(map[matchKey]int),
		recvIdx:  make(map[matchKey]int),
		sendDone: make([]bool, len(g.Ops)),
		recvWait: make(map[int]bool),
		remain:   len(g.Ops),
		args:     make([]opArg, len(g.Ops)),
	}
	for i := range r.args {
		r.args[i].r, r.args[i].i = r, i
	}
	index := make(map[string]int, len(g.Ops))
	for i, op := range g.Ops {
		index[op.ID] = i
	}
	r.index = index
	for i, op := range g.Ops {
		for _, d := range op.Deps {
			j := index[d]
			r.succ[j] = append(r.succ[j], i)
			r.indeg[i]++
		}
		switch op.Kind {
		case OpSend:
			r.sendIdx[sendKey(op)] = i
		case OpRecv:
			r.recvIdx[recvKey(op)] = i
		}
	}
	// Successor order is the tiebreak order when one completion frees
	// several ops at once; sort so it matches Graph.Ops order exactly
	// regardless of how Deps were listed.
	for _, s := range r.succ {
		sort.Ints(s)
	}

	// Pre-connect: distinct send pairs in first-appearance (op) order.
	flow := opts.FlowBase
	for _, op := range g.Ops {
		if op.Kind != OpSend {
			continue
		}
		k := matchKey{from: op.Rank, to: op.Peer}
		if _, ok := r.conns[k]; ok {
			continue
		}
		c, err := transport.Connect(eps[op.Rank], eps[op.Peer], flow, opts.Alg, opts.Paths)
		if err != nil {
			r.Close()
			return nil, fmt.Errorf("jobgraph: pair %d->%d: %w", op.Rank, op.Peer, err)
		}
		flow++
		r.conns[k] = c
	}
	// One ring per collective op, members in the op's listed order.
	for i, op := range g.Ops {
		if op.Kind != OpCollective {
			continue
		}
		members := make([]*transport.Endpoint, len(op.Ranks))
		for j, rank := range op.Ranks {
			members[j] = eps[rank]
		}
		ring, err := collective.NewRing(members, flow, opts.Alg, opts.Paths)
		if err != nil {
			r.Close()
			return nil, fmt.Errorf("jobgraph: collective %q: %w", op.ID, err)
		}
		flow += uint64(len(op.Ranks))
		r.rings[i] = ring
	}
	return r, nil
}

// Flows reports how many flow IDs the replay consumed starting at
// FlowBase; the scheduler spaces concurrent jobs by at least this.
func (r *Replay) Flows() uint64 {
	n := uint64(len(r.conns))
	for i := range r.rings {
		n += uint64(len(r.g.Ops[i].Ranks))
	}
	return n
}

// Start launches the replay: root ops fire opts.Start after the
// current virtual time, and done (optional) fires when the last op
// completes. The caller still owns the engine loop (eng.RunAll).
func (r *Replay) Start(done func(Result)) {
	if r.started {
		panic("jobgraph: Replay started twice")
	}
	r.started = true
	r.done = done
	r.eng.After(r.opt.Start, func() {
		r.launch = r.eng.Now()
		for i, d := range r.indeg {
			if d == 0 {
				r.exec(i, r.launch)
			}
		}
	})
}

// Run is the single-job convenience: start, drive the engine until
// every event drains, and return the result.
func Run(eng *sim.Engine, eps []*transport.Endpoint, g *Graph, opts Options) (Result, error) {
	rp, err := NewReplay(eng, eps, g, opts)
	if err != nil {
		return Result{}, err
	}
	defer rp.Close()
	var res Result
	var got bool
	rp.Start(func(r Result) { res, got = r, true })
	eng.RunAll()
	if !got {
		return Result{}, fmt.Errorf("%w: %d/%d ops pending: %s",
			ErrIncomplete, rp.remain, len(g.Ops), rp.pendingDetail())
	}
	return res, nil
}

// exec launches one ready op at instant t — the completion time of its
// last dependency (or the replay start). The op's work is always
// deferred through an explicit Post rather than started inline, which
// fixes the event order: ops freed together launch in op-index order
// behind any events already queued at t.
func (r *Replay) exec(i int, t sim.Time) {
	op := r.g.Ops[i]
	a := &r.args[i]
	switch op.Kind {
	case OpCompute:
		a.t = t.Add(op.Duration)
		r.eng.Post(a.t, opDeferredDone, a)
	case OpSend:
		r.wire += op.Bytes
		r.eng.Post(t, opSendLaunch, a)
	case OpRecv:
		si := r.sendIdx[recvKey(op)]
		if r.sendDone[si] {
			// Data already arrived; the recv completes at t (still via
			// the event queue for uniform ordering).
			a.t = t
			r.eng.Post(t, opDeferredDone, a)
			return
		}
		r.recvWait[i] = true
	case OpCollective:
		r.wire += uint64(len(op.Ranks)) * collective.VolumePerFlow(len(op.Ranks), op.Bytes)
		a.t = t
		r.eng.Post(t, opCollectiveLaunch, a)
	}
}

// opDeferredDone completes a compute op (at its precomputed end) or an
// already-arrived recv (at its ready instant): both batches of one.
func opDeferredDone(v any) {
	a := v.(*opArg)
	a.r.completeBatch(a.t, a.i)
}

// opSendLaunch starts a send op's transfer.
func opSendLaunch(v any) {
	a := v.(*opArg)
	op := a.r.g.Ops[a.i]
	c := a.r.conns[matchKey{from: op.Rank, to: op.Peer}]
	c.SendArg(op.Bytes, opSendDone, v)
}

// opSendDone completes a send — and its matching recv if that recv was
// already waiting on the wire. Both land in the same batch, so ops the
// two completions free at this instant launch strictly in op-index
// order (the documented tiebreak), not send-successors-first.
func opSendDone(v any, at sim.Time) {
	a := v.(*opArg)
	r := a.r
	r.sendDone[a.i] = true
	if ri, ok := r.recvReady(r.g.Ops[a.i]); ok {
		r.completeBatch(at, a.i, ri)
	} else {
		r.completeBatch(at, a.i)
	}
}

// opCollectiveLaunch starts a collective op's ring reduction. The done
// closure is the one per-op allocation left on this path: Reduce's
// completion carries a collective.Result, which the arg-style engine
// entry points cannot thread through.
func opCollectiveLaunch(v any) {
	a := v.(*opArg)
	r := a.r
	op := r.g.Ops[a.i]
	i := a.i
	r.rings[i].Reduce(r.eng, op.Bytes, func(cres collective.Result) {
		r.completeBatch(cres.End, i)
	})
}

// recvReady reports the index of send op's matching recv if that recv
// is currently blocked only on the data.
func (r *Replay) recvReady(send Op) (int, bool) {
	i, ok := r.recvIdx[sendKey(send)]
	if !ok || !r.recvWait[i] {
		return 0, false
	}
	delete(r.recvWait, i)
	return i, true
}

// completeBatch marks every op in the batch done at instant t, then
// launches the newly-ready successors of the whole batch in op-index
// order. Routing all completions that land at one instant through a
// single ready list is what makes the launch order the documented
// Graph.Ops tiebreak — completing ops one at a time would launch the
// first op's successors before later batch members' lower-indexed
// ones. exec never completes an op synchronously (every path defers
// through the event queue), so no reentrant batch can interleave.
func (r *Replay) completeBatch(t sim.Time, batch ...int) {
	ready := r.ready[:0]
	for _, i := range batch {
		r.opEnd[i] = t
		r.doneOp[i] = true
		r.remain--
		for _, j := range r.succ[i] {
			if r.indeg[j]--; r.indeg[j] == 0 {
				ready = append(ready, j)
			}
		}
	}
	if len(ready) > 1 {
		sort.Ints(ready)
	}
	for _, j := range ready {
		r.exec(j, t)
	}
	// Safe to reuse: exec only schedules (never re-enters completeBatch
	// synchronously), so the buffer is idle between batches.
	r.ready = ready[:0]
	if r.remain == 0 && r.done != nil {
		r.done(r.result())
	}
}

// pendingDetail names the ops still pending and what each is waiting
// for — the unmet dependency IDs, plus the wire for a recv whose
// matched send has not arrived — so a halted replay is diagnosable from
// the error alone. Capped at 8 ops.
func (r *Replay) pendingDetail() string {
	const cap = 8
	var b strings.Builder
	shown, pending := 0, 0
	for i, op := range r.g.Ops {
		if r.doneOp[i] {
			continue
		}
		pending++
		if shown == cap {
			continue
		}
		if shown > 0 {
			b.WriteString(", ")
		}
		b.WriteString(op.ID)
		var unmet []string
		for _, d := range op.Deps {
			if !r.doneOp[r.index[d]] {
				unmet = append(unmet, d)
			}
		}
		if op.Kind == OpRecv {
			if si, ok := r.sendIdx[recvKey(op)]; ok && !r.sendDone[si] {
				unmet = append(unmet, r.g.Ops[si].ID+" [wire]")
			}
		}
		if len(unmet) > 0 {
			fmt.Fprintf(&b, " (awaiting %s)", strings.Join(unmet, ", "))
		}
		shown++
	}
	if pending > shown {
		fmt.Fprintf(&b, ", +%d more", pending-shown)
	}
	return b.String()
}

// result assembles the Result once every op has completed.
func (r *Replay) result() Result {
	res := Result{
		Start:     r.launch,
		RankEnd:   make([]sim.Time, r.g.Ranks),
		OpEnd:     append([]sim.Time(nil), r.opEnd...),
		WireBytes: r.wire,
	}
	for i, op := range r.g.Ops {
		end := r.opEnd[i]
		if end > res.End {
			res.End = end
		}
		switch op.Kind {
		case OpCollective:
			for _, rank := range op.Ranks {
				if end > res.RankEnd[rank] {
					res.RankEnd[rank] = end
				}
			}
		default:
			if end > res.RankEnd[op.Rank] {
				res.RankEnd[op.Rank] = end
			}
		}
	}
	res.Makespan = res.End.Sub(res.Start)
	return res
}

// Result returns the finished replay's result, or ErrIncomplete if ops
// are still pending.
func (r *Replay) Result() (Result, error) {
	if r.remain != 0 {
		return Result{}, fmt.Errorf("%w: %d/%d ops pending: %s",
			ErrIncomplete, r.remain, len(r.g.Ops), r.pendingDetail())
	}
	return r.result(), nil
}

// Close tears down every connection the replay built.
func (r *Replay) Close() {
	for _, c := range r.conns {
		c.Close()
	}
	for _, ring := range r.rings {
		ring.Close()
	}
	r.conns = map[matchKey]*transport.Conn{}
	r.rings = map[int]*collective.Ring{}
}
