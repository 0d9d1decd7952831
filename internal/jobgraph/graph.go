// Package jobgraph is the trace-driven workload layer: application
// behaviour expressed as a GOAL-style op graph — typed operations
// (compute, send, recv, collective) with explicit dependency edges —
// replayed deterministically onto the fabric simulator. Where
// internal/workload is a closed-form step model for one training job,
// jobgraph expresses arbitrary application shapes (a Table-1 training
// step, an inference burst, bulk storage traffic). A Replay drives one
// graph on a set of endpoints; several replays started on one engine
// share its fleet, which is how the contended-cluster experiment turns
// single-job figures into inter-job interference, stragglers and
// bandwidth isolation.
//
// A Graph is built either with the fluent Builder, loaded from JSON
// (see json.go for the wire format), or synthesized from a
// workload.ModelConfig (generate.go). Validation rejects cyclic
// dependencies — including cycles that only appear once each recv is
// tied to its matching send — dangling dep references, and rank or
// peer indices outside [0, Ranks).
package jobgraph

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"repro/internal/sim"
)

// OpKind names an operation type.
type OpKind string

// The op taxonomy, after the GOAL trace format: local compute,
// point-to-point send/recv, and group collectives.
const (
	OpCompute    OpKind = "compute"
	OpSend       OpKind = "send"
	OpRecv       OpKind = "recv"
	OpCollective OpKind = "collective"
)

// Op is one node of the job graph.
type Op struct {
	// ID names the op; unique within the graph. Deps refer to IDs.
	ID string
	// Kind selects which of the fields below are meaningful.
	Kind OpKind
	// Rank is the rank executing the op (compute/send/recv).
	Rank int
	// Deps are the IDs of ops that must complete before this op starts.
	Deps []string

	// Duration is the compute time (compute ops).
	Duration sim.Duration

	// Bytes is the transfer size (send/recv/collective). On a recv it
	// is advisory: when non-zero it must equal the matching send's.
	Bytes uint64
	// Peer is the remote rank (send: destination; recv: source).
	Peer int
	// Tag disambiguates multiple transfers between the same rank pair.
	Tag uint64

	// Ranks lists the participants of a collective, in ring order.
	Ranks []int

	// Comment is free-form documentation carried through the JSON
	// round trip; replay ignores it.
	Comment string
}

// Graph is a complete job: a rank count and a dependency DAG of ops.
type Graph struct {
	// Name labels the job in schedules and tables.
	Name string
	// Ranks is the number of participating ranks; every op's Rank,
	// Peer and collective members must lie in [0, Ranks).
	Ranks int
	// Ops is the node list. Order is the tiebreak order replay uses
	// when several ops become ready at the same instant, so it is part
	// of the graph's deterministic identity.
	Ops []Op
	// Comment is free-form documentation (carried through JSON).
	Comment string
}

// MaxRanks bounds Graph.Ranks at the largest fleet the repository
// builds, fig9-scale's 4096 hosts. A replay places one rank per host,
// so a larger count would only fail in fabric construction (host IDs
// are int32) or exhaust memory building the fleet.
const MaxRanks = 4096

// MaxCompute bounds the sum of a graph's compute durations. No
// dependency chain computes for longer than every compute op together,
// so a replay's op start times stay within 1,000 h plus transfer time,
// far inside the 2.56 million hours int64 nanoseconds can hold.
const MaxCompute = 1000 * time.Hour

// MaxBytes bounds the total bytes of a graph's sends and collectives.
// A collective's ring puts 2·(n−1)·Bytes on the wire, so with
// n ≤ MaxRanks every byte count the replay and Stats derive stays
// below 2⁶⁴.
const MaxBytes = 1 << 50

// Typed validation errors, matched with errors.Is.
var (
	// ErrNoOps is returned for graphs with no operations.
	ErrNoOps = errors.New("jobgraph: graph has no ops")
	// ErrRanks is returned when Ranks is outside [1, MaxRanks].
	ErrRanks = errors.New("jobgraph: Ranks must be in [1, MaxRanks]")
	// ErrTooLarge is returned when the graph's compute time exceeds
	// MaxCompute or its transfer bytes exceed MaxBytes.
	ErrTooLarge = errors.New("jobgraph: graph exceeds MaxCompute or MaxBytes")
	// ErrDuplicateID is returned when two ops share an ID.
	ErrDuplicateID = errors.New("jobgraph: duplicate op id")
	// ErrEmptyID is returned for an op with no ID.
	ErrEmptyID = errors.New("jobgraph: empty op id")
	// ErrBadKind is returned for an unknown op kind.
	ErrBadKind = errors.New("jobgraph: unknown op kind")
	// ErrRankRange is returned when Rank, Peer or a collective member
	// falls outside [0, Ranks).
	ErrRankRange = errors.New("jobgraph: rank out of range")
	// ErrSelfSend is returned when a send or recv names its own rank
	// as the peer.
	ErrSelfSend = errors.New("jobgraph: send/recv peer equals own rank")
	// ErrDanglingDep is returned when a dep names no existing op.
	ErrDanglingDep = errors.New("jobgraph: dependency on unknown op")
	// ErrCycle is returned when the dependency graph — including the
	// implicit edge from each send to its matching recv — has a cycle.
	ErrCycle = errors.New("jobgraph: dependency cycle")
	// ErrBadOp is returned for kind-specific field misuse (zero-byte
	// transfer, negative compute, collective with fewer than two
	// members or duplicate members).
	ErrBadOp = errors.New("jobgraph: invalid op")
	// ErrDuplicateMatch is returned when two sends (or two recvs)
	// share the same (rank, peer, tag) matching key.
	ErrDuplicateMatch = errors.New("jobgraph: ambiguous send/recv match")
	// ErrUnmatchedRecv is returned for a recv with no matching send —
	// it would wait forever at replay.
	ErrUnmatchedRecv = errors.New("jobgraph: recv has no matching send")
	// ErrSizeMismatch is returned when a recv declares a byte count
	// different from its matching send's.
	ErrSizeMismatch = errors.New("jobgraph: recv/send byte mismatch")
)

// matchKey identifies a point-to-point transfer: sends key on
// (from, to, tag), recvs on (peer, rank, tag) — the same triple.
type matchKey struct {
	from, to int
	tag      uint64
}

// sendKey returns the op's matching key from the sender's perspective.
func sendKey(op Op) matchKey { return matchKey{from: op.Rank, to: op.Peer, tag: op.Tag} }

// recvKey returns the op's matching key from the receiver's perspective.
func recvKey(op Op) matchKey { return matchKey{from: op.Peer, to: op.Rank, tag: op.Tag} }

// Validate checks the graph's structural invariants: well-formed ops,
// in-range ranks, resolvable deps, unambiguous send/recv matching, and
// acyclicity of the dependency relation with send→recv match edges
// included (a recv cannot complete before its send, so a cycle through
// a match is a deadlock even when the explicit deps are acyclic).
func (g *Graph) Validate() error {
	if g.Ranks < 1 || g.Ranks > MaxRanks {
		return fmt.Errorf("%w (got %d)", ErrRanks, g.Ranks)
	}
	if len(g.Ops) == 0 {
		return ErrNoOps
	}
	index := make(map[string]int, len(g.Ops))
	var compute sim.Duration
	var bytes uint64
	for i, op := range g.Ops {
		if op.ID == "" {
			return fmt.Errorf("%w (op %d)", ErrEmptyID, i)
		}
		if j, dup := index[op.ID]; dup {
			return fmt.Errorf("%w: %q (ops %d and %d)", ErrDuplicateID, op.ID, j, i)
		}
		index[op.ID] = i
		if err := g.validateOp(op); err != nil {
			return err
		}
		// Each bound is checked against what is left of it, so the
		// running sums themselves never overflow.
		switch op.Kind {
		case OpCompute:
			if op.Duration > MaxCompute-compute {
				return fmt.Errorf("%w: compute passes %v at %q", ErrTooLarge, MaxCompute, op.ID)
			}
			compute += op.Duration
		case OpSend, OpCollective:
			if op.Bytes > MaxBytes-bytes {
				return fmt.Errorf("%w: transfers pass %d bytes at %q", ErrTooLarge, uint64(MaxBytes), op.ID)
			}
			bytes += op.Bytes
		}
	}
	sends := make(map[matchKey]int)
	recvs := make(map[matchKey]int)
	for i, op := range g.Ops {
		switch op.Kind {
		case OpSend:
			k := sendKey(op)
			if j, dup := sends[k]; dup {
				return fmt.Errorf("%w: two sends %q and %q for %d->%d tag %d",
					ErrDuplicateMatch, g.Ops[j].ID, op.ID, k.from, k.to, k.tag)
			}
			sends[k] = i
		case OpRecv:
			k := recvKey(op)
			if j, dup := recvs[k]; dup {
				return fmt.Errorf("%w: two recvs %q and %q for %d->%d tag %d",
					ErrDuplicateMatch, g.Ops[j].ID, op.ID, k.from, k.to, k.tag)
			}
			recvs[k] = i
		}
	}
	for k, ri := range recvs {
		si, ok := sends[k]
		if !ok {
			return fmt.Errorf("%w: %q waits for %d->%d tag %d",
				ErrUnmatchedRecv, g.Ops[ri].ID, k.from, k.to, k.tag)
		}
		if b := g.Ops[ri].Bytes; b != 0 && b != g.Ops[si].Bytes {
			return fmt.Errorf("%w: recv %q declares %d bytes, send %q carries %d",
				ErrSizeMismatch, g.Ops[ri].ID, b, g.Ops[si].ID, g.Ops[si].Bytes)
		}
	}

	// Kahn's algorithm over explicit deps plus send→recv match edges.
	indeg := make([]int, len(g.Ops))
	succ := make([][]int, len(g.Ops))
	for i, op := range g.Ops {
		for _, d := range op.Deps {
			j, ok := index[d]
			if !ok {
				return fmt.Errorf("%w: %q depends on %q", ErrDanglingDep, op.ID, d)
			}
			succ[j] = append(succ[j], i)
			indeg[i]++
		}
		if op.Kind == OpRecv {
			// A recv completes only after its matching send: model that
			// as an edge so match-induced deadlocks surface here.
			si := sends[recvKey(op)]
			succ[si] = append(succ[si], i)
			indeg[i]++
		}
	}
	ready := make([]int, 0, len(g.Ops))
	for i, d := range indeg {
		if d == 0 {
			ready = append(ready, i)
		}
	}
	done := 0
	for len(ready) > 0 {
		i := ready[len(ready)-1]
		ready = ready[:len(ready)-1]
		done++
		for _, j := range succ[i] {
			if indeg[j]--; indeg[j] == 0 {
				ready = append(ready, j)
			}
		}
	}
	if done != len(g.Ops) {
		var stuck []string
		for i, d := range indeg {
			if d > 0 {
				stuck = append(stuck, g.Ops[i].ID)
			}
		}
		sort.Strings(stuck)
		if len(stuck) > 4 {
			stuck = stuck[:4]
		}
		return fmt.Errorf("%w through %v", ErrCycle, stuck)
	}
	return nil
}

// validateOp checks one op's kind-specific fields.
func (g *Graph) validateOp(op Op) error {
	inRange := func(r int) bool { return r >= 0 && r < g.Ranks }
	switch op.Kind {
	case OpCompute:
		if !inRange(op.Rank) {
			return fmt.Errorf("%w: op %q rank %d of %d", ErrRankRange, op.ID, op.Rank, g.Ranks)
		}
		if op.Duration < 0 {
			return fmt.Errorf("%w: compute %q has negative duration", ErrBadOp, op.ID)
		}
	case OpSend, OpRecv:
		if !inRange(op.Rank) {
			return fmt.Errorf("%w: op %q rank %d of %d", ErrRankRange, op.ID, op.Rank, g.Ranks)
		}
		if !inRange(op.Peer) {
			return fmt.Errorf("%w: op %q peer %d of %d", ErrRankRange, op.ID, op.Peer, g.Ranks)
		}
		if op.Peer == op.Rank {
			return fmt.Errorf("%w: op %q on rank %d", ErrSelfSend, op.ID, op.Rank)
		}
		if op.Kind == OpSend && op.Bytes == 0 {
			return fmt.Errorf("%w: send %q moves zero bytes", ErrBadOp, op.ID)
		}
	case OpCollective:
		if len(op.Ranks) < 2 {
			return fmt.Errorf("%w: collective %q needs >= 2 ranks", ErrBadOp, op.ID)
		}
		seen := make(map[int]bool, len(op.Ranks))
		for _, r := range op.Ranks {
			if !inRange(r) {
				return fmt.Errorf("%w: collective %q member %d of %d", ErrRankRange, op.ID, r, g.Ranks)
			}
			if seen[r] {
				return fmt.Errorf("%w: collective %q lists rank %d twice", ErrBadOp, op.ID, r)
			}
			seen[r] = true
		}
		if op.Bytes == 0 {
			return fmt.Errorf("%w: collective %q reduces zero bytes", ErrBadOp, op.ID)
		}
	default:
		return fmt.Errorf("%w: op %q kind %q", ErrBadKind, op.ID, op.Kind)
	}
	return nil
}

// Stats summarises a graph for the replay table's note.
type Stats struct {
	Ops       int
	ByKind    map[OpKind]int
	Bytes     uint64 // total wire bytes: sends + collective ring volume
	Compute   sim.Duration
	PairsUsed int // distinct (src,dst) send pairs
	MaxFanIn  int
}

// Stats computes summary statistics; call after Validate.
func (g *Graph) Stats() Stats {
	st := Stats{ByKind: map[OpKind]int{}}
	pairs := map[matchKey]bool{}
	for _, op := range g.Ops {
		st.Ops++
		st.ByKind[op.Kind]++
		if len(op.Deps) > st.MaxFanIn {
			st.MaxFanIn = len(op.Deps)
		}
		switch op.Kind {
		case OpCompute:
			st.Compute += op.Duration
		case OpSend:
			st.Bytes += op.Bytes
			pairs[matchKey{from: op.Rank, to: op.Peer}] = true
		case OpCollective:
			n := uint64(len(op.Ranks))
			st.Bytes += n * (2 * (n - 1) * op.Bytes / n)
		}
	}
	st.PairsUsed = len(pairs)
	return st
}

// Builder constructs a Graph incrementally. Op IDs are supplied by the
// caller; Add* methods return the ID for chaining into Deps.
type Builder struct {
	g Graph
}

// NewBuilder starts a graph with the given name and rank count.
func NewBuilder(name string, ranks int) *Builder {
	return &Builder{g: Graph{Name: name, Ranks: ranks}}
}

// Compute adds a compute op of duration d on rank r.
func (b *Builder) Compute(id string, rank int, d sim.Duration, deps ...string) string {
	b.g.Ops = append(b.g.Ops, Op{ID: id, Kind: OpCompute, Rank: rank, Duration: d, Deps: deps})
	return id
}

// Send adds a point-to-point send of bytes from rank to peer.
func (b *Builder) Send(id string, rank, peer int, bytes, tag uint64, deps ...string) string {
	b.g.Ops = append(b.g.Ops, Op{ID: id, Kind: OpSend, Rank: rank, Peer: peer, Bytes: bytes, Tag: tag, Deps: deps})
	return id
}

// Recv adds the receive side of the (peer -> rank, tag) transfer.
func (b *Builder) Recv(id string, rank, peer int, tag uint64, deps ...string) string {
	b.g.Ops = append(b.g.Ops, Op{ID: id, Kind: OpRecv, Rank: rank, Peer: peer, Tag: tag, Deps: deps})
	return id
}

// Collective adds a ring AllReduce of bytes over ranks.
func (b *Builder) Collective(id string, ranks []int, bytes uint64, deps ...string) string {
	b.g.Ops = append(b.g.Ops, Op{ID: id, Kind: OpCollective, Ranks: ranks, Bytes: bytes, Deps: deps})
	return id
}

// Build validates and returns the graph.
func (b *Builder) Build() (*Graph, error) {
	g := b.g
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return &g, nil
}
