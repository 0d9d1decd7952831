package jobgraph

import (
	"errors"
	"testing"
	"time"
)

// chain builds a valid 2-rank graph exercising every op kind.
func chain(t *testing.T) *Graph {
	t.Helper()
	b := NewBuilder("chain", 2)
	c := b.Compute("c0", 0, time.Millisecond)
	s := b.Send("s0", 0, 1, 1<<20, 1, c)
	r := b.Recv("r0", 1, 0, 1)
	b.Collective("ar", []int{0, 1}, 4<<20, s, r)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestBuilderBuildsValidGraph(t *testing.T) {
	g := chain(t)
	if g.Ranks != 2 || len(g.Ops) != 4 {
		t.Fatalf("graph = %+v", g)
	}
	st := g.Stats()
	if st.Ops != 4 || st.ByKind[OpCompute] != 1 || st.ByKind[OpSend] != 1 ||
		st.ByKind[OpRecv] != 1 || st.ByKind[OpCollective] != 1 {
		t.Errorf("stats = %+v", st)
	}
	if st.Compute != time.Millisecond {
		t.Errorf("compute total = %v", st.Compute)
	}
	// Wire bytes: 1 MiB send + ring volume 2 flows x 2*(2-1)/2*4MiB.
	want := uint64(1<<20) + 2*(2*1*uint64(4<<20)/2)
	if st.Bytes != want {
		t.Errorf("wire bytes = %d, want %d", st.Bytes, want)
	}
}

func TestValidateRejectsCycle(t *testing.T) {
	g := &Graph{Name: "cyc", Ranks: 1, Ops: []Op{
		{ID: "a", Kind: OpCompute, Rank: 0, Deps: []string{"b"}},
		{ID: "b", Kind: OpCompute, Rank: 0, Deps: []string{"a"}},
	}}
	if err := g.Validate(); !errors.Is(err, ErrCycle) {
		t.Errorf("err = %v, want ErrCycle", err)
	}
}

func TestValidateRejectsMatchInducedDeadlock(t *testing.T) {
	// Explicit deps are acyclic, but each rank's send waits on a recv
	// whose data the other rank's blocked send would produce.
	g := &Graph{Name: "deadlock", Ranks: 2, Ops: []Op{
		{ID: "r0", Kind: OpRecv, Rank: 0, Peer: 1, Tag: 1},
		{ID: "s0", Kind: OpSend, Rank: 0, Peer: 1, Bytes: 1 << 10, Tag: 2, Deps: []string{"r0"}},
		{ID: "r1", Kind: OpRecv, Rank: 1, Peer: 0, Tag: 2},
		{ID: "s1", Kind: OpSend, Rank: 1, Peer: 0, Bytes: 1 << 10, Tag: 1, Deps: []string{"r1"}},
	}}
	if err := g.Validate(); !errors.Is(err, ErrCycle) {
		t.Errorf("err = %v, want ErrCycle through the send/recv matches", err)
	}
}

func TestValidateRejectsDanglingDep(t *testing.T) {
	g := &Graph{Name: "dangling", Ranks: 1, Ops: []Op{
		{ID: "a", Kind: OpCompute, Rank: 0, Deps: []string{"ghost"}},
	}}
	if err := g.Validate(); !errors.Is(err, ErrDanglingDep) {
		t.Errorf("err = %v, want ErrDanglingDep", err)
	}
}

func TestValidateRejectsRankAndPeerBounds(t *testing.T) {
	for _, tc := range []struct {
		name string
		op   Op
	}{
		{"compute rank", Op{ID: "x", Kind: OpCompute, Rank: 2}},
		{"negative rank", Op{ID: "x", Kind: OpCompute, Rank: -1}},
		{"send peer", Op{ID: "x", Kind: OpSend, Rank: 0, Peer: 5, Bytes: 1}},
		{"collective member", Op{ID: "x", Kind: OpCollective, Ranks: []int{0, 7}, Bytes: 1}},
	} {
		g := &Graph{Name: tc.name, Ranks: 2, Ops: []Op{tc.op}}
		if err := g.Validate(); !errors.Is(err, ErrRankRange) {
			t.Errorf("%s: err = %v, want ErrRankRange", tc.name, err)
		}
	}
}

func TestValidateRejectsMalformedOps(t *testing.T) {
	cases := []struct {
		name string
		g    Graph
		want error
	}{
		{"no ops", Graph{Ranks: 1}, ErrNoOps},
		{"zero ranks", Graph{Ops: []Op{{ID: "a", Kind: OpCompute}}}, ErrRanks},
		{"ranks past the largest fleet", Graph{Ranks: MaxRanks + 1, Ops: []Op{{ID: "a", Kind: OpCompute}}}, ErrRanks},
		{"empty id", Graph{Ranks: 1, Ops: []Op{{Kind: OpCompute}}}, ErrEmptyID},
		{"dup id", Graph{Ranks: 1, Ops: []Op{
			{ID: "a", Kind: OpCompute}, {ID: "a", Kind: OpCompute}}}, ErrDuplicateID},
		{"bad kind", Graph{Ranks: 1, Ops: []Op{{ID: "a", Kind: "warp"}}}, ErrBadKind},
		{"self send", Graph{Ranks: 2, Ops: []Op{
			{ID: "a", Kind: OpSend, Rank: 1, Peer: 1, Bytes: 1}}}, ErrSelfSend},
		{"zero-byte send", Graph{Ranks: 2, Ops: []Op{
			{ID: "a", Kind: OpSend, Rank: 0, Peer: 1}}}, ErrBadOp},
		{"negative compute", Graph{Ranks: 1, Ops: []Op{
			{ID: "a", Kind: OpCompute, Duration: -1}}}, ErrBadOp},
		{"1-member collective", Graph{Ranks: 2, Ops: []Op{
			{ID: "a", Kind: OpCollective, Ranks: []int{0}, Bytes: 1}}}, ErrBadOp},
		{"dup collective member", Graph{Ranks: 2, Ops: []Op{
			{ID: "a", Kind: OpCollective, Ranks: []int{0, 0}, Bytes: 1}}}, ErrBadOp},
		{"zero-byte collective", Graph{Ranks: 2, Ops: []Op{
			{ID: "a", Kind: OpCollective, Ranks: []int{0, 1}}}}, ErrBadOp},
		// Each op is valid alone; only their sum overflows virtual time.
		{"compute chain past virtual time", Graph{Ranks: 2, Ops: []Op{
			{ID: "c", Kind: OpCompute, Duration: 2562047 * time.Hour},
			{ID: "d", Kind: OpCompute, Duration: 2562047 * time.Hour, Deps: []string{"c"}}}}, ErrTooLarge},
		{"3-rank ring volume past 2^64", Graph{Ranks: 3, Ops: []Op{
			{ID: "a", Kind: OpCollective, Ranks: []int{0, 1, 2}, Bytes: 1<<63 + 1}}}, ErrTooLarge},
		{"2-rank ring volume past 2^64", Graph{Ranks: 2, Ops: []Op{
			{ID: "a", Kind: OpCollective, Ranks: []int{0, 1}, Bytes: 1 << 63}}}, ErrTooLarge},
		{"sends past MaxBytes together", Graph{Ranks: 2, Ops: []Op{
			{ID: "a", Kind: OpSend, Rank: 0, Peer: 1, Bytes: MaxBytes, Tag: 1},
			{ID: "b", Kind: OpSend, Rank: 0, Peer: 1, Bytes: 1, Tag: 2}}}, ErrTooLarge},
	}
	for _, tc := range cases {
		if err := tc.g.Validate(); !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
	}
	full := Graph{Ranks: MaxRanks, Ops: []Op{
		{ID: "a", Kind: OpCompute, Duration: MaxCompute},
		{ID: "b", Kind: OpCollective, Ranks: []int{0, MaxRanks - 1}, Bytes: MaxBytes}}}
	if err := full.Validate(); err != nil {
		t.Errorf("graph at MaxRanks, MaxCompute and MaxBytes rejected: %v", err)
	}
}

func TestValidateSendRecvMatching(t *testing.T) {
	// Recv with no send deadlocks at replay: reject at validation.
	g := &Graph{Name: "orphan", Ranks: 2, Ops: []Op{
		{ID: "r", Kind: OpRecv, Rank: 1, Peer: 0, Tag: 9},
	}}
	if err := g.Validate(); !errors.Is(err, ErrUnmatchedRecv) {
		t.Errorf("err = %v, want ErrUnmatchedRecv", err)
	}
	// Two sends with one key are ambiguous.
	g = &Graph{Name: "dup-send", Ranks: 2, Ops: []Op{
		{ID: "s1", Kind: OpSend, Rank: 0, Peer: 1, Bytes: 1, Tag: 3},
		{ID: "s2", Kind: OpSend, Rank: 0, Peer: 1, Bytes: 2, Tag: 3},
	}}
	if err := g.Validate(); !errors.Is(err, ErrDuplicateMatch) {
		t.Errorf("err = %v, want ErrDuplicateMatch", err)
	}
	// Recv byte annotation must agree with the send.
	g = &Graph{Name: "mismatch", Ranks: 2, Ops: []Op{
		{ID: "s", Kind: OpSend, Rank: 0, Peer: 1, Bytes: 64, Tag: 1},
		{ID: "r", Kind: OpRecv, Rank: 1, Peer: 0, Bytes: 65, Tag: 1},
	}}
	if err := g.Validate(); !errors.Is(err, ErrSizeMismatch) {
		t.Errorf("err = %v, want ErrSizeMismatch", err)
	}
	// An unmatched send is fire-and-forget: legal.
	g = &Graph{Name: "fire", Ranks: 2, Ops: []Op{
		{ID: "s", Kind: OpSend, Rank: 0, Peer: 1, Bytes: 64, Tag: 1},
	}}
	if err := g.Validate(); err != nil {
		t.Errorf("unmatched send rejected: %v", err)
	}
}

func TestBuildRejectsInvalid(t *testing.T) {
	b := NewBuilder("bad", 2)
	b.Compute("a", 0, time.Millisecond, "a") // self-dependency
	if _, err := b.Build(); !errors.Is(err, ErrCycle) {
		t.Errorf("err = %v, want ErrCycle", err)
	}
}
