package jobgraph

import (
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/fabric"
	"repro/internal/multipath"
	"repro/internal/sim"
	"repro/internal/transport"
	"repro/internal/workload"
)

// newFleet builds a two-segment test fabric with one endpoint per host.
func newFleet(t testing.TB, seed uint64, hostsPerSeg int) (*sim.Engine, []*transport.Endpoint) {
	t.Helper()
	eng := sim.NewEngine(seed)
	f := fabric.New(eng, fabric.Config{
		Segments: 2, HostsPerSegment: hostsPerSeg, Aggs: 16,
		HostLinkBW: 12.5e9, FabricLinkBW: 12.5e9,
		LinkDelay: 2 * time.Microsecond, QueueLimit: 4 << 20, ECNThreshold: 256 << 10,
	})
	var eps []*transport.Endpoint
	for h := 0; h < f.NumHosts(); h++ {
		eps = append(eps, transport.NewEndpoint(f, fabric.HostID(h), transport.Config{}))
	}
	return eng, eps
}

func TestRunExecutesEveryOpKind(t *testing.T) {
	eng, eps := newFleet(t, 1, 2)
	g := chain(t)
	res, err := Run(eng, eps, g, Options{Alg: multipath.OBS, Paths: 32, FlowBase: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan <= time.Millisecond {
		t.Errorf("makespan %v not above the 1ms compute", res.Makespan)
	}
	if res.End != res.Start.Add(res.Makespan) {
		t.Errorf("End %v != Start %v + Makespan %v", res.End, res.Start, res.Makespan)
	}
	// Dependency order holds in the completion times.
	idx := map[string]int{}
	for i, op := range g.Ops {
		idx[op.ID] = i
	}
	for i, op := range g.Ops {
		for _, d := range op.Deps {
			if res.OpEnd[i] < res.OpEnd[idx[d]] {
				t.Errorf("op %q (end %v) finished before dep %q (end %v)",
					op.ID, res.OpEnd[i], d, res.OpEnd[idx[d]])
			}
		}
	}
	// Everyone's last op is the trailing collective.
	for r, end := range res.RankEnd {
		if end != res.End {
			t.Errorf("rank %d end %v != graph end %v", r, end, res.End)
		}
	}
	if res.WireBytes == 0 {
		t.Error("no wire bytes accounted")
	}
}

func TestRecvCompletesWithSend(t *testing.T) {
	// The recv posts immediately; the send is gated behind 5ms of
	// compute. The recv must complete exactly when the send does.
	b := NewBuilder("late-send", 2)
	c := b.Compute("c", 0, 5*time.Millisecond)
	b.Send("s", 0, 1, 1<<20, 1, c)
	b.Recv("r", 1, 0, 1)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	eng, eps := newFleet(t, 2, 2)
	res, err := Run(eng, eps, g, Options{Alg: multipath.OBS, Paths: 32, FlowBase: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.OpEnd[2] != res.OpEnd[1] {
		t.Errorf("recv end %v != send end %v", res.OpEnd[2], res.OpEnd[1])
	}
	if res.OpEnd[1] <= res.OpEnd[0] {
		t.Errorf("send end %v not after compute end %v", res.OpEnd[1], res.OpEnd[0])
	}
}

func TestLateRecvCompletesWhenReady(t *testing.T) {
	// The send fires at t=0 but the recv is gated behind 5ms of
	// compute: data waits for the receiver, not vice versa.
	b := NewBuilder("late-recv", 2)
	b.Send("s", 0, 1, 1<<20, 1)
	c := b.Compute("c", 1, 5*time.Millisecond)
	b.Recv("r", 1, 0, 1, c)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	eng, eps := newFleet(t, 3, 2)
	res, err := Run(eng, eps, g, Options{Alg: multipath.OBS, Paths: 32, FlowBase: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.OpEnd[2] < res.OpEnd[1] {
		t.Errorf("recv end %v before its compute dep end %v", res.OpEnd[2], res.OpEnd[1])
	}
	if res.OpEnd[2] < res.OpEnd[0] {
		t.Errorf("recv end %v before the send end %v", res.OpEnd[2], res.OpEnd[0])
	}
}

func TestReplayStartDelayShiftsNotStretches(t *testing.T) {
	g := chain(t)
	run := func(start sim.Duration) Result {
		eng, eps := newFleet(t, 11, 2)
		res, err := Run(eng, eps, g, Options{Alg: multipath.OBS, Paths: 32, FlowBase: 1, Start: start})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	at0 := run(0)
	at5 := run(5 * time.Millisecond)
	if at5.Start != sim.Time(0).Add(5*time.Millisecond) {
		t.Errorf("delayed start = %v", at5.Start)
	}
	if at0.Makespan != at5.Makespan {
		t.Errorf("makespan changed with start offset: %v vs %v", at0.Makespan, at5.Makespan)
	}
}

func TestNewReplayRejectsShortFleet(t *testing.T) {
	eng, eps := newFleet(t, 12, 2)
	g, err := FromModel(GenConfig{
		Model: workload.Table1()[0], Platform: workload.DefaultPlatform(),
		Ranks: len(eps) + 1, CollectiveBytes: 1 << 20, ComputeTime: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewReplay(eng, eps, g, Options{Alg: multipath.OBS, Paths: 8}); !errors.Is(err, ErrTooFewEndpoints) {
		t.Errorf("err = %v, want ErrTooFewEndpoints", err)
	}
}

func TestReplayResultBeforeRunIsIncomplete(t *testing.T) {
	eng, eps := newFleet(t, 13, 2)
	rp, err := NewReplay(eng, eps, chain(t), Options{Alg: multipath.OBS, Paths: 8, FlowBase: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer rp.Close()
	if _, err := rp.Result(); !errors.Is(err, ErrIncomplete) {
		t.Errorf("err = %v, want ErrIncomplete", err)
	}
}

func TestGeneratedGraphsValidateAndReplay(t *testing.T) {
	gens := map[string]func() (*Graph, error){
		"model": func() (*Graph, error) {
			return FromModel(GenConfig{
				Model: workload.Table1()[1], Platform: workload.DefaultPlatform(),
				Ranks: 4, Steps: 2, CollectiveBytes: 2 << 20,
				ComputeTime: 500 * time.Microsecond,
			})
		},
		"inference": func() (*Graph, error) {
			return InferenceBurst("inf", 4, 6, 128<<10, 300*time.Microsecond)
		},
		"storage": func() (*Graph, error) {
			return StorageStream("store", 4, 3, 2<<20)
		},
	}
	for name, gen := range gens {
		g, err := gen()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		eng, eps := newFleet(t, 21, 4)
		res, err := Run(eng, eps, g, Options{Alg: multipath.OBS, Paths: 32, FlowBase: 1})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Makespan <= 0 || res.WireBytes == 0 {
			t.Errorf("%s: res = %+v", name, res)
		}
	}
	// The model generator carries PP handoffs when the model has
	// pipeline stages.
	g, err := gens["model"]()
	if err != nil {
		t.Fatal(err)
	}
	st := g.Stats()
	if st.ByKind[OpSend] == 0 || st.ByKind[OpRecv] == 0 {
		t.Errorf("GPT-200B graph has no PP handoffs: %+v", st.ByKind)
	}
	if st.ByKind[OpCollective] != 2 {
		t.Errorf("expected one AllReduce per step, got %d", st.ByKind[OpCollective])
	}
}

// TestSameInstantCompletionsLaunchInOpOrder is the regression test for
// the send-completion ordering bug: when a send's final ack lands, the
// send and its wire-waiting recv complete at the same instant, and the
// ops those two completions free must launch in op-index order — the
// documented Graph.Ops tiebreak — not send-successors-first. The buggy
// code completed the send (launching its successors) before completing
// the matched recv, so a successor of the recv with a LOWER op index
// launched after a successor of the send with a higher one.
//
// C (freed by recv B, index 2, 4 KB) and D (freed by send A, index 3,
// 1 MB) share the rank0→rank2 connection, so launch order is wire
// order: launched first, C's small transfer finishes long before D's
// large one. Under the old ordering D's megabyte went on the wire
// first and C could only finish after it.
func TestSameInstantCompletionsLaunchInOpOrder(t *testing.T) {
	b := NewBuilder("same-instant", 3)
	a := b.Send("A", 0, 1, 64<<10, 1)
	rv := b.Recv("B", 1, 0, 1)
	b.Send("C", 0, 2, 4<<10, 1, rv)
	b.Send("D", 0, 2, 1<<20, 2, a)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	eng, eps := newFleet(t, 31, 3)
	res, err := Run(eng, eps, g, Options{Alg: multipath.OBS, Paths: 32, FlowBase: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.OpEnd[1] != res.OpEnd[0] {
		t.Fatalf("recv B end %v != send A end %v", res.OpEnd[1], res.OpEnd[0])
	}
	if res.OpEnd[2] >= res.OpEnd[3] {
		t.Errorf("same-instant successors launched out of op order: "+
			"C (idx 2, 4KB) ended %v, not before D (idx 3, 1MB) ended %v",
			res.OpEnd[2], res.OpEnd[3])
	}
}

// TestIncompleteErrorNamesPendingOps: a replay stopped short must say
// WHICH ops are pending and what each awaits, not just a count.
func TestIncompleteErrorNamesPendingOps(t *testing.T) {
	b := NewBuilder("stuck", 2)
	c := b.Compute("warmup", 0, time.Millisecond)
	b.Send("push", 0, 1, 1<<20, 1, c)
	b.Recv("pull", 1, 0, 1)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	eng, eps := newFleet(t, 32, 2)
	rp, err := NewReplay(eng, eps, g, Options{Alg: multipath.OBS, Paths: 32, FlowBase: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer rp.Close()
	rp.Start(nil)
	// Halt mid-compute: nothing has completed.
	eng.At(eng.Now().Add(100*time.Microsecond), eng.Halt)
	eng.RunAll()
	_, err = rp.Result()
	if !errors.Is(err, ErrIncomplete) {
		t.Fatalf("err = %v, want ErrIncomplete", err)
	}
	msg := err.Error()
	for _, want := range []string{
		"warmup",                      // the op actually stuck
		"push (awaiting warmup)",      // dep chain spelled out
		"pull (awaiting push [wire])", // recv blames the missing data
	} {
		if !strings.Contains(msg, want) {
			t.Errorf("error %q missing %q", msg, want)
		}
	}
}

func TestFromModelRejectsTinyFleet(t *testing.T) {
	_, err := FromModel(GenConfig{Model: workload.Table1()[0], Ranks: 1})
	if !errors.Is(err, ErrRanks) {
		t.Errorf("err = %v, want ErrRanks", err)
	}
}
