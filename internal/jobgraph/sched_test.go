package jobgraph

import (
	"errors"
	"reflect"
	"testing"
	"time"

	"repro/internal/multipath"
	"repro/internal/sim"
	"repro/internal/transport"
	"repro/internal/workload"
)

// testJobs builds a 3-job, 2-kind schedule on overlapping host sets of
// a 8-host fleet: a training ring, an inference burst and a storage
// stream.
func testJobs(t *testing.T, placement workload.Placement) []JobSpec {
	t.Helper()
	train, err := FromModel(GenConfig{
		Model: workload.Table1()[0], Platform: workload.DefaultPlatform(),
		Ranks: 4, Steps: 2, CollectiveBytes: 1 << 20,
		ComputeTime: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	infer, err := InferenceBurst("inf", 3, 4, 128<<10, 200*time.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	store, err := StorageStream("store", 4, 2, 2<<20)
	if err != nil {
		t.Fatal(err)
	}
	return []JobSpec{
		{Name: "train", Kind: Training, Graph: train, Alg: multipath.OBS, Paths: 32,
			Placement: placement, PlacementSeed: 11, Hosts: []int{0, 1, 2, 3}},
		{Name: "infer", Kind: Inference, Graph: infer, Alg: multipath.OBS, Paths: 32,
			Placement: placement, PlacementSeed: 12, Hosts: []int{2, 3, 4}},
		{Name: "store", Kind: Storage, Graph: store, Alg: multipath.OBS, Paths: 32,
			Placement: placement, PlacementSeed: 13, Hosts: []int{1, 4, 5, 6}},
	}
}

func TestRunJobsSharedFleet(t *testing.T) {
	eng, fleet := newFleet(t, 31, 4)
	results, err := RunJobs(eng, fleet, testJobs(t, workload.Reranked))
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("%d results", len(results))
	}
	kinds := map[JobKind]bool{}
	for _, r := range results {
		kinds[r.Kind] = true
		if r.Result.Makespan <= 0 {
			t.Errorf("job %s makespan %v", r.Name, r.Result.Makespan)
		}
	}
	if len(kinds) != 3 {
		t.Errorf("kinds = %v", kinds)
	}
}

func TestPlaceValidation(t *testing.T) {
	eng, fleet := newFleet(t, 33, 2)
	_ = eng
	g := chain(t)
	base := JobSpec{Name: "j", Graph: g, Alg: multipath.OBS, Paths: 8}

	out := base
	out.Hosts = []int{0, 99}
	if _, err := Place(fleet, out); !errors.Is(err, ErrHostRange) {
		t.Errorf("err = %v, want ErrHostRange", err)
	}
	dup := base
	dup.Hosts = []int{1, 1}
	if _, err := Place(fleet, dup); !errors.Is(err, ErrDuplicateHost) {
		t.Errorf("err = %v, want ErrDuplicateHost", err)
	}
	short := base
	short.Hosts = []int{0}
	if _, err := Place(fleet, short); !errors.Is(err, ErrTooFewEndpoints) {
		t.Errorf("err = %v, want ErrTooFewEndpoints", err)
	}
	// Whole-fleet default, reranked: first Ranks endpoints in order.
	eps, err := Place(fleet, base)
	if err != nil {
		t.Fatal(err)
	}
	if len(eps) != 2 || eps[0] != fleet[0] || eps[1] != fleet[1] {
		t.Errorf("reranked placement = %v", eps)
	}
	// Random ranking is a deterministic function of the seed.
	r1 := base
	r1.Placement, r1.PlacementSeed = workload.RandomRanking, 5
	a, err := Place(fleet, r1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Place(fleet, r1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("same-seed placement differs")
	}
}

func TestRunJobsRejectsDuplicateNames(t *testing.T) {
	eng, fleet := newFleet(t, 34, 2)
	g := chain(t)
	jobs := []JobSpec{
		{Name: "same", Graph: g, Alg: multipath.OBS, Paths: 8},
		{Name: "same", Graph: g, Alg: multipath.OBS, Paths: 8},
	}
	if _, err := RunJobs(eng, fleet, jobs); !errors.Is(err, ErrDuplicateJob) {
		t.Errorf("err = %v, want ErrDuplicateJob", err)
	}
	if _, err := RunJobs(eng, fleet, nil); !errors.Is(err, ErrNoJobs) {
		t.Errorf("err = %v, want ErrNoJobs", err)
	}
}

func TestRunContendedReportsSlowdown(t *testing.T) {
	jobs := testJobs(t, workload.Reranked)
	var builds int
	outcomes, err := RunContended(func() (*sim.Engine, []*transport.Endpoint, error) {
		builds++
		eng, fleet := newFleet(t, 35, 4)
		return eng, fleet, nil
	}, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if builds != len(jobs)+1 {
		t.Errorf("built %d clusters, want %d isolated + 1 contended", builds, len(jobs))
	}
	for _, o := range outcomes {
		if o.Isolated <= 0 || o.Contended <= 0 {
			t.Errorf("%s: outcome %+v", o.Name, o)
		}
		// Sharing a fabric can only add queueing; a meaningful speedup
		// under contention would mean the accounting is broken.
		if o.Slowdown < 0.999 {
			t.Errorf("%s: slowdown %.4f < 1", o.Name, o.Slowdown)
		}
	}
	// The storage job pairs share hosts with the training ring; at
	// least one job must actually observe contention.
	var contended bool
	for _, o := range outcomes {
		if o.Slowdown > 1.0005 {
			contended = true
		}
	}
	if !contended {
		t.Errorf("no job slowed down at all: %+v", outcomes)
	}
}
