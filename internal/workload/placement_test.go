package workload

import (
	"errors"
	"reflect"
	"testing"

	"repro/internal/fabric"
	"repro/internal/multipath"
)

func TestOrderHostsRerankedIsIdentity(t *testing.T) {
	_, _, eps := newJobCluster(t, 50, 4)
	out := OrderHosts(eps, Reranked, 123)
	if !reflect.DeepEqual(out, eps) {
		t.Error("reranked order differs from input order")
	}
	// The input must come back in a fresh slice, not aliased storage.
	out[0] = nil
	if eps[0] == nil {
		t.Error("OrderHosts mutated its input")
	}
}

func TestOrderHostsRandomGoldenOrdering(t *testing.T) {
	// The shuffle is part of every RandomRanking experiment's identity:
	// pin the exact permutation per seed so placement changes cannot
	// slip in as silent baseline shifts.
	_, _, eps := newJobCluster(t, 51, 4) // 8 hosts
	golden := map[uint64][]fabric.HostID{
		1: {7, 0, 1, 4, 3, 2, 6, 5},
		2: {1, 2, 4, 6, 5, 3, 0, 7},
		7: {1, 3, 7, 5, 4, 0, 6, 2},
	}
	for seed, want := range golden {
		var got []fabric.HostID
		for _, ep := range OrderHosts(eps, RandomRanking, seed) {
			got = append(got, ep.Host())
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("seed %d: order = %v, want %v", seed, got, want)
		}
	}
	// Same seed, same permutation — calls are pure.
	a := OrderHosts(eps, RandomRanking, 1)
	b := OrderHosts(eps, RandomRanking, 1)
	if !reflect.DeepEqual(a, b) {
		t.Error("same-seed shuffles differ")
	}
	if !reflect.DeepEqual(eps, OrderHosts(eps, Reranked, 0)) {
		t.Error("input mutated by shuffling")
	}
}

func TestJobConfigValidate(t *testing.T) {
	valid := JobConfig{
		Model: Table1()[0], Platform: DefaultPlatform(),
		Alg: multipath.OBS, Paths: 64,
	}
	if err := valid.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*JobConfig)
		want   error
	}{
		{"zero paths", func(c *JobConfig) { c.Paths = 0 }, ErrPaths},
		{"negative paths", func(c *JobConfig) { c.Paths = -8 }, ErrPaths},
		{"negative sim bytes", func(c *JobConfig) { c.SimBytes = uint64(18446744073709551615) }, ErrSimBytes},
	}
	for _, tc := range cases {
		cfg := valid
		tc.mutate(&cfg)
		if err := cfg.Validate(); !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
	}
	// One path and a zero (defaulted) SimBytes are legal limits.
	edge := valid
	edge.Paths, edge.SimBytes = 1, 0
	if err := edge.Validate(); err != nil {
		t.Errorf("boundary config rejected: %v", err)
	}
}

func TestRunStepRejectsInvalidConfig(t *testing.T) {
	eng, f, eps := newJobCluster(t, 52, 4)
	cfg := JobConfig{
		Model: Table1()[0], Platform: DefaultPlatform(),
		Alg: multipath.OBS, Paths: 0,
	}
	if _, err := RunStep(eng, f, eps, cfg); !errors.Is(err, ErrPaths) {
		t.Errorf("err = %v, want ErrPaths", err)
	}
}

func TestRunStepTable1Regression(t *testing.T) {
	// Pinned step times for the two Table-1 flagship models under both
	// placements. These are the simulator's own measurements, not paper
	// numbers: the point is that transport, collective or placement
	// changes cannot drift the workload baseline unnoticed.
	cases := []struct {
		name      string
		model     int
		placement Placement
		want      string
	}{
		{"llama33 reranked", 0, Reranked, "38.721344787s"},
		{"llama33 random", 0, RandomRanking, "38.766639909s"},
		{"gpt200 reranked", 1, Reranked, "59.163176589s"},
		{"gpt200 random", 1, RandomRanking, "59.227496243s"},
	}
	for _, tc := range cases {
		eng, f, eps := newJobCluster(t, 53, 8)
		cfg := JobConfig{
			Model: Table1()[tc.model], Platform: DefaultPlatform(),
			Alg: multipath.OBS, Paths: 64,
			Placement: tc.placement, PlacementSeed: 9,
			SimBytes: 4 << 20,
		}
		res, err := RunStep(eng, f, eps, cfg)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := res.StepTime.String(); got != tc.want {
			t.Errorf("%s: step time %s, want %s", tc.name, got, tc.want)
		}
	}
}
