package jobgraph

import (
	"errors"
	"fmt"

	"repro/internal/multipath"
	"repro/internal/sim"
	"repro/internal/transport"
	"repro/internal/workload"
)

// JobKind classifies a job for scheduling and reporting.
type JobKind string

// The workload mix of a production AI fabric: training rings,
// latency-sensitive inference bursts, and bulk storage streams.
const (
	Training  JobKind = "training"
	Inference JobKind = "inference"
	Storage   JobKind = "storage"
)

// JobSpec is one job submitted to the cluster scheduler.
type JobSpec struct {
	// Name labels the job in results; unique within a schedule.
	Name string
	// Kind classifies the job.
	Kind JobKind
	// Graph is the validated op graph to replay.
	Graph *Graph
	// Alg and Paths select the job's transport stack.
	Alg   multipath.Algorithm
	Paths int
	// Placement orders the job's hosts before ranks are assigned:
	// Reranked keeps the offered order (co-located ranks),
	// RandomRanking shuffles with PlacementSeed.
	Placement     workload.Placement
	PlacementSeed uint64
	// Hosts offers fleet host indices to the job; empty means the
	// whole fleet. Jobs may overlap — that is the contention under
	// study. len(Hosts) must be >= Graph.Ranks.
	Hosts []int
	// Start delays the job's root ops (arrival time).
	Start sim.Duration
}

// Scheduler validation errors.
var (
	// ErrNoJobs is returned for an empty schedule.
	ErrNoJobs = errors.New("jobgraph: no jobs")
	// ErrHostRange is returned when a JobSpec host index falls outside
	// the fleet.
	ErrHostRange = errors.New("jobgraph: host index out of range")
	// ErrDuplicateHost is returned when a JobSpec lists a host twice.
	ErrDuplicateHost = errors.New("jobgraph: duplicate host in spec")
	// ErrDuplicateJob is returned when two jobs share a name.
	ErrDuplicateJob = errors.New("jobgraph: duplicate job name")
)

// Place resolves a spec's rank->endpoint mapping on a fleet: the
// offered hosts (or the whole fleet), ordered by the placement policy,
// truncated to the graph's rank count.
func Place(fleet []*transport.Endpoint, spec JobSpec) ([]*transport.Endpoint, error) {
	offered := spec.Hosts
	if len(offered) == 0 {
		offered = make([]int, len(fleet))
		for i := range offered {
			offered[i] = i
		}
	}
	eps := make([]*transport.Endpoint, len(offered))
	seen := make(map[int]bool, len(offered))
	for i, h := range offered {
		if h < 0 || h >= len(fleet) {
			return nil, fmt.Errorf("%w: job %q host %d of fleet %d", ErrHostRange, spec.Name, h, len(fleet))
		}
		if seen[h] {
			return nil, fmt.Errorf("%w: job %q host %d", ErrDuplicateHost, spec.Name, h)
		}
		seen[h] = true
		eps[i] = fleet[h]
	}
	ordered := workload.OrderHosts(eps, spec.Placement, spec.PlacementSeed)
	if len(ordered) < spec.Graph.Ranks {
		return nil, fmt.Errorf("%w: job %q offers %d hosts for %d ranks",
			ErrTooFewEndpoints, spec.Name, len(ordered), spec.Graph.Ranks)
	}
	return ordered[:spec.Graph.Ranks], nil
}

// JobResult is one job's outcome in a schedule.
type JobResult struct {
	Name   string
	Kind   JobKind
	Result Result
}

// flowStride spaces concurrent jobs' flow-ID ranges; no replay of a
// repo-scale graph consumes anywhere near this many flows.
const flowStride = 1 << 20

// RunJobs replays every job concurrently on one engine and fleet —
// the contended run. Jobs are placed and started in slice order with
// disjoint flow-ID ranges, then the engine runs to completion; the
// shared fabric is where inter-job interference happens. Results are
// indexed like jobs.
func RunJobs(eng *sim.Engine, fleet []*transport.Endpoint, jobs []JobSpec) ([]JobResult, error) {
	if len(jobs) == 0 {
		return nil, ErrNoJobs
	}
	names := make(map[string]bool, len(jobs))
	replays := make([]*Replay, len(jobs))
	results := make([]JobResult, len(jobs))
	defer func() {
		for _, rp := range replays {
			if rp != nil {
				rp.Close()
			}
		}
	}()
	for i, spec := range jobs {
		if names[spec.Name] {
			return nil, fmt.Errorf("%w: %q", ErrDuplicateJob, spec.Name)
		}
		names[spec.Name] = true
		eps, err := Place(fleet, spec)
		if err != nil {
			return nil, err
		}
		rp, err := NewReplay(eng, eps, spec.Graph, Options{
			Alg: spec.Alg, Paths: spec.Paths,
			FlowBase: 1 + uint64(i)*flowStride,
			Start:    spec.Start,
		})
		if err != nil {
			return nil, fmt.Errorf("jobgraph: job %q: %w", spec.Name, err)
		}
		replays[i] = rp
		res := &results[i]
		res.Name, res.Kind = spec.Name, spec.Kind
		rp.Start(func(r Result) { res.Result = r })
	}
	eng.RunAll()
	for i, rp := range replays {
		if _, err := rp.Result(); err != nil {
			return nil, fmt.Errorf("jobgraph: job %q: %w", jobs[i].Name, err)
		}
	}
	return results, nil
}

// ClusterFunc builds a fresh engine and fleet — one isolated universe.
// The contended experiment calls it once per baseline and once for the
// shared run, so every measurement sees an identical topology. An error
// (a fault scenario that does not fit the fleet) stops the comparison.
type ClusterFunc func() (*sim.Engine, []*transport.Endpoint, error)

// Outcome is one job's contended-vs-isolated comparison.
type Outcome struct {
	Name string
	Kind JobKind
	// Isolated is the job's makespan running alone on the fleet.
	Isolated sim.Duration
	// Contended is its makespan sharing the fleet with the schedule.
	Contended sim.Duration
	// Slowdown is Contended/Isolated — 1.0 means perfect isolation.
	Slowdown float64
}

// RunContended measures interference: each job runs alone on a fresh
// fleet (its isolated baseline), then the whole schedule runs together
// on one fleet, and each job's slowdown is the ratio of the two
// makespans. Every run builds a private engine via newCluster, so the
// comparison is topology-identical and deterministic. The shared fleet
// is always built last — by the final newCluster call — so a caller can
// read contention state (queue peaks, link stats) off the last fleet
// its ClusterFunc built.
func RunContended(newCluster ClusterFunc, jobs []JobSpec) ([]Outcome, error) {
	if len(jobs) == 0 {
		return nil, ErrNoJobs
	}
	outcomes := make([]Outcome, len(jobs))
	for i, spec := range jobs {
		eng, fleet, err := newCluster()
		if err != nil {
			return nil, err
		}
		res, err := RunJobs(eng, fleet, []JobSpec{spec})
		if err != nil {
			return nil, fmt.Errorf("jobgraph: isolated %q: %w", spec.Name, err)
		}
		outcomes[i] = Outcome{
			Name: spec.Name, Kind: spec.Kind,
			Isolated: res[0].Result.Makespan,
		}
	}
	eng, fleet, err := newCluster()
	if err != nil {
		return nil, err
	}
	contended, err := RunJobs(eng, fleet, jobs)
	if err != nil {
		return nil, err
	}
	for i := range outcomes {
		outcomes[i].Contended = contended[i].Result.Makespan
		if outcomes[i].Isolated > 0 {
			outcomes[i].Slowdown = outcomes[i].Contended.Seconds() / outcomes[i].Isolated.Seconds()
		}
	}
	return outcomes, nil
}
