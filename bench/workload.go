package main

import (
	"fmt"
	"time"

	"repro/internal/churn"
	"repro/internal/collective"
	"repro/internal/fabric"
	"repro/internal/multipath"
	"repro/internal/rnic"
	"repro/internal/rund"
	"repro/internal/sim"
	"repro/internal/transport"
)

// A workload is a closed-loop batch of independent simulation cells.
// Every cell builds its own engine, fabric and endpoints, so a cell's
// result depends only on its configuration and the workload seed.
type workload struct {
	name  string
	why   string
	cells func() []cell
}

// A cell is one simulation. setup makes the topology, endpoint and
// ring construction calls and returns the function that drives the
// engine to completion; the two are timed separately.
type cell struct {
	name  string
	setup func(seed uint64) (run func() (cellResult, error), err error)
}

// cellResult is what a cell's run produces: the layer's own result
// struct plus the exact counts read from public accessors. Both are
// covered by the golden digest.
type cellResult struct {
	Result any    `json:"result"`
	Counts counts `json:"counts"`
}

// counts are the per-layer work counters of one cell.
type counts struct {
	Events       uint64 `json:"events"`
	Delivered    uint64 `json:"delivered"`
	Dropped      uint64 `json:"dropped"`
	Retransmits  uint64 `json:"retransmits"`
	StaleAcks    uint64 `json:"stale_acks"`
	Lifecycles   uint64 `json:"lifecycles"`
	Evictions    uint64 `json:"evictions"`
	WaitedGrants uint64 `json:"waited_grants"`
}

func (c *counts) add(o counts) {
	c.Events += o.Events
	c.Delivered += o.Delivered
	c.Dropped += o.Dropped
	c.Retransmits += o.Retransmits
	c.StaleAcks += o.StaleAcks
	c.Lifecycles += o.Lifecycles
	c.Evictions += o.Evictions
	c.WaitedGrants += o.WaitedGrants
}

// workloads are the benchmark's inputs. The cell configurations are
// copied from internal/experiments (fig9, fig10a, fig9-scale, fig11 and
// fig6-fleet); crosscheck_test.go pins the copies to the originals.
var workloads = []workload{
	{"spray", "clean packet-spray hot path on the 60-host fabric: fig9 permutations and fig10a all-reduce, working set in cache", sprayCells},
	{"fleet", "the same packet path on 4096 hosts (fig9-scale OBS@128): working set far beyond cache, so locality shows here", fleetCells},
	{"loss", "fig11 cells with 1% and 3% loss on one link: RTO arm/fire, retransmit, drop and repath", lossCells},
	{"churn", "fig6-fleet container churn: host-side pagetable/iommu/pvdma/rund models, network layers idle", churnCells},
}

func lookupWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// fabricConfig is the production link setup every network cell uses.
func fabricConfig(segments, hostsPerSeg, segsPerPod, aggs, cores int) fabric.Config {
	return fabric.Config{
		Segments: segments, HostsPerSegment: hostsPerSeg, Aggs: aggs,
		SegmentsPerPod: segsPerPod, CoreSwitches: cores,
		HostLinkBW: 50e9, FabricLinkBW: 50e9,
		LinkDelay: 2 * time.Microsecond, QueueLimit: 16 << 20, ECNThreshold: 512 << 10,
	}
}

// cluster builds a fabric on a one-shard engine group with one
// transport endpoint per host, as experiments' cluster and
// scaleCluster do at the default shard count.
func cluster(seed uint64, cfg fabric.Config) (*sim.ShardedEngine, *fabric.Fabric, []*transport.Endpoint) {
	se := sim.NewShardedEngine(seed, sim.DefaultSchedulerMode(), 1)
	f := fabric.NewSharded(se, cfg)
	eps := make([]*transport.Endpoint, f.NumHosts())
	for h := range eps {
		eps[h] = transport.NewEndpoint(f, fabric.HostID(h), transport.Config{})
	}
	return se, f, eps
}

// interleave orders ring members alternately across the two segments
// so every ring edge crosses the aggregation layer.
func interleave(eps []*transport.Endpoint, n, hostsPerSeg int) []*transport.Endpoint {
	var out []*transport.Endpoint
	for i := 0; i < n/2; i++ {
		out = append(out, eps[i], eps[hostsPerSeg+i])
	}
	return out
}

func permutationCell(name string, cfg fabric.Config, pc collective.PermutationConfig) cell {
	return cell{name, func(seed uint64) (func() (cellResult, error), error) {
		se, f, eps := cluster(seed, cfg)
		pc := pc
		pc.Seed = seed + 1
		return func() (cellResult, error) {
			res, err := collective.RunPermutation(se.Shard(0), f, eps, pc)
			if err == nil && res.Elapsed <= 0 {
				err = fmt.Errorf("%s: permutation did not drain", name)
			}
			return cellResult{res, counts{Events: se.Fired(), Delivered: f.Delivered(), Dropped: f.Dropped()}}, err
		}, nil
	}}
}

// ringCounts sums the transport counters of rings' flows.
func ringCounts(rings ...*collective.Ring) counts {
	var c counts
	for _, r := range rings {
		for _, conn := range r.Conns() {
			c.Retransmits += conn.Retransmits
			c.StaleAcks += conn.StaleAcks
		}
	}
	return c
}

// sprayCells are every fig9 cell (each algorithm at 4 and 128 paths,
// single-path at 4) and every fig10a cell (the test ring at 128 paths
// against two looping OBS background rings).
func sprayCells() []cell {
	var cells []cell
	for _, alg := range multipath.Algorithms() {
		for _, paths := range []int{4, 128} {
			if alg == multipath.SinglePath && paths != 4 {
				continue
			}
			cells = append(cells, permutationCell(fmt.Sprintf("fig9/%s/%d", alg, paths),
				fabricConfig(2, 30, 0, 60, 0),
				collective.PermutationConfig{Alg: alg, Paths: paths, BytesPerFlow: 8 << 20,
					SamplePeriod: sim.Duration(25 * time.Microsecond)}))
		}
	}
	for _, alg := range []multipath.Algorithm{multipath.SinglePath, multipath.BestRTT, multipath.DWRR, multipath.RoundRobin, multipath.MPRDMA, multipath.OBS} {
		cells = append(cells, backgroundAllReduceCell(alg))
	}
	return cells
}

func backgroundAllReduceCell(alg multipath.Algorithm) cell {
	const ringSize = 16
	const hps = 3*ringSize/2 + 8
	name := fmt.Sprintf("fig10a/%s/128", alg)
	return cell{name, func(seed uint64) (func() (cellResult, error), error) {
		se, f, eps := cluster(seed, fabricConfig(2, hps, 0, 60, 0))
		eng := se.Shard(0)
		// Selector streams are forked from the engine's never-consumed
		// root RNG by flow ID, so building every ring before launching
		// the background loops matches fig10a's interleaved order.
		var bg []*collective.Ring
		for i, members := range [][]*transport.Endpoint{interleave(eps, ringSize, hps), interleave(eps[ringSize/2:], ringSize, hps)} {
			ring, err := collective.NewRing(members, uint64(1000+i*100), multipath.OBS, 128)
			if err != nil {
				return nil, err
			}
			bg = append(bg, ring)
		}
		test, err := collective.NewRing(interleave(eps[ringSize:], ringSize, hps), 5000, alg, 128)
		if err != nil {
			return nil, err
		}
		return func() (cellResult, error) {
			for _, ring := range bg {
				var loop func(collective.Result)
				loop = func(collective.Result) { ring.Reduce(eng, 2<<20, loop) }
				ring.Reduce(eng, 2<<20, loop)
			}
			var res collective.Result
			test.Reduce(eng, 4<<20, func(r collective.Result) {
				res = r
				eng.Halt()
			})
			eng.Run(sim.Time(200 * time.Millisecond))
			c := ringCounts(append(bg, test)...)
			c.Events, c.Delivered, c.Dropped = se.Fired(), f.Delivered(), f.Dropped()
			if res.End == 0 {
				return cellResult{res, c}, fmt.Errorf("%s: test all-reduce did not complete", name)
			}
			return cellResult{res, c}, nil
		}, nil
	}}
}

// fleetCells is fig9-scale's OBS@128 cell: a cross-pod permutation on
// 4096 hosts (32 segments of 128, four pods, 60 aggs, 16 cores).
func fleetCells() []cell {
	return []cell{permutationCell("fig9-scale/OBS/128", fabricConfig(32, 128, 8, 60, 16),
		collective.PermutationConfig{Alg: multipath.OBS, Paths: 128, BytesPerFlow: 1 << 20,
			SamplePeriod: sim.Duration(50 * time.Microsecond)})}
}

// lossResult is one fig11 cell's outcome: aggregate all-reduce
// bandwidth over back-to-back rounds.
type lossResult struct {
	Rounds     int
	Volume     uint64
	Start, End sim.Time
	BusBW      float64
}

// lossCells are fig11's lossy cells: single-path, round-robin and OBS
// rings at 1% and 3% random loss on one uplink, three 48 MiB rounds.
func lossCells() []cell {
	var cells []cell
	for _, alg := range []multipath.Algorithm{multipath.SinglePath, multipath.RoundRobin, multipath.OBS} {
		for _, loss := range []float64{0.01, 0.03} {
			cells = append(cells, lossCell(alg, loss))
		}
	}
	return cells
}

func lossCell(alg multipath.Algorithm, loss float64) cell {
	paths := 128
	if alg == multipath.SinglePath {
		paths = 1
	}
	name := fmt.Sprintf("fig11/%s/%d/%.0f%%", alg, paths, loss*100)
	return cell{name, func(seed uint64) (func() (cellResult, error), error) {
		const rounds, reduceSize = 3, 48 << 20
		eng := sim.NewEngineMode(seed, sim.DefaultSchedulerMode())
		f := fabric.New(eng, fabricConfig(2, 24, 0, 60, 0))
		eps := make([]*transport.Endpoint, f.NumHosts())
		for h := range eps {
			eps[h] = transport.NewEndpoint(f, fabric.HostID(h), transport.Config{MTU: 16 << 10, InitialWindow: 1 << 20})
		}
		if err := f.SetFault(fabric.Uplink(0, 0), fabric.Fault{DropProb: loss}); err != nil {
			return nil, err
		}
		ring, err := collective.NewRing(interleave(eps, 24, 24), 100, alg, paths)
		if err != nil {
			return nil, err
		}
		return func() (cellResult, error) {
			var res lossResult
			var loop func(collective.Result)
			loop = func(r collective.Result) {
				res.Rounds++
				res.Volume += r.VolumePerFlow
				res.End = r.End
				if res.Rounds < rounds {
					ring.Reduce(eng, reduceSize, loop)
				} else {
					eng.Halt()
				}
			}
			res.Start = eng.Now()
			ring.Reduce(eng, reduceSize, loop)
			eng.Run(sim.Time(time.Second))
			c := ringCounts(ring)
			c.Events, c.Delivered, c.Dropped = eng.Fired(), f.Delivered(), f.Dropped()
			if res.Rounds < rounds || res.End <= res.Start {
				return cellResult{res, c}, fmt.Errorf("%s: only %d rounds completed", name, res.Rounds)
			}
			res.BusBW = float64(res.Volume) / res.End.Sub(res.Start).Seconds()
			return cellResult{res, c}, nil
		}, nil
	}}
}

// churnCalibrationBytes is fig6-fleet's 1.6 TB (decimal) guest.
const churnCalibrationBytes = 1_600_000_000_000

// churnCells are fig6-fleet's four fleets: full pin over an exclusive
// VF pool, PVDMA over a shared IP pool, PVDMA with recycling, and the
// 1.6 TB full-pin calibration fleet.
func churnCells() []cell {
	pinAll := churn.DefaultConfig()
	pinAll.Hosts = 8
	pinAll.Window = 30 * time.Second
	pinAll.Mode = rund.PinFull
	pinAll.Sizes = []uint64{4 << 30, 8 << 30}
	pinAll.MeanLifetime = 10 * time.Second
	pinAll.Pool = rnic.DevPoolConfig{Mode: rnic.DeviceExclusive, Capacity: 24, Devices: 24, Queue: true}

	pvdma := churn.DefaultConfig()

	recycle := churn.DefaultConfig()
	recycle.Hosts = 8
	recycle.Window = 30 * time.Second
	recycle.Recycle = true

	calib := churn.DefaultConfig()
	calib.Hosts = 1
	calib.Window = 10 * time.Second
	calib.MeanInterarrival = 500 * time.Millisecond
	calib.Sizes = []uint64{churnCalibrationBytes}
	calib.Mode = rund.PinFull
	calib.MeanLifetime = 2 * time.Second
	calib.HostMemoryBytes = 64 << 40
	calib.Pool = rnic.DevPoolConfig{Mode: rnic.DeviceShared, Capacity: 64, Devices: 4, Queue: true}

	var cells []cell
	for _, c := range []struct {
		name string
		cfg  churn.Config
	}{
		{"fig6-fleet/pin-all/excl-vf", pinAll},
		{"fig6-fleet/pvdma/ip-pool", pvdma},
		{"fig6-fleet/pvdma/recycle", recycle},
		{"fig6-fleet/calib-1.6TB", calib},
	} {
		cells = append(cells, cell{c.name, func(seed uint64) (func() (cellResult, error), error) {
			se := sim.NewShardedEngine(seed, sim.DefaultSchedulerMode(), 1)
			return func() (cellResult, error) {
				rep, err := churn.Run(se, c.cfg)
				if err != nil {
					return cellResult{}, err
				}
				cnt := counts{Events: se.Fired(), Lifecycles: uint64(rep.Teardowns),
					Evictions: rep.Evictions, WaitedGrants: uint64(rep.WaitedGrants)}
				if rep.Teardowns != rep.ColdStarts {
					return cellResult{rep, cnt}, fmt.Errorf("%s: fleet did not drain (%d starts, %d teardowns)",
						c.name, rep.ColdStarts, rep.Teardowns)
				}
				return cellResult{rep, cnt}, nil
			}, nil
		}})
	}
	return cells
}
