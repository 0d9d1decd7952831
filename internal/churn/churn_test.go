package churn_test

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/churn"
	"repro/internal/rnic"
	"repro/internal/rund"
	"repro/internal/sim"
	"repro/internal/trace"
)

// testConfig is a reduced fleet that still exercises every mechanism:
// queueing is possible, the pin budget forces evictions, sizes mix.
func testConfig() churn.Config {
	cfg := churn.DefaultConfig()
	cfg.Hosts = 4
	cfg.Window = 10 * time.Second
	cfg.MeanInterarrival = 200 * time.Millisecond
	cfg.Sizes = []uint64{2 << 30, 4 << 30}
	cfg.MeanLifetime = 3 * time.Second
	cfg.WorkingSetFrac = 1.0 / 32
	cfg.PinBudgetBytes = 192 << 20
	cfg.HostMemoryBytes = 1 << 40
	cfg.Pool = rnic.DevPoolConfig{Mode: rnic.DeviceShared, Capacity: 64, Devices: 2, Queue: true}
	return cfg
}

func runFleet(t *testing.T, cfg churn.Config, seed uint64, shards int) *churn.Report {
	t.Helper()
	se := sim.NewShardedEngine(seed, sim.SchedulerWheel, shards)
	rep, err := churn.Run(se, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func TestFleetSmoke(t *testing.T) {
	rep := runFleet(t, testConfig(), 42, 1)
	if rep.ColdStarts < 100 {
		t.Fatalf("only %d cold starts; fleet barely ran", rep.ColdStarts)
	}
	if rep.Teardowns != rep.ColdStarts {
		t.Errorf("fleet did not drain: %d cold starts, %d teardowns", rep.ColdStarts, rep.Teardowns)
	}
	if rep.Arrivals < rep.ColdStarts {
		t.Errorf("arrivals %d < cold starts %d", rep.Arrivals, rep.ColdStarts)
	}
	if rep.Evictions == 0 {
		t.Error("pin budget produced no evictions; pressure not exercised")
	}
	if rep.PeakPinned == 0 || rep.PeakOccupancy == 0 {
		t.Errorf("peaks not recorded: pinned=%d occupancy=%d", rep.PeakPinned, rep.PeakOccupancy)
	}
	if rep.ColdStart.N != rep.ColdStarts || rep.ColdStart.P50 <= 0 || rep.ColdStart.P999 < rep.ColdStart.P50 {
		t.Errorf("cold-start dist malformed: %+v", rep.ColdStart)
	}
	if rep.PinSpan.P50 <= 0 {
		t.Errorf("pvdma pin span empty: %+v", rep.PinSpan)
	}
	if len(rep.PerHost) != 4 || len(rep.PerHost[0].Series) == 0 {
		t.Error("per-host series missing")
	}
	if rep.MemFailures != 0 || rep.TeardownFaults != 0 {
		t.Errorf("unexpected failures: mem=%d teardown=%d", rep.MemFailures, rep.TeardownFaults)
	}
}

// TestFleetShardInvariant pins the fleet's determinism contract: the
// full report (every sample, every series point) is byte-identical
// across shard counts.
func TestFleetShardInvariant(t *testing.T) {
	cfg := testConfig()
	ref := runFleet(t, cfg, 7, 1)
	shardCounts := []int{2, 4}
	if testing.Short() {
		shardCounts = []int{4}
	}
	for _, shards := range shardCounts {
		if got := runFleet(t, cfg, 7, shards); !reflect.DeepEqual(got, ref) {
			t.Errorf("shards=%d diverged from shards=1", shards)
		}
	}
}

// TestFleetSeedSensitivity: distinct seeds take distinct paths.
func TestFleetSeedSensitivity(t *testing.T) {
	cfg := testConfig()
	a := runFleet(t, cfg, 1, 1)
	b := runFleet(t, cfg, 2, 1)
	if reflect.DeepEqual(a, b) {
		t.Error("seeds 1 and 2 produced identical fleets")
	}
}

func TestFleetTraceInvariance(t *testing.T) {
	cfg := testConfig()
	plain := runFleet(t, cfg, 11, 1)
	cfg.Tracer = trace.New(1 << 16)
	traced := runFleet(t, cfg, 11, 1)
	if cfg.Tracer.Len() == 0 {
		t.Fatal("tracer recorded nothing")
	}
	cfg.Tracer = nil
	if !reflect.DeepEqual(plain, traced) {
		t.Error("tracing changed the fleet's results")
	}
}

// TestExclusivePoolQueueing drives demand past an exclusive (SR-IOV VF)
// inventory so grants must queue; cold starts then include slot wait.
func TestExclusivePoolQueueing(t *testing.T) {
	cfg := testConfig()
	cfg.Pool = rnic.DevPoolConfig{Mode: rnic.DeviceExclusive, Capacity: 8, Devices: 8, Queue: true}
	rep := runFleet(t, cfg, 42, 2)
	if rep.WaitedGrants == 0 {
		t.Fatal("no grant ever queued; pool not saturated")
	}
	if rep.PeakQueued == 0 {
		t.Error("peak queue depth not recorded")
	}
	if rep.Teardowns != rep.ColdStarts {
		t.Errorf("queued fleet did not drain: %d starts, %d teardowns", rep.ColdStarts, rep.Teardowns)
	}
	if rep.PeakOccupancy > 8 {
		t.Errorf("occupancy %d exceeds exclusive capacity 8", rep.PeakOccupancy)
	}
	// VF span p999 must dominate its p50: the tail is the queue.
	if rep.VFSpan.P999 <= rep.VFSpan.P50 {
		t.Errorf("queueing left no VF-span tail: %+v", rep.VFSpan)
	}
}

// TestExclusivePoolFailMode: with queueing off, exhaustion rejects
// starts instead of parking them.
func TestExclusivePoolFailMode(t *testing.T) {
	cfg := testConfig()
	cfg.Pool = rnic.DevPoolConfig{Mode: rnic.DeviceExclusive, Capacity: 8, Devices: 8, Queue: false}
	rep := runFleet(t, cfg, 42, 1)
	if rep.PoolFailures == 0 {
		t.Fatal("no pool rejections in fail mode")
	}
	if rep.Arrivals != rep.ColdStarts+rep.PoolFailures {
		t.Errorf("lifecycle accounting leak: %d arrivals, %d starts, %d rejections",
			rep.Arrivals, rep.ColdStarts, rep.PoolFailures)
	}
}

func TestRecycleFleet(t *testing.T) {
	cfg := testConfig()
	cfg.Recycle = true
	rep := runFleet(t, cfg, 42, 2)
	if rep.Recycled == 0 {
		t.Fatal("recycle mode never restarted a container")
	}
	if rep.Teardowns != rep.ColdStarts {
		t.Errorf("recycled fleet did not drain: %d starts, %d teardowns", rep.ColdStarts, rep.Teardowns)
	}
	if rep.MemFailures != 0 {
		t.Errorf("recycle produced %d start failures", rep.MemFailures)
	}
	// Recycling must not break determinism.
	again := runFleet(t, cfg, 42, 4)
	if !reflect.DeepEqual(rep, again) {
		t.Error("recycle fleet diverged across shard counts")
	}
}

func TestBurstyProfile(t *testing.T) {
	cfg := testConfig()
	cfg.Profile = churn.Bursty
	cfg.BurstEvery = 4 * time.Second
	cfg.BurstLen = 1 * time.Second
	cfg.BurstFactor = 6
	rep := runFleet(t, cfg, 42, 1)
	pois := runFleet(t, testConfig(), 42, 1)
	if reflect.DeepEqual(rep, pois) {
		t.Error("bursty profile indistinguishable from poisson")
	}
	if rep.ColdStarts == 0 || rep.Teardowns != rep.ColdStarts {
		t.Errorf("bursty fleet broken: %d starts, %d teardowns", rep.ColdStarts, rep.Teardowns)
	}
	again := runFleet(t, cfg, 42, 4)
	if !reflect.DeepEqual(rep, again) {
		t.Error("bursty fleet diverged across shard counts")
	}
}

// TestPinFullFleet runs the VFIO path: pin span dominated by full-pin
// cost, no PVDMA evictions, pinned bytes peak at concurrent guest RAM.
func TestPinFullFleet(t *testing.T) {
	cfg := testConfig()
	cfg.Mode = rund.PinFull
	rep := runFleet(t, cfg, 42, 2)
	if rep.ColdStarts == 0 || rep.Teardowns != rep.ColdStarts {
		t.Fatalf("pin-all fleet broken: %d starts, %d teardowns", rep.ColdStarts, rep.Teardowns)
	}
	if rep.Evictions != 0 {
		t.Errorf("pin-all fleet recorded %d PVDMA evictions", rep.Evictions)
	}
	if rep.PeakPinned < 2<<30 {
		t.Errorf("peak pinned %d below one container", rep.PeakPinned)
	}
	pvd := runFleet(t, testConfig(), 42, 2)
	if rep.ColdStart.P50 <= pvd.ColdStart.P50 {
		t.Errorf("pin-all p50 %.2fs not slower than pvdma p50 %.2fs",
			rep.ColdStart.P50, pvd.ColdStart.P50)
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []func(*churn.Config){
		func(c *churn.Config) { c.Hosts = 0 },
		func(c *churn.Config) { c.Window = 0 },
		func(c *churn.Config) { c.Sizes = nil },
		func(c *churn.Config) { c.WorkingSetFrac = 1.5 },
		func(c *churn.Config) { c.WorkingSetChunk = 1 << 20 },
		func(c *churn.Config) { c.Sizes = []uint64{123} },
		func(c *churn.Config) { c.Profile = churn.Bursty; c.BurstFactor = 0 },
	}
	for i, mut := range bad {
		cfg := testConfig()
		mut(&cfg)
		se := sim.NewShardedEngine(1, sim.SchedulerWheel, 1)
		if _, err := churn.Run(se, cfg); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}
