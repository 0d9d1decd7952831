// Package churn drives fleet-scale serverless container lifecycle over
// the simulated cluster: seeded arrival/departure processes start and
// stop thousands of RunD MicroVMs per virtual minute across hosts,
// each start allocating a slot from the host's VF/vSwitch inventory
// (rnic.DevPool), booting under a pin mode (full pin vs PVDMA
// on-demand), DMA-mapping a working set under a per-host pinned-memory
// budget, and plumbing its virtio-net path — so the paper's Figure 6
// cold-start point becomes a distribution with pool-exhaustion
// queueing, eviction pressure and teardown tails.
//
// Determinism: each host forks its RNG streams from its shard engine's
// root RNG by a stable host tag, so the fork depends only on (seed,
// host index) — identical at any shard count (see sim.ShardedEngine).
// All host state (memory, IOMMU, page tables, pool, vSwitch, vnet
// device, PVDMA managers) is shard-local and hosts never interact, so
// the sharded engine may legally run parallel windows; results are
// merged after the run in host-index order and distribution quantiles
// are computed over sorted samples, making every report a pure
// function of (config, seed).
//
// Each host-side fact has one owner: live pinned bytes are the host
// memory ledger's (mem.Memory.PinnedBytes), and held slots and parked
// waiters are the device pool's. The driver reads them and keeps no
// copy.
package churn

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/addr"
	"repro/internal/iommu"
	"repro/internal/mem"
	"repro/internal/pcie"
	"repro/internal/pvdma"
	"repro/internal/rnic"
	"repro/internal/rund"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/vnet"
)

// ErrNotDrained is returned by Run when a host still holds resources
// after the run drained: every lifecycle tears down, so a quiescent
// host pins no memory and its pool holds no slot and parks no waiter.
var ErrNotDrained = errors.New("churn: host did not drain")

// Config parameterises one fleet run.
type Config struct {
	// Hosts is the fleet size; hosts are partitioned across the
	// sharded engine's shards contiguously.
	Hosts int
	// Window is the arrival window: arrivals stop after it, and the
	// run drains naturally (lifetimes and teardowns complete).
	Window sim.Duration
	// MeanInterarrival is the per-host mean gap between Poisson
	// arrivals (independent exponential gaps).
	MeanInterarrival sim.Duration

	// Sizes is the container guest-memory mix, sampled uniformly.
	Sizes []uint64
	// Mode is the pin mode containers boot under.
	Mode rund.PinMode
	// MeanLifetime is the exponential mean of a container's run time.
	MeanLifetime sim.Duration

	// HostMemoryBytes sizes each host's physical memory.
	HostMemoryBytes uint64
	// Pool is the per-host VF/vSwitch inventory.
	Pool rnic.DevPoolConfig

	// Recycle reuses stopped containers via rund.Restart instead of
	// always creating fresh MicroVMs.
	Recycle bool
}

// The per-container cost model and the host's pinning policy.
const (
	// workingSetFrac is the fraction of guest RAM each container
	// DMA-maps through PVDMA right after boot (PinOnDemand only).
	workingSetFrac = 1.0 / 64
	// workingSetChunk is the MapDMA granularity (a multiple of 2 MiB);
	// the eviction governor evicts chunk by chunk.
	workingSetChunk uint64 = 16 << 20
	// pinBudgetBytes caps live PVDMA-pinned bytes per host; the oldest
	// mapped chunks fleet-wide on the host are force-released (FIFO)
	// when a new mapping pushes past it.
	pinBudgetBytes uint64 = 1 << 30

	// vfGrantLatency is the device-plumbing cost paid on every grant.
	vfGrantLatency sim.Duration = 5 * time.Millisecond
	// vnetBase + vnetPerRule + the vSwitch lookup and a small virtio
	// config burst make up the vnet-plumbing span.
	vnetBase    sim.Duration = 20 * time.Millisecond
	vnetPerRule sim.Duration = 2 * time.Millisecond
	// ruleScanCost is the vSwitch per-entry scan cost: rule lookups
	// slow down as the host's flow table fills (Problem ⑤'s coupling).
	ruleScanCost sim.Duration = 20 * time.Microsecond
	// vnetConfigPackets is the number of config-path packets (ARP,
	// DHCP-style) sent through the host's virtio device per start.
	vnetConfigPackets = 64

	teardownBase   sim.Duration = 200 * time.Millisecond
	teardownPerGiB sim.Duration = 2 * time.Millisecond

	// samplePeriod is the pool-occupancy / pinned-bytes time-series
	// sampling interval over the arrival window.
	samplePeriod sim.Duration = 250 * time.Millisecond
)

// DefaultConfig is a 16-host fleet under PVDMA on-demand pinning with a
// shared (IP-pool style) device inventory: ~150 arrivals per host per
// virtual minute, ~2400 lifecycles fleet-wide.
func DefaultConfig() Config {
	return Config{
		Hosts:            16,
		Window:           60 * time.Second,
		MeanInterarrival: 400 * time.Millisecond,

		Sizes:        []uint64{4 << 30, 8 << 30, 16 << 30, 32 << 30},
		Mode:         rund.PinOnDemand,
		MeanLifetime: 20 * time.Second,

		HostMemoryBytes: 4 << 40,
		Pool: rnic.DevPoolConfig{
			Mode: rnic.DeviceShared, Capacity: 256, Devices: 4, Queue: true,
		},
	}
}

// Validate rejects configurations the driver cannot run.
func (c *Config) Validate() error {
	switch {
	case c.Hosts < 1:
		return fmt.Errorf("churn: need at least one host, have %d", c.Hosts)
	case c.Window <= 0 || c.MeanInterarrival <= 0 || c.MeanLifetime <= 0:
		return fmt.Errorf("churn: window/interarrival/lifetime must be positive")
	case len(c.Sizes) == 0:
		return fmt.Errorf("churn: empty container size mix")
	}
	for _, s := range c.Sizes {
		if s == 0 || !addr.IsAligned(s, addr.PageSize4K) {
			return fmt.Errorf("churn: container size %d not page aligned", s)
		}
	}
	return nil
}

// SeriesPoint is one time-series sample of a host's state.
type SeriesPoint struct {
	T           sim.Duration
	Occupancy   int // pool slots held
	Queued      int // pool waiters parked
	Active      int // lifecycles between grant and teardown-complete
	PinnedBytes uint64
}

// HostStats is one host's recorded run.
type HostStats struct {
	Arrivals       int
	ColdStarts     int // lifecycles that reached running
	Teardowns      int // lifecycles fully torn down
	PoolFailures   int // fail-mode pool rejections
	MemFailures    int // guest RAM allocation / boot failures
	TeardownFaults int // Stop calls that reported errors
	Recycled       int // container slots reused via Restart
	WaitedGrants   int // grants that queued for a slot
	Evictions      uint64
	PeakPinned     uint64
	PeakActive     int
	PeakOccupancy  int
	PeakQueued     int

	// Span samples in seconds, completion-ordered.
	ColdStart, VFSpan, PinSpan, VNetSpan, Teardown []float64

	Series []SeriesPoint
}

// Dist summarises a sample set.
type Dist struct {
	N                         int
	Mean, P50, P99, P999, Max float64
}

// distOf summarises samples with nearest-rank quantiles. It sums the
// samples in input order, then sorts a copy, so the caller's slice
// keeps its completion order.
func distOf(samples []float64) Dist {
	n := len(samples)
	if n == 0 {
		return Dist{}
	}
	var sum float64
	for _, s := range samples {
		sum += s
	}
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	rank := func(q float64) float64 { return sorted[int(math.Ceil(q*float64(n)))-1] }
	return Dist{
		N: n, Mean: sum / float64(n),
		P50: rank(0.50), P99: rank(0.99), P999: rank(0.999),
		Max: sorted[n-1],
	}
}

// Report is the fleet-level aggregation of a run.
type Report struct {
	Hosts          int
	Arrivals       int
	ColdStarts     int
	Teardowns      int
	PoolFailures   int
	MemFailures    int
	TeardownFaults int
	Recycled       int
	WaitedGrants   int
	Evictions      uint64
	PeakPinned     uint64 // max over hosts
	PeakActive     int
	PeakOccupancy  int
	PeakQueued     int

	ColdStart, VFSpan, PinSpan, VNetSpan, Teardown Dist

	// PerHost preserves each host's record (index order), including
	// the occupancy / pinned-bytes time series.
	PerHost []HostStats
}

// mapEntry is one live working-set chunk, FIFO-ordered host-wide.
type mapEntry struct {
	lc      *lifecycle
	gpa     addr.GPA
	size    uint64
	evicted bool
}

type host struct {
	idx   int
	label string
	cfg   *Config
	eng   *sim.Engine
	tr    *trace.Tracer

	arrivalRNG, mixRNG, lifeRNG *sim.RNG

	mem  *mem.Memory
	hyp  *rund.Hypervisor
	pool *rnic.DevPool
	vsw  *rnic.VSwitch
	vdev *vnet.Device

	fifo     []*mapEntry
	fifoHead int
	nextID   int
	idle     map[uint64][]*rund.Container // recycle lists by size

	stats HostStats
}

type lifecycle struct {
	h      *host
	id     int
	name   string
	size   uint64
	arrive sim.Time
	slot   rnic.DevSlot
	ct     *rund.Container
	mgr    *pvdma.Manager

	entries []*mapEntry
	flows   [2]uint64

	vfSpan, pinSpan, vnetSpan sim.Duration
}

// Run drives one fleet to completion on the sharded engine and returns
// the merged report. The engine must be fresh; Run schedules everything
// and calls RunAll itself.
//
// Each host records its per-container cold-start spans on its shard's
// tracer (sim.Engine.Tracer), if one is attached.
func Run(se *sim.ShardedEngine, cfg Config) (*Report, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	shards := se.NumShards()
	hosts := make([]*host, cfg.Hosts)
	for i := range hosts {
		h, err := newHost(&cfg, i, se.Shard(i*shards/cfg.Hosts))
		if err != nil {
			return nil, err
		}
		hosts[i] = h
		h.start()
	}
	// Hosts never interact, so any lookahead is safe; one window wider
	// than any reachable virtual time runs each shard to completion in a
	// single round.
	se.SetLookahead(sim.Duration(1) << 40)
	se.RunAll()
	if err := drained(hosts); err != nil {
		return nil, err
	}

	rep := &Report{Hosts: cfg.Hosts}
	var cold, vf, pin, vnetS, td []float64
	for _, h := range hosts {
		s := h.finalize()
		rep.PerHost = append(rep.PerHost, s)
		rep.Arrivals += s.Arrivals
		rep.ColdStarts += s.ColdStarts
		rep.Teardowns += s.Teardowns
		rep.PoolFailures += s.PoolFailures
		rep.MemFailures += s.MemFailures
		rep.TeardownFaults += s.TeardownFaults
		rep.Recycled += s.Recycled
		rep.WaitedGrants += s.WaitedGrants
		rep.Evictions += s.Evictions
		rep.PeakPinned = max(rep.PeakPinned, s.PeakPinned)
		rep.PeakActive = max(rep.PeakActive, s.PeakActive)
		rep.PeakOccupancy = max(rep.PeakOccupancy, s.PeakOccupancy)
		rep.PeakQueued = max(rep.PeakQueued, s.PeakQueued)
		cold = append(cold, s.ColdStart...)
		vf = append(vf, s.VFSpan...)
		pin = append(pin, s.PinSpan...)
		vnetS = append(vnetS, s.VNetSpan...)
		td = append(td, s.Teardown...)
	}
	rep.ColdStart = distOf(cold)
	rep.VFSpan = distOf(vf)
	rep.PinSpan = distOf(pin)
	rep.VNetSpan = distOf(vnetS)
	rep.Teardown = distOf(td)
	return rep, nil
}

// churnTag namespaces the per-host RNG forks ("chrn" in ASCII).
const churnTag = 0x6368726e << 32

func newHost(cfg *Config, idx int, eng *sim.Engine) (*host, error) {
	u, err := iommu.New(iommu.Config{Mode: iommu.ModeNoPT, ATSEnabled: true})
	if err != nil {
		return nil, err
	}
	m := mem.New(mem.Config{TotalBytes: cfg.HostMemoryBytes})
	complex := pcie.NewComplex(pcie.Config{}, u, m)
	pool, err := rnic.NewDevPool(cfg.Pool)
	if err != nil {
		return nil, err
	}
	// The host's virtio config path: one shared device whose buffer
	// pool lives in a DA window disjoint from every container's.
	vdev, err := vnet.New(vnet.Config{Stack: vnet.StackVirtioSF, Buffers: 1024},
		u, addr.DA(uint64(1)<<44), addr.HPA(uint64(1)<<30))
	if err != nil {
		return nil, err
	}
	root := eng.RNG().Fork(churnTag | uint64(idx))
	h := &host{
		idx:        idx,
		label:      fmt.Sprintf("churn-h%d", idx),
		cfg:        cfg,
		eng:        eng,
		tr:         eng.Tracer(),
		arrivalRNG: root.Fork(1),
		mixRNG:     root.Fork(2),
		lifeRNG:    root.Fork(3),
		mem:        m,
		hyp:        rund.NewHypervisor(complex),
		pool:       pool,
		vsw:        rnic.NewVSwitch(ruleScanCost),
		vdev:       vdev,
		idle:       make(map[uint64][]*rund.Container),
	}
	return h, nil
}

func (h *host) start() {
	h.eng.After(h.nextGap(), h.arrive)
	h.sample()
}

// nextGap draws the exponential inter-arrival gap.
func (h *host) nextGap() sim.Duration {
	g := sim.Duration(h.arrivalRNG.Exp(float64(h.cfg.MeanInterarrival)))
	if g < 1 {
		g = 1
	}
	return g
}

func (h *host) sample() {
	t := sim.Duration(h.eng.Now())
	h.stats.Series = append(h.stats.Series, SeriesPoint{
		T:           t,
		Occupancy:   h.pool.InUse(),
		Queued:      h.pool.Waiting(),
		Active:      h.pool.InUse(),
		PinnedBytes: h.mem.PinnedBytes(),
	})
	if t < h.cfg.Window {
		h.eng.After(samplePeriod, h.sample)
	}
}

func (h *host) arrive() {
	now := h.eng.Now()
	if sim.Duration(now) >= h.cfg.Window {
		return // window closed; the fleet drains
	}
	h.eng.After(h.nextGap(), h.arrive)

	h.stats.Arrivals++
	lc := &lifecycle{
		h:      h,
		id:     h.nextID,
		size:   h.cfg.Sizes[h.mixRNG.Intn(len(h.cfg.Sizes))],
		arrive: now,
	}
	lc.name = fmt.Sprintf("h%d-c%d", h.idx, lc.id)
	h.nextID++
	if err := h.pool.Acquire(lc.granted); err != nil {
		// Fail-mode exhaustion: the start is rejected outright.
		h.stats.PoolFailures++
		h.tr.Instant(h.label, "churn", "churn", "pool-reject", trace.S("ct", lc.name))
	}
}

// granted runs when the pool hands the lifecycle a slot — immediately,
// or at a later Release when it queued.
func (lc *lifecycle) granted(slot rnic.DevSlot) {
	h := lc.h
	lc.slot = slot
	wait := sim.Duration(h.eng.Now() - lc.arrive)
	if wait > 0 {
		h.stats.WaitedGrants++
	}
	lc.vfSpan = wait + vfGrantLatency
	h.eng.After(vfGrantLatency, lc.boot)
}

func (lc *lifecycle) boot() {
	h := lc.h
	ct, recycled := h.takeIdle(lc.size)
	if ct == nil {
		var err error
		ct, err = h.hyp.CreateContainer(rund.DefaultConfig(lc.name, lc.size))
		if err != nil {
			lc.fail("oom-create", err)
			return
		}
	}
	lc.ct = ct
	if recycled {
		h.stats.Recycled++
	}
	spans, err := ct.StartDetailed(h.cfg.Mode)
	if err != nil {
		lc.fail("boot", err)
		return
	}
	if h.cfg.Mode == rund.PinFull {
		h.notePinned()
	}
	lc.pinSpan = spans.Pin + spans.IOMMUMap
	h.eng.After(spans.Total(), lc.mapWorkingSet)
}

// takeIdle pops a stopped container of the given size off the recycle
// list and restarts it. A restart failure drops the container and
// falls back to a fresh MicroVM.
func (h *host) takeIdle(size uint64) (ct *rund.Container, recycled bool) {
	if !h.cfg.Recycle {
		return nil, false
	}
	list := h.idle[size]
	for len(list) > 0 {
		c := list[len(list)-1]
		list = list[:len(list)-1]
		if err := c.Restart(); err == nil {
			h.idle[size] = list
			return c, true
		}
	}
	h.idle[size] = list
	return nil, false
}

func (lc *lifecycle) fail(what string, err error) {
	h := lc.h
	h.stats.MemFailures++
	h.tr.Instant(h.label, "churn", "churn", "start-fail",
		trace.S("ct", lc.name), trace.S("stage", what), trace.S("err", err.Error()))
	if rerr := h.pool.Release(lc.slot); rerr != nil {
		panic(fmt.Sprintf("churn: release after failed start: %v", rerr))
	}
}

// mapWorkingSet DMA-maps the container's working set chunk by chunk
// through a fresh PVDMA manager, running the host's pinned-budget
// governor after each chunk.
func (lc *lifecycle) mapWorkingSet() {
	h := lc.h
	var mapCost sim.Duration
	if h.cfg.Mode == rund.PinOnDemand {
		lc.mgr = pvdma.New(lc.ct, pvdma.Config{})
		if h.tr.Enabled() {
			lc.mgr.SetTracer(h.tr, h.label)
		}
		ws := addr.AlignUp(uint64(workingSetFrac*float64(lc.size)), addr.PageSize2M)
		// Guest GPA 0..2MiB is reserved; keep the set inside RAM.
		if maxWS := lc.size - addr.PageSize2M; ws > maxWS {
			ws = maxWS
		}
		for mapped := uint64(0); mapped < ws; {
			chunk := workingSetChunk
			if rem := ws - mapped; chunk > rem {
				chunk = rem
			}
			_, gpa, err := lc.ct.AllocGuestBuffer(chunk)
			if err != nil {
				break // working set truncated by guest RAM; not fatal
			}
			cost, err := lc.mgr.MapDMA(addr.GPA(gpa.Start), gpa.Size)
			if err != nil {
				break
			}
			mapCost += cost
			h.notePinned()
			e := &mapEntry{lc: lc, gpa: addr.GPA(gpa.Start), size: gpa.Size}
			lc.entries = append(lc.entries, e)
			h.fifo = append(h.fifo, e)
			mapped += chunk
			h.enforceBudget()
		}
		lc.pinSpan += mapCost
	}
	h.eng.After(mapCost, lc.plumbVNet)
}

// enforceBudget force-releases the oldest live chunks on the host until
// pinned bytes fit the budget — eviction pressure across containers.
func (h *host) enforceBudget() {
	for h.mem.PinnedBytes() > pinBudgetBytes && h.fifoHead < len(h.fifo) {
		e := h.fifo[h.fifoHead]
		h.fifoHead++
		if e.evicted {
			continue
		}
		h.release(e)
		h.stats.Evictions++
		h.tr.Instant(h.label, "churn", "churn", "budget-evict",
			trace.S("ct", e.lc.name), trace.U("bytes", e.size))
	}
	if h.fifoHead > 4096 && h.fifoHead*2 > len(h.fifo) {
		h.fifo = append(h.fifo[:0], h.fifo[h.fifoHead:]...)
		h.fifoHead = 0
	}
}

// release drops one chunk's DMA mappings.
func (h *host) release(e *mapEntry) {
	if err := e.lc.mgr.ReleaseDMA(e.gpa, e.size); err != nil {
		panic(fmt.Sprintf("churn: release chunk: %v", err))
	}
	e.evicted = true
}

// plumbVNet installs the container's flow rules (one TCP, one RDMA) in
// the host vSwitch and pays the config-path cost: base plumbing,
// per-rule install, a lookup whose latency scales with flow-table
// depth, and a burst of config packets through the virtio device.
func (lc *lifecycle) plumbVNet() {
	h := lc.h
	base := uint64(h.idx)<<40 | uint64(lc.id)<<1
	src := macFor(h.idx, lc.id, 0)
	dst := macFor(h.idx, lc.id, 1)
	cost := vnetBase
	for i, class := range []rnic.TrafficClass{rnic.ClassTCP, rnic.ClassRDMA} {
		flow := base | uint64(i)
		rule := rnic.Rule{
			Class: class, FlowID: flow, VNI: uint32(h.idx + 1),
			SrcMAC: src, DstMAC: dst, Target: lc.name,
		}
		if err := rule.Validate(); err != nil {
			panic(fmt.Sprintf("churn: generated rule invalid: %v", err))
		}
		h.vsw.InstallBack(rule)
		_, lcost, err := h.vsw.Lookup(class, flow)
		if err != nil {
			panic(fmt.Sprintf("churn: installed rule not found: %v", err))
		}
		cost += vnetPerRule + lcost
		lc.flows[i] = flow
	}
	burst, err := h.vdev.SendBurst(vnetConfigPackets)
	if err != nil {
		panic(fmt.Sprintf("churn: vnet config burst: %v", err))
	}
	cost += burst
	lc.vnetSpan = cost
	h.eng.After(cost, lc.running)
}

// macFor derives a stable, never-zero MAC (locally administered bit
// set) for a container endpoint — zero MACs are dropped by the ToR.
func macFor(hostIdx, id, side int) rnic.MAC {
	return rnic.MAC{
		0x02, byte(side + 1),
		byte(hostIdx >> 8), byte(hostIdx),
		byte(id >> 8), byte(id),
	}
}

// running marks cold-start completion, records the span decomposition
// and schedules the departure.
func (lc *lifecycle) running() {
	h := lc.h
	total := sim.Duration(h.eng.Now() - lc.arrive)
	h.stats.ColdStarts++
	h.stats.ColdStart = append(h.stats.ColdStart, total.Seconds())
	h.stats.VFSpan = append(h.stats.VFSpan, lc.vfSpan.Seconds())
	h.stats.PinSpan = append(h.stats.PinSpan, lc.pinSpan.Seconds())
	h.stats.VNetSpan = append(h.stats.VNetSpan, lc.vnetSpan.Seconds())
	if h.tr.Enabled() {
		h.tr.Complete(h.label, "churn", "churn", "cold-start", total,
			trace.S("ct", lc.name), trace.S("mode", h.cfg.Mode.String()),
			trace.D("span-vf", lc.vfSpan), trace.D("span-pin", lc.pinSpan),
			trace.D("span-vnet", lc.vnetSpan))
	}
	life := sim.Duration(h.lifeRNG.Exp(float64(h.cfg.MeanLifetime)))
	if life < 1 {
		life = 1
	}
	h.eng.After(life, lc.teardown)
}

// teardown removes the container's rules, releases its surviving DMA
// chunks, stops the MicroVM crash-safely and, after the teardown
// latency, returns the pool slot (serving any parked waiter).
func (lc *lifecycle) teardown() {
	h := lc.h
	for i, class := range []rnic.TrafficClass{rnic.ClassTCP, rnic.ClassRDMA} {
		if !h.vsw.Remove(class, lc.flows[i]) {
			panic(fmt.Sprintf("churn: rule for %s vanished", lc.name))
		}
	}
	for _, e := range lc.entries {
		if !e.evicted {
			h.release(e)
		}
	}
	if err := lc.ct.Stop(); err != nil {
		h.stats.TeardownFaults++
	}
	cost := teardownBase +
		sim.Duration(float64(lc.size)/float64(1<<30)*float64(teardownPerGiB))
	h.eng.After(cost, func() {
		h.stats.Teardowns++
		h.stats.Teardown = append(h.stats.Teardown, cost.Seconds())
		if h.cfg.Recycle {
			h.idle[lc.size] = append(h.idle[lc.size], lc.ct)
		}
		if h.tr.Enabled() {
			h.tr.Complete(h.label, "churn", "churn", "teardown", cost,
				trace.S("ct", lc.name))
		}
		if err := h.pool.Release(lc.slot); err != nil {
			panic(fmt.Sprintf("churn: slot release: %v", err))
		}
	})
}

// notePinned raises PeakPinned to the host's live pinned bytes. Pins
// rise only at a full-pin boot and at each MapDMA chunk.
func (h *host) notePinned() {
	h.stats.PeakPinned = max(h.stats.PeakPinned, h.mem.PinnedBytes())
}

// finalize snapshots the host's stats after the run drained. A slot is
// held exactly from grant to teardown-complete, so the pool's peak is
// both the active and the occupancy peak.
func (h *host) finalize() HostStats {
	s := h.stats
	s.PeakActive = h.pool.PeakInUse()
	s.PeakOccupancy = h.pool.PeakInUse()
	s.PeakQueued = h.pool.PeakWaiting()
	return s
}

// drained returns an ErrNotDrained naming the first host whose memory
// ledger still pins bytes or whose pool still holds a slot or a waiter.
func drained(hosts []*host) error {
	for _, h := range hosts {
		pinned, held, waiting := h.mem.PinnedBytes(), h.pool.InUse(), h.pool.Waiting()
		if pinned != 0 || held != 0 || waiting != 0 {
			return fmt.Errorf("%w: host %d: %d bytes pinned, %d slots held, %d waiters",
				ErrNotDrained, h.idx, pinned, held, waiting)
		}
	}
	return nil
}
