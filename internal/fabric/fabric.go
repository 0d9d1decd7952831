// Package fabric is a discrete-event data-center network simulator: the
// substrate for every multi-path experiment in §7 and §8. It models the
// paper's HPN-style topology as hosts behind ToR switches connected
// through a layer of aggregation switches (60 in production), with
// store-and-forward links carrying FIFO queues, ECN marking, tail drop,
// per-port byte counters, and fault injection (random loss and full
// link failure).
//
// Substitution note (see DESIGN.md): the production network is
// dual-plane and rail-optimized with a core "escape" layer. The
// experiments reproduced here exercise the ToR-uplink choice — which
// aggregation switch each packet traverses — so the simulator collapses
// the planes into one Clos layer with a configurable aggregation count.
// Path identifiers map onto aggregation switches exactly as the paper's
// 128 paths cover its 60 aggregation switches.
package fabric

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/sim"
	"repro/internal/trace"
)

// ErrBadHost is returned by Send for a source or destination the
// fabric does not have.
var ErrBadHost = errors.New("fabric: unknown host")

// HostID identifies a host NIC attached to the fabric.
type HostID int32

// Packet is one unit on the wire. Size is in bytes; PathID selects the
// ToR uplink (aggregation switch) for cross-segment hops, and a negative
// PathID asks for adaptive routing.
//
// A packet is exactly one 64-byte cache line and holds no pointer
// (TestHotLayout pins both): an arrival touches one line of it, and the
// collector never scans the packets in flight. Data packets and acks
// share Seq and Epoch; Ack says which one a packet is.
type Packet struct {
	Flow uint64
	// Seq is a data packet's sequence number; an ack carries the Seq it
	// acknowledges.
	Seq    uint64
	PathID int
	Src    HostID
	Dst    HostID
	Size   uint32
	Slot   uint32 // the flow's index in the Dst endpoint's transport flow table
	// Epoch counts (re)transmissions of a data packet's Seq; an ack
	// echoes it so the sender can tell which transmission the ack is for
	// (Karn's algorithm: stale-epoch acks must not be RTT-sampled).
	Epoch uint32
	// mid is the route between the host links, filled by Send (inline,
	// so routing allocates nothing): the route is hops link ids, of which
	// the next is link(at). The first and last links connect Src and Dst
	// to their ToRs and follow from the host ids, so they are not stored.
	mid      [maxRouteHops - 2]int32
	hops, at uint8
	Ack      bool // acks are small control packets riding the same fabric
	flags    uint8
}

// Packet flag bits.
const (
	flagECN    uint8 = 1 << iota // set by congested queues along the way
	flagAckECN                   // an ack's echo of the data packet's ECN
)

// ECN reports whether a congested queue marked the packet.
func (p *Packet) ECN() bool { return p.flags&flagECN != 0 }

// AckECN reports the congestion bit an ack echoes.
func (p *Packet) AckECN() bool { return p.flags&flagAckECN != 0 }

// SetAckECN sets the congestion bit an ack echoes.
func (p *Packet) SetAckECN(on bool) {
	if on {
		p.flags |= flagAckECN
	} else {
		p.flags &^= flagAckECN
	}
}

// link returns the id of the route's i-th link (0 ≤ i < hops).
func (p *Packet) link(i uint8) int32 {
	switch i {
	case 0:
		return hostUp(p.Src)
	case p.hops - 1:
		return hostDown(p.Dst)
	}
	return p.mid[i-1]
}

// hostUp and hostDown are the ids of host h's link to and from its ToR:
// build creates them first, in host order.
func hostUp(h HostID) int32   { return 2 * int32(h) }
func hostDown(h HostID) int32 { return 2*int32(h) + 1 }

// Config describes the topology and link parameters.
type Config struct {
	// Segments is the number of network segments (ToR domains).
	Segments int
	// HostsPerSegment is the number of host NICs under each ToR.
	HostsPerSegment int
	// Aggs is the number of aggregation switches (60 in HPN7.0).
	Aggs int
	// HostLinkBW is host↔ToR bandwidth in bytes/sec.
	HostLinkBW float64
	// FabricLinkBW is ToR↔Agg bandwidth in bytes/sec.
	FabricLinkBW float64
	// LinkDelay is per-hop propagation delay.
	LinkDelay sim.Duration
	// QueueLimit is the per-port queue capacity in bytes (tail drop).
	QueueLimit uint64
	// ECNThreshold is the queue depth that sets the ECN bit.
	ECNThreshold uint64

	// SegmentsPerPod groups segments into pods; traffic between pods
	// traverses the core "escape" layer (0 or >= Segments means one
	// pod, no core hops). Problem ⑥'s hash imbalance lives here.
	SegmentsPerPod int
	// CoreSwitches is the size of the core layer (only used when the
	// topology has more than one pod).
	CoreSwitches int
	// CoreLinkBW is Agg↔Core bandwidth in bytes/sec (defaults to
	// FabricLinkBW).
	CoreLinkBW float64
	// AdaptiveRouting lets ToR switches pick the least-loaded uplink
	// for packets carrying a negative PathID (§7.1's AR category).
	AdaptiveRouting bool
}

// Pods reports how many pods the configuration's segments form: the
// partition atoms NewSharded spreads across shards, so a group of more
// shards than pods leaves the extra shards idle. Segments must be set.
func (c Config) Pods() int {
	if c.SegmentsPerPod > 0 && c.SegmentsPerPod < c.Segments {
		return (c.Segments + c.SegmentsPerPod - 1) / c.SegmentsPerPod
	}
	return 1
}

// DefaultConfig sizes a two-segment slice of the production network:
// 2×200 Gbps hosts, 400 Gbps fabric links, 60 aggregation switches.
func DefaultConfig() Config {
	return Config{
		Segments:        2,
		HostsPerSegment: 16,
		Aggs:            60,
		HostLinkBW:      50e9, // 400 Gbps (2x200G bonded)
		FabricLinkBW:    50e9,
		LinkDelay:       2 * time.Microsecond,
		QueueLimit:      8 << 20,
		ECNThreshold:    400 << 10,
	}
}

// link is the hot half of one unidirectional store-and-forward port:
// exactly the state every arrival reads or writes, in one 64-byte cache
// line (TestHotLayout pins the size). The rest of the port is the
// linkCold at the same index. Each link is owned by exactly one shard:
// every arrival, claim and counter update happens on eng, which makes
// both halves shard-local state.
type link struct {
	// freeAt is when the serialiser drains everything queued so far;
	// queue depth in bytes is (freeAt-now)*rate.
	freeAt   sim.Time
	bytesTx  uint64
	maxQueue uint64
	ecnMarks uint64
	// rate (bytes/s) and delay are the effective serialisation rate and
	// propagation delay under any gray fault; SetFault recomputes them.
	rate  float64
	delay sim.Duration
	eng   *sim.Engine
	id    int32
	shard uint16
	// entry marks a cross-shard handoff target (Core→Agg links in
	// multi-pod topologies). Same-instant arrivals at an entry link are
	// buffered in linkCold.pending and claimed at instant end in
	// canonical packet order, because their event order is a merge
	// artifact: it depends on how source shards interleave, which
	// differs between shard counts. Set whenever the topology has a core
	// layer, at every shard count, so 1-shard and N-shard runs agree
	// bit-for-bit.
	entry bool
	// faulty is set while the link is down or lossy: only then does an
	// arrival read the cold fault state.
	faulty bool
}

// linkCold is the rest of a port, read by drops, tracing, faults,
// statistics and entry-link buffering.
type linkCold struct {
	name     string
	capacity float64
	// rng drives this link's random drops. Per-link (forked from the
	// never-consumed engine root by link id) so the draw sequence is a
	// function of the link's own arrival order — identical at any shard
	// count — instead of the global interleaving of all lossy links.
	rng   *sim.RNG
	fault Fault
	drops uint64

	pending    []*Packet
	drainArmed bool
}

// queueDepth returns the backlog in bytes at time now.
func (l *link) queueDepth(now sim.Time) uint64 {
	if l.freeAt <= now {
		return 0
	}
	return uint64(float64(l.freeAt-now) / 1e9 * l.rate)
}

// pool holds one shard's packet free stack and delivery counters. The
// engine driving a shard is single-threaded, so a plain slice suffices;
// per-shard pools keep the parallel-window mode race-free.
type pool struct {
	free      []*Packet
	delivered uint64
	dropped   uint64
}

// Fabric is one instantiated network, spread across one or more event
// engine shards. Partition rule: a pod is the atom; pod p lives on
// shard p·N/pods. Links toward the core (host→ToR, ToR→Agg, Agg→Core)
// belong to the source pod's shard, links toward hosts (Core→Agg,
// Agg→ToR, ToR→host) to the destination pod's, so the only cross-shard
// hop on any route is Agg→Core's departure into Core→Agg.
type Fabric struct {
	cfg  Config
	eng  *sim.Engine   // shard 0: the engine single-shard callers see
	engs []*sim.Engine // per-shard engines (len 1 when unsharded)
	se   *sim.ShardedEngine
	// segRNG[s] drives adaptive-routing picks for segment s's uplinks —
	// per-segment so the draw order is the segment's own send order,
	// which is shard-count-invariant.
	segRNG []*sim.RNG
	// shardOfPod maps each pod to the shard that owns it.
	shardOfPod []int
	// hostAt[h] is host h's segment, pod and shard, so the per-packet
	// lookups read a table instead of dividing.
	hostAt []hostLoc

	// links is every port's hot half, indexed by link id, in one slab
	// sized by build; cold[id] is the rest of port id. A slab over 32 KiB
	// is a large allocation and so page-aligned: every link sits on a
	// cache line of its own.
	links []link
	cold  []linkCold

	// The topology tables hold link ids. torUp[s][a] is segment s's
	// uplink to aggregation switch a; torDown[s][a] the reverse
	// direction. Host links need no table (hostUp, hostDown).
	torUp   [][]int32
	torDown [][]int32

	// Core layer (multi-pod topologies): aggUp[pod][agg][core] and
	// coreDown[pod][agg][core] are the Agg→Core and Core→Agg links for
	// traffic leaving/entering each pod.
	aggUp    [][][]int32
	coreDown [][][]int32
	pods     int
	segsPod  int
	cores    int

	// aggOverride[segment][agg] is the agg that uplink's traffic takes:
	// agg itself, or the next one while its Fault is Withdrawn (the
	// control plane's reroute, §7.2). SetFault keeps it in step.
	aggOverride [][]int

	handlers []func(*Packet)

	// spans is the packets' lifecycle-span side table: SetSpan fills it,
	// and only while a tracer is attached, so an untraced run never
	// allocates or reads it. A traced run executes on one engine (the
	// recorder is single-threaded), so one table serves every shard.
	spans map[*Packet]trace.ID

	// pools[shard] carries the shard's free stack and counters. Packets
	// a caller allocated directly still end their life here, so the
	// stack is capped to keep externally-fed workloads from hoarding
	// memory.
	pools   []pool
	hopFn   func(any) // pre-bound packet stepper: no closure per hop
	drainFn func(any) // pre-bound entry-link drain for AtInstantEnd
}

// hostLoc is where a host sits in the topology.
type hostLoc struct {
	seg, pod, shard int32
}

// maxRouteHops is the longest route the topology produces (cross-pod:
// host, ToR up, Agg up, Core down, ToR down, host).
const maxRouteHops = 6

// pktFreeCap bounds each shard's packet free stack.
const pktFreeCap = 4096

// New builds the fabric on a single engine.
func New(eng *sim.Engine, cfg Config) *Fabric {
	return build([]*sim.Engine{eng}, nil, cfg)
}

// NewSharded builds the fabric across the shards of se, assigning each
// pod to shard pod·N/pods and declaring the cross-shard lookahead
// (LinkDelay: a handoff departs no earlier than one propagation delay
// after its emitting event, and faults only ever add delay). The output
// must — and differential tests verify it does — match New on one
// engine byte-for-byte.
func NewSharded(se *sim.ShardedEngine, cfg Config) *Fabric {
	f := build(se.Engines(), se, cfg)
	se.SetLookahead(f.cfg.LinkDelay)
	return f
}

// build constructs the topology on the given shard engines.
func build(engs []*sim.Engine, se *sim.ShardedEngine, cfg Config) *Fabric {
	d := DefaultConfig()
	if cfg.Segments == 0 {
		cfg.Segments = d.Segments
	}
	if cfg.HostsPerSegment == 0 {
		cfg.HostsPerSegment = d.HostsPerSegment
	}
	if cfg.Aggs == 0 {
		cfg.Aggs = d.Aggs
	}
	if cfg.HostLinkBW == 0 {
		cfg.HostLinkBW = d.HostLinkBW
	}
	if cfg.FabricLinkBW == 0 {
		cfg.FabricLinkBW = d.FabricLinkBW
	}
	if cfg.LinkDelay == 0 {
		cfg.LinkDelay = d.LinkDelay
	}
	if cfg.QueueLimit == 0 {
		cfg.QueueLimit = d.QueueLimit
	}
	if cfg.ECNThreshold == 0 {
		cfg.ECNThreshold = d.ECNThreshold
	}

	f := &Fabric{cfg: cfg, eng: engs[0], engs: engs, se: se}
	f.segsPod = cfg.Segments
	f.pods = cfg.Pods()
	if f.pods > 1 {
		f.segsPod = cfg.SegmentsPerPod
	}
	// Pods are the partition atoms: every link and host of pod p lives
	// on one shard. (With one pod the whole fabric lands on shard 0.)
	f.shardOfPod = make([]int, f.pods)
	for p := range f.shardOfPod {
		f.shardOfPod[p] = p * len(engs) / f.pods
	}
	f.pools = make([]pool, len(engs))
	f.segRNG = make([]*sim.RNG, cfg.Segments)
	for s := range f.segRNG {
		f.segRNG[s] = engs[0].RNG().Fork(0xa5a50000 ^ uint64(s))
	}
	nhosts := cfg.Segments * cfg.HostsPerSegment
	nlinks := 2*nhosts + 2*cfg.Segments*cfg.Aggs
	if f.pods > 1 {
		f.cores = cfg.CoreSwitches
		if f.cores == 0 {
			f.cores = 8
		}
		nlinks += 2 * f.pods * cfg.Aggs * f.cores
	}
	f.links = make([]link, 0, nlinks)
	f.cold = make([]linkCold, 0, nlinks)
	f.hostAt = make([]hostLoc, nhosts)
	for h := 0; h < nhosts; h++ {
		seg := h / cfg.HostsPerSegment
		sh := f.shardOfSegment(seg)
		f.hostAt[h] = hostLoc{seg: int32(seg), pod: int32(seg / f.segsPod), shard: int32(sh)}
		// Links 2h and 2h+1: the ids hostUp and hostDown compute.
		f.newLink(fmt.Sprintf("host%d->tor", h), cfg.HostLinkBW, sh)
		f.newLink(fmt.Sprintf("tor->host%d", h), cfg.HostLinkBW, sh)
	}
	f.torUp = make([][]int32, cfg.Segments)
	f.torDown = make([][]int32, cfg.Segments)
	for s := 0; s < cfg.Segments; s++ {
		f.torUp[s] = make([]int32, cfg.Aggs)
		f.torDown[s] = make([]int32, cfg.Aggs)
		sh := f.shardOfSegment(s)
		for a := 0; a < cfg.Aggs; a++ {
			f.torUp[s][a] = f.newLink(fmt.Sprintf("tor%d->agg%d", s, a), cfg.FabricLinkBW, sh)
			f.torDown[s][a] = f.newLink(fmt.Sprintf("agg%d->tor%d", a, s), cfg.FabricLinkBW, sh)
		}
	}
	if f.pods > 1 {
		coreBW := cfg.CoreLinkBW
		if coreBW == 0 {
			coreBW = cfg.FabricLinkBW
		}
		f.aggUp = make([][][]int32, f.pods)
		f.coreDown = make([][][]int32, f.pods)
		for pod := 0; pod < f.pods; pod++ {
			f.aggUp[pod] = make([][]int32, cfg.Aggs)
			f.coreDown[pod] = make([][]int32, cfg.Aggs)
			sh := f.shardOfPod[pod]
			for a := 0; a < cfg.Aggs; a++ {
				f.aggUp[pod][a] = make([]int32, f.cores)
				f.coreDown[pod][a] = make([]int32, f.cores)
				for cr := 0; cr < f.cores; cr++ {
					f.aggUp[pod][a][cr] = f.newLink(fmt.Sprintf("pod%d-agg%d->core%d", pod, a, cr), coreBW, sh)
					down := f.newLink(fmt.Sprintf("core%d->pod%d-agg%d", cr, pod, a), coreBW, sh)
					// Core→Agg is where traffic enters the destination
					// pod — the handoff seam. Canonical-drain it at every
					// shard count so shard counts cannot disagree.
					f.links[down].entry = true
					f.coreDown[pod][a][cr] = down
				}
			}
		}
	}
	f.aggOverride = make([][]int, cfg.Segments)
	for s := range f.aggOverride {
		f.aggOverride[s] = make([]int, cfg.Aggs)
		for a := range f.aggOverride[s] {
			f.aggOverride[s][a] = a
		}
	}
	f.handlers = make([]func(*Packet), nhosts)
	f.hopFn = func(a any) { f.hop(a.(*Packet)) }
	f.drainFn = func(a any) { f.drainLink(a.(*link)) }
	return f
}

// AllocPacket returns a zeroed packet from shard 0's free list (or
// fresh storage). Packets handed to Send are reclaimed automatically
// when they are delivered or dropped, so transports that allocate here
// make the whole per-packet path allocation-free. Receive handlers must
// not retain a delivered *Packet past their return. Sharded callers use
// AllocPacketFor so the allocation stays on the sending host's shard.
func (f *Fabric) AllocPacket() *Packet { return f.allocPacket(0) }

// AllocPacketFor returns a zeroed packet from the free list of the
// shard that owns host h — the shard whose engine is running when h
// sends, keeping the free lists shard-local and race-free.
func (f *Fabric) AllocPacketFor(h HostID) *Packet {
	return f.allocPacket(f.ShardOf(h))
}

func (f *Fabric) allocPacket(shard int) *Packet {
	po := &f.pools[shard]
	n := len(po.free)
	if n == 0 {
		return new(Packet)
	}
	p := po.free[n-1]
	po.free = po.free[:n-1]
	*p = Packet{}
	return p
}

// release returns a delivered or dropped packet to the shard's free
// stack and forgets its span. Its fields are left intact until reuse so
// a handler's just-returned pointer stays readable (tests inspect
// delivered packets this way).
func (f *Fabric) release(shard int, p *Packet) {
	if f.spans != nil {
		delete(f.spans, p)
	}
	if po := &f.pools[shard]; len(po.free) < pktFreeCap {
		po.free = append(po.free, p)
	}
}

// SetSpan attaches a lifecycle-span ID to p before Send. The fabric
// steps the span at every hop, ECN mark and drop, so an exported trace
// shows the packet's full hop-by-hop journey. A zero id (untraced)
// records nothing.
func (f *Fabric) SetSpan(p *Packet, id trace.ID) {
	if id == 0 {
		return
	}
	if f.spans == nil {
		f.spans = make(map[*Packet]trace.ID)
	}
	f.spans[p] = id
}

// Span returns p's lifecycle-span ID, zero when it has none. It is
// valid until p is recycled, so a receive handler may read it.
func (f *Fabric) Span(p *Packet) trace.ID { return f.spans[p] }

// Pod returns which pod a host belongs to.
func (f *Fabric) Pod(h HostID) int { return int(f.hostAt[h].pod) }

// Pods returns the pod count.
func (f *Fabric) Pods() int { return f.pods }

// CoreStats returns per-core aggregate byte counters summed over both
// directions and all agg attachments — the Problem ⑥ imbalance
// observable.
func (f *Fabric) CoreStats() []uint64 {
	if f.cores == 0 {
		return nil
	}
	out := make([]uint64, f.cores)
	for pod := 0; pod < f.pods; pod++ {
		for a := range f.aggUp[pod] {
			for cr, id := range f.aggUp[pod][a] {
				out[cr] += f.links[id].bytesTx
			}
			for cr, id := range f.coreDown[pod][a] {
				out[cr] += f.links[id].bytesTx
			}
		}
	}
	return out
}

// CoreImbalance computes (max-min)/mean over per-core byte loads.
func (f *Fabric) CoreImbalance() float64 {
	loads := f.CoreStats()
	if len(loads) == 0 {
		return 0
	}
	minB, maxB, total := loads[0], loads[0], uint64(0)
	for _, v := range loads {
		if v < minB {
			minB = v
		}
		if v > maxB {
			maxB = v
		}
		total += v
	}
	if total == 0 {
		return 0
	}
	return float64(maxB-minB) / (float64(total) / float64(len(loads)))
}

// newLink appends a healthy port to the slab and returns its id.
func (f *Fabric) newLink(name string, bw float64, shard int) int32 {
	id := int32(len(f.links))
	f.links = append(f.links, link{rate: bw, delay: f.cfg.LinkDelay, eng: f.engs[shard], id: id, shard: uint16(shard)})
	f.cold = append(f.cold, linkCold{
		name: name, capacity: bw,
		// Forked from shard 0's never-consumed root, tagged by link id:
		// the same stream at any shard count.
		rng: f.engs[0].RNG().Fork(0xfab0000 ^ uint64(id)),
	})
	return id
}

// Config returns the fabric configuration.
func (f *Fabric) Config() Config { return f.cfg }

// Sharded returns the sharded engine the fabric was built on, or nil
// when it runs on a single engine.
func (f *Fabric) Sharded() *sim.ShardedEngine { return f.se }

// ShardOf reports which shard owns host h (0 when unsharded).
func (f *Fabric) ShardOf(h HostID) int { return int(f.hostAt[h].shard) }

func (f *Fabric) shardOfSegment(seg int) int { return f.shardOfPod[seg/f.segsPod] }

// EngineFor returns the engine that owns host h: the engine a component
// attached to h (a transport endpoint, a sampler) must schedule on.
func (f *Fabric) EngineFor(h HostID) *sim.Engine { return f.engs[f.ShardOf(h)] }

// EngineForSegment returns the engine owning a segment's links.
func (f *Fabric) EngineForSegment(seg int) *sim.Engine {
	return f.engs[f.shardOfSegment(seg)]
}

// NumHosts returns the number of attached host NICs.
func (f *Fabric) NumHosts() int { return len(f.hostAt) }

// Handle registers the receive callback for a host.
func (f *Fabric) Handle(h HostID, fn func(*Packet)) {
	f.handlers[h] = fn
}

// Delivered reports packets handed to receivers, across all shards.
func (f *Fabric) Delivered() uint64 {
	var n uint64
	for i := range f.pools {
		n += f.pools[i].delivered
	}
	return n
}

// Dropped reports packets lost to tail drop, failure or injected loss,
// across all shards.
func (f *Fabric) Dropped() uint64 {
	var n uint64
	for i := range f.pools {
		n += f.pools[i].dropped
	}
	return n
}

// Send injects a packet at its source host at the current virtual time.
// Delivery (or drop) happens through scheduled events. The fabric owns
// the packet from here on: once it is delivered or dropped it may be
// recycled via AllocPacket. Sharded callers must invoke Send from the
// source host's shard (its engine's callbacks), where its uplink lives.
func (f *Fabric) Send(p *Packet) error {
	if int(p.Src) >= len(f.hostAt) || int(p.Dst) >= len(f.hostAt) || p.Src < 0 || p.Dst < 0 {
		return fmt.Errorf("%w: %d->%d", ErrBadHost, p.Src, p.Dst)
	}
	p.hops, p.at = f.route(p), 0
	f.hop(p)
	return nil
}

// route fills the packet's switch-to-switch links and returns the hop
// count, host links included.
func (f *Fabric) route(p *Packet) uint8 {
	src, dst := &f.hostAt[p.Src], &f.hostAt[p.Dst]
	srcSeg, dstSeg := int(src.seg), int(dst.seg)
	if srcSeg == dstSeg {
		// Same ToR: host -> tor -> host.
		return 2
	}
	var agg int
	if p.PathID < 0 && f.cfg.AdaptiveRouting {
		// Adaptive routing: power-of-two-choices over the healthy
		// uplinks — sample two at random, take the shallower queue.
		// (Deterministic argmin herds synchronized bursts onto one
		// port; real AR implementations randomise exactly like this.)
		now := f.EngineForSegment(srcSeg).Now()
		rng := f.segRNG[srcSeg]
		pick := func() int {
			for tries := 0; tries < 4; tries++ {
				a := rng.Intn(f.cfg.Aggs)
				if !f.cold[f.torUp[srcSeg][a]].fault.Down {
					return a
				}
			}
			return rng.Intn(f.cfg.Aggs)
		}
		a1, a2 := pick(), pick()
		agg = a1
		// Identical samples need no depth comparison; the RNG draw
		// sequence above is unchanged either way.
		if a1 != a2 && f.links[f.torUp[srcSeg][a2]].queueDepth(now) < f.links[f.torUp[srcSeg][a1]].queueDepth(now) {
			agg = a2
		}
	} else {
		agg = p.PathID % f.cfg.Aggs
		if agg < 0 {
			agg += f.cfg.Aggs
		}
		agg = f.aggOverride[srcSeg][agg] // BGP reroute away from dead uplinks
	}
	srcPod, dstPod := src.pod, dst.pod
	if srcPod == dstPod {
		p.mid[0] = f.torUp[srcSeg][agg]
		p.mid[1] = f.torDown[dstSeg][agg]
		return 4
	}
	// Cross-pod: climb to the core "escape" layer and descend into the
	// destination pod on the same rail (agg index).
	core := (p.PathID / f.cfg.Aggs) % f.cores
	if core < 0 {
		core += f.cores
	}
	p.mid[0] = f.torUp[srcSeg][agg]
	p.mid[1] = f.aggUp[srcPod][agg][core]
	p.mid[2] = f.coreDown[dstPod][agg][core]
	p.mid[3] = f.torDown[dstSeg][agg]
	return 6
}

// hop advances a packet one stage: at the end of its route it is
// delivered; at a canonical-drain entry link it is buffered until
// instant end; everywhere else it claims the link immediately.
func (f *Fabric) hop(p *Packet) {
	if p.at == p.hops {
		f.deliver(p)
		return
	}
	l := &f.links[p.link(p.at)]
	if l.entry {
		// Same-instant arrival order at a handoff seam is a merge
		// artifact; defer to instant end and claim in canonical order.
		c := &f.cold[l.id]
		c.pending = append(c.pending, p)
		if !c.drainArmed {
			c.drainArmed = true
			l.eng.AtInstantEnd(f.drainFn, l)
		}
		return
	}
	p.at++
	f.arrive(l, p)
}

// deliver hands the packet to its destination handler and recycles it
// into the destination shard's pool (deliver always runs on the
// destination's engine — the last link is ToR→host).
func (f *Fabric) deliver(p *Packet) {
	shard := f.ShardOf(p.Dst)
	f.pools[shard].delivered++
	if h := f.handlers[p.Dst]; h != nil {
		h(p)
	}
	f.release(shard, p)
}

// drainLink claims an entry link's buffered same-instant arrivals in
// canonical packet order — (flow, data-before-ack, seq, epoch), a total
// order on live packets that does not reference event scheduling — so
// the claim sequence is identical at every shard count.
func (f *Fabric) drainLink(l *link) {
	c := &f.cold[l.id]
	pend := c.pending
	if len(pend) > 1 {
		sortPackets(pend)
	}
	c.pending = pend[:0]
	c.drainArmed = false
	for i, p := range pend {
		pend[i] = nil
		p.at++
		f.arrive(l, p)
	}
}

// arrive claims link l for packet p — drop checks, queue accounting,
// ECN, serialisation — and schedules the next stage at the departure
// time, handing off across shards when the next link lives elsewhere.
func (f *Fabric) arrive(l *link, p *Packet) {
	now := l.eng.Now()
	tr := l.eng.Tracer()

	if l.faulty {
		if c := &f.cold[l.id]; c.fault.Down || (c.fault.DropProb > 0 && c.rng.Float64() < c.fault.DropProb) {
			if tr.Enabled() {
				tr.Instant("fabric", "fabric", "net", "drop",
					trace.S("link", c.name), trace.U("seq", p.Seq), trace.S("reason", dropReason(c.fault.Down)))
			}
			f.drop(l, p)
			return
		}
	}

	q, size := l.queueDepth(now), uint64(p.Size)
	if q+size > f.cfg.QueueLimit {
		if tr.Enabled() {
			tr.Instant("fabric", "fabric", "net", "drop",
				trace.S("link", f.cold[l.id].name), trace.U("seq", p.Seq), trace.S("reason", "taildrop"),
				trace.U("queue", q))
		}
		f.drop(l, p)
		return
	}
	if q >= f.cfg.ECNThreshold {
		p.flags |= flagECN
		l.ecnMarks++
		if tr.Enabled() {
			tr.SpanStep(f.Span(p), "fabric", "fabric", "pkt", "ecn-mark",
				trace.S("link", f.cold[l.id].name), trace.U("queue", q))
		}
	}
	if q+size > l.maxQueue {
		l.maxQueue = q + size
	}

	// The exact division on every hop: a reciprocal-multiply precompute
	// would round differently, and a 1 ns flip in a serialisation time
	// changes results.
	ser := sim.Duration(float64(p.Size) / l.rate * 1e9)
	if l.freeAt < now {
		l.freeAt = now
	}
	l.freeAt = l.freeAt.Add(ser)
	l.bytesTx += size
	depart := l.freeAt.Add(l.delay)
	if tr.Enabled() {
		if span := f.Span(p); span != 0 {
			// One slice per hop: queue wait + serialisation + propagation.
			name := f.cold[l.id].name
			tr.Complete("fabric", "fabric", "net", "hop", depart.Sub(now),
				trace.S("link", name), trace.U("seq", p.Seq), trace.U("queue", q))
			tr.SpanStep(span, "fabric", "fabric", "pkt", "hop", trace.S("link", name))
		}
	}
	// One shard has no handoffs: skip the check and leave the next
	// link's cache line to its own hop.
	if len(f.engs) > 1 && p.at < p.hops {
		if next := f.links[p.link(p.at)].shard; next != l.shard {
			// Cross-shard handoff: depart ≥ now + propagation delay ≥
			// now + lookahead, the conservative-synchronization bound.
			f.se.Handoff(int(l.shard), int(next), depart, f.hopFn, p)
			return
		}
	}
	l.eng.Post(depart, f.hopFn, p)
}

// drop discards p at l, charging the link and its shard, and recycles
// the packet.
func (f *Fabric) drop(l *link, p *Packet) {
	c := &f.cold[l.id]
	c.drops++
	f.pools[l.shard].dropped++
	if tr := l.eng.Tracer(); tr.Enabled() {
		tr.SpanStep(f.Span(p), "fabric", "fabric", "pkt", "drop", trace.S("link", c.name))
	}
	f.release(int(l.shard), p)
}

// sortPackets orders buffered arrivals by canonical packet key:
// (flow, data before acks, seq, epoch) — unique among in-flight
// packets, so the order is total and engine-independent. Insertion sort:
// same-instant multi-arrivals are rare and tiny.
func sortPackets(s []*Packet) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && packetLess(s[j], s[j-1]); j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

func packetLess(pa, pb *Packet) bool {
	if pa.Flow != pb.Flow {
		return pa.Flow < pb.Flow
	}
	if pa.Ack != pb.Ack {
		return !pa.Ack
	}
	if pa.Seq != pb.Seq {
		return pa.Seq < pb.Seq
	}
	return pa.Epoch < pb.Epoch
}

// dropReason labels why a link refused a packet.
func dropReason(failed bool) string {
	if failed {
		return "link-failed"
	}
	return "loss"
}

// LinkStats summarises one port.
type LinkStats struct {
	Name     string
	BytesTx  uint64
	Drops    uint64
	ECNMarks uint64
	MaxQueue uint64
}

// UplinkStats returns the ToR uplink counters for a segment, indexed by
// aggregation switch — the per-port loads behind Figures 9 and 12.
func (f *Fabric) UplinkStats(segment int) []LinkStats {
	out := make([]LinkStats, f.cfg.Aggs)
	for a, id := range f.torUp[segment] {
		out[a] = f.stats(id)
	}
	return out
}

// stats reads one port's counters from both halves.
func (f *Fabric) stats(id int32) LinkStats {
	l, c := &f.links[id], &f.cold[id]
	return LinkStats{Name: c.name, BytesTx: l.bytesTx, Drops: c.drops, ECNMarks: l.ecnMarks, MaxQueue: l.maxQueue}
}

// UplinkQueueDepths samples current queue depth (bytes) on every uplink
// of the segment, at the owning shard's current time.
func (f *Fabric) UplinkQueueDepths(segment int) []uint64 {
	now := f.EngineForSegment(segment).Now()
	out := make([]uint64, f.cfg.Aggs)
	for a, id := range f.torUp[segment] {
		out[a] = f.links[id].queueDepth(now)
	}
	return out
}

// Imbalance computes the paper's Figure 12 metric for a segment's
// uplinks over bytes transmitted so far: (max − min) / mean of the
// per-uplink byte counts, as a fraction.
func (f *Fabric) Imbalance(segment int) float64 {
	var minB, maxB, total uint64
	for i, id := range f.torUp[segment] {
		b := f.links[id].bytesTx
		if i == 0 || b < minB {
			minB = b
		}
		if b > maxB {
			maxB = b
		}
		total += b
	}
	if total == 0 {
		return 0
	}
	return float64(maxB-minB) / (float64(total) / float64(f.cfg.Aggs))
}
