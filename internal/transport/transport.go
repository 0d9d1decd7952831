// Package transport implements Stellar's multi-path RDMA transport on
// top of the fabric simulator: messages are segmented into MTU packets,
// each packet's path is chosen by a multipath.Selector (OBS with 128
// paths in production), a single window-based congestion-control
// context shared by all paths reacts to ECN and RTT (§7.2's in-house
// CC), a short 250 µs RTO retransmits lost packets on a different path
// (§7.2's failure handling), and the receiver performs direct packet
// placement so out-of-order arrival costs nothing (§7.1).
//
// The §9 ablation — one congestion-control context per path instead of
// one shared context — is available via Config.PerPathCC.
package transport

import (
	"errors"
	"fmt"
	"strconv"
	"time"

	"repro/internal/fabric"
	"repro/internal/multipath"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Errors returned by the transport.
var (
	ErrFlowExists = errors.New("transport: flow already exists")
	ErrNoFlow     = errors.New("transport: unknown flow")
	ErrPathCount  = errors.New("transport: path count out of range")
)

// MaxPaths is the largest fan-out a connection accepts. Selectors keep
// per-path state, so the bound turns an absurd count into an error
// rather than an allocation the process cannot survive; it is 256 times
// the paper's 128 paths.
const MaxPaths = 1 << 15

// Config parameterises the transport on one endpoint pair.
type Config struct {
	// MTU is the payload bytes per packet, below 4 GiB: a packet's Size
	// is 32 bits.
	MTU uint64
	// InitialWindow is the starting congestion window in bytes.
	InitialWindow uint64
	// MaxWindow caps the congestion window (minWindow floors it).
	MaxWindow uint64
	// ECNBeta is the multiplicative decrease on an ECN-marked ack.
	ECNBeta float64
	// LossBeta is the multiplicative decrease applied when the RTO
	// fires. The paper's CC reacts to ECN and RTT only — loss causes
	// repathing, not back-off — so the default is 1 (no decrease).
	// Values < 1 model loss-reactive CC for comparison.
	LossBeta float64
	// TargetRTT is the RTT above which the window is gently reduced
	// (the RTT half of the ECN+RTT CC).
	TargetRTT sim.Duration
	// RTO is the retransmission timeout: 250 µs in production, chosen
	// for the low-latency topology.
	RTO sim.Duration
	// RTOBackoff multiplies the timeout on each successive
	// retransmission of the same packet. The paper's production point
	// is a fixed short RTO (backoff 1, the default): repathing usually
	// succeeds on the first retry, and backing off would stretch the
	// recovery tail (§7.2). Values > 1 opt into IRN-style exponential
	// backoff for scenarios where the whole path set is degraded and
	// hammering the fabric at 4 kHz per packet buys nothing.
	RTOBackoff float64
	// RTOMax caps the backed-off timeout.
	RTOMax sim.Duration
	// RTOJitter adds a uniform draw in [0, RTOJitter×interval) to each
	// backed-off timeout, de-synchronising retransmit storms across
	// flows. Drawn from a per-connection forked RNG stream, so it is
	// deterministic. 0 (default) disables
	// jitter; the first RTO of a packet is never jittered.
	RTOJitter float64
	// RetryBudget bounds retransmissions per packet: when one packet
	// has timed out this many times the flow fails and surfaces the
	// failure via Err/OnFail instead of retransmitting forever. 0 (the
	// default) keeps retries unbounded.
	RetryBudget int
	// PerPathCC gives each path its own congestion-control context (the
	// §9 alternative). The shared-context default is what lets Stellar
	// afford 128 paths.
	PerPathCC bool
}

// Fixed CC and wire constants, shared by every configuration.
const (
	// minWindow floors the shared congestion window, in bytes.
	minWindow = 8 << 10
	// additiveIncrease is added to the window per window of acked bytes.
	additiveIncrease = 16 << 10
	// ackSize is the size of ack packets on the wire, in bytes.
	ackSize = 64
)

// DefaultConfig returns the production transport parameters.
func DefaultConfig() Config {
	return Config{
		MTU:           4096,
		InitialWindow: 256 << 10,
		MaxWindow:     4 << 20,
		ECNBeta:       0.8,
		LossBeta:      1,
		TargetRTT:     60 * time.Microsecond,
		RTO:           250 * time.Microsecond,
		RTOBackoff:    1,
		RTOMax:        2 * time.Millisecond,
	}
}

// Endpoint is the transport instance bound to one fabric host.
type Endpoint struct {
	host  fabric.HostID
	f     *fabric.Fabric
	eng   *sim.Engine
	cfg   Config
	label string // pre-materialised "host<N>" trace process name

	// flows (sending side) and rxs (receiving side) are the endpoint's
	// dense flow tables: Connect appends, and a packet carries its
	// flow's index at its destination in Packet.Slot. Slots are never
	// reused; Close sets them nil, and a packet for a nil slot is
	// dropped.
	flows []*Conn
	rxs   []*receiver
}

// NewEndpoint attaches a transport to host h.
func NewEndpoint(f *fabric.Fabric, h fabric.HostID, cfg Config) *Endpoint {
	d := DefaultConfig()
	if cfg.MTU == 0 {
		cfg.MTU = d.MTU
	}
	if cfg.InitialWindow == 0 {
		cfg.InitialWindow = d.InitialWindow
	}
	if cfg.MaxWindow == 0 {
		cfg.MaxWindow = d.MaxWindow
	}
	if cfg.ECNBeta == 0 {
		cfg.ECNBeta = d.ECNBeta
	}
	if cfg.LossBeta == 0 {
		cfg.LossBeta = d.LossBeta
	}
	if cfg.TargetRTT == 0 {
		cfg.TargetRTT = d.TargetRTT
	}
	if cfg.RTO == 0 {
		cfg.RTO = d.RTO
	}
	if cfg.RTOBackoff == 0 {
		cfg.RTOBackoff = d.RTOBackoff
	}
	if cfg.RTOMax == 0 {
		cfg.RTOMax = d.RTOMax
	}
	ep := &Endpoint{
		host:  h,
		f:     f,
		eng:   f.EngineFor(h),
		cfg:   cfg,
		label: "host" + strconv.Itoa(int(h)),
	}
	f.Handle(h, ep.handle)
	return ep
}

// Host returns the endpoint's fabric host.
func (e *Endpoint) Host() fabric.HostID { return e.host }

// Config returns the endpoint's transport configuration.
func (e *Endpoint) Config() Config { return e.cfg }

// receiver tracks per-flow receive state: direct packet placement needs
// only a dedupe set and counters. The dedupe set is a dense bitmap
// indexed by seq — seqs are assigned contiguously from 0, so membership
// is one shift and mask where the previous map cost a hash probe and a
// bucket allocation per packet (the single largest allocation source in
// permutation workloads).
type receiver struct {
	seen      []uint64 // dedupe bitmap, bit p.Seq
	bytes     uint64
	maxSeq    uint64
	reorder   uint64 // max observed reorder distance
	delivered uint64 // packets
	peer      uint32 // the sender's slot, carried by every ack
}

// testAndSet records seq as seen, reporting whether it already was.
func (r *receiver) testAndSet(seq uint64) bool {
	w, bit := seq>>6, uint64(1)<<(seq&63)
	for uint64(len(r.seen)) <= w {
		r.seen = append(r.seen, 0)
	}
	if r.seen[w]&bit != 0 {
		return true
	}
	r.seen[w] |= bit
	return false
}

// Conn is the sending half of one RDMA connection.
type Conn struct {
	Flow uint64

	src, dst *Endpoint
	// slot and rxSlot index this flow in src.flows and dst.rxs.
	slot, rxSlot uint32
	sel          multipath.Selector
	cfg          Config
	eng          *sim.Engine

	// cc holds the congestion-control contexts: one shared by every
	// path, or one per path under PerPathCC. The shared context lives
	// in ccShared, inside the Conn, so the ack path touches no other
	// object. ccStart is each context's initial window and
	// [ccFloor, ccCeil] its range.
	cc                       []ccCtx
	ccShared                 [1]ccCtx
	ccStart, ccFloor, ccCeil float64

	nextSeq uint64
	backlog uint64 // bytes queued but not yet packetised
	unacked ackRing
	// messages is the send FIFO, consumed from msgHead so completion
	// pops never reslice away the array's capacity (a [1:] pop would
	// force append to reallocate forever).
	messages []*message
	msgHead  int

	// Failure recovery (see recovery.go).
	ferr   error       // why the flow failed; nil while it is healthy
	failCB func(error) // failure observer
	rtoRNG *sim.RNG    // per-flow backoff-jitter stream

	// The retransmission timer (see recovery.go): the armed RTOs, in
	// (deadline, rtoSeq) order from armHead to armTail, and the one
	// engine deadline, which tracks the head.
	armHead, armTail *outstanding
	rto              sim.Deadline

	// Stats.
	BytesAcked  uint64
	Retransmits uint64
	ECNAcks     uint64
	AckCount    uint64
	RTTSum      sim.Duration
	// Reconnects counts Reconnect calls; MaxRetries is the high-water
	// retransmission count of any single packet (the "retries-to-error"
	// figure when the flow failed on budget).
	Reconnects uint64
	MaxRetries uint64
	// StaleAcks counts acks of superseded transmissions: the data
	// arrived, but the RTT sample and CC reaction were suppressed
	// (Karn's algorithm).
	StaleAcks     uint64
	lastDecrease  sim.Time
	decreased     bool // lastDecrease is meaningful only after the first decrease
	completedMsgs uint64

	freeOut *outstanding // recycled outstanding records
	freeMsg *message     // recycled message records
}

// ccCtx is one congestion-control context: a window and the bytes in
// flight against it.
type ccCtx struct {
	window   float64
	inflight uint64
}

type outstanding struct {
	seq     uint64
	size    uint64
	path    int
	epoch   uint32 // transmit epoch: bumped on every retransmission
	retries uint32 // RTO firings for this packet; reset by Reconnect
	sentAt  sim.Time
	// deadline and rtoSeq key the armed RTO: when it is due, and the
	// engine sequence number Reserve gave it at transmit.
	deadline sim.Time
	rtoSeq   uint64
	msg      *message
	span     trace.ID // packet lifecycle span (zero when untraced)
	// next links the free list, or the armed list while the RTO is
	// armed (a record is never both); prev is the armed list's back link.
	next, prev *outstanding
}

type message struct {
	unsent      uint64 // bytes not yet packetised
	remaining   uint64 // bytes not yet acknowledged
	completedAt sim.Time
	// done(arg, at) is the completion: one long-lived callback shared
	// across sends, so the steady-state op path builds no closure per
	// message.
	done func(any, sim.Time)
	arg  any
	span trace.ID // message lifecycle span (zero when untraced)
	next *message // free-list link
}

// ackRing indexes outstanding records by sequence number: a dense
// power-of-two ring covering the live window [base, base+n). pump
// assigns seqs contiguously and the live span is bounded by the
// congestion window, so direct indexing replaces the old unacked map's
// hash probe and per-insert bucket churn on both the transmit and ack
// hot paths. Acked slots become nil tombstones; base advances past
// leading tombstones on every delete, keeping the span tight.
type ackRing struct {
	buf  []*outstanding
	base uint64 // seq held by the ring's first live slot
	n    int    // slots in use: seqs [base, base+n)
	live int    // non-tombstone entries
}

// get returns the record for seq, nil if absent (acked or never sent).
func (r *ackRing) get(seq uint64) *outstanding {
	if seq < r.base || seq-r.base >= uint64(r.n) {
		return nil
	}
	return r.buf[seq&uint64(len(r.buf)-1)]
}

// put registers seq, which must be base+n — pump hands out seqs in
// order, so inserts are always appends.
func (r *ackRing) put(seq uint64, o *outstanding) {
	if r.n == len(r.buf) {
		r.grow()
	}
	r.buf[seq&uint64(len(r.buf)-1)] = o
	r.n++
	r.live++
}

func (r *ackRing) grow() {
	size := 2 * len(r.buf)
	if size == 0 {
		r.buf = make([]*outstanding, 64)
		return
	}
	nb := make([]*outstanding, size)
	for s := r.base; s < r.base+uint64(r.n); s++ {
		nb[s&uint64(size-1)] = r.buf[s&uint64(len(r.buf)-1)]
	}
	r.buf = nb
}

// del removes seq and advances base past any leading tombstones.
func (r *ackRing) del(seq uint64) {
	r.buf[seq&uint64(len(r.buf)-1)] = nil
	r.live--
	for r.n > 0 && r.buf[r.base&uint64(len(r.buf)-1)] == nil {
		r.base++
		r.n--
	}
}

// each visits every live record in ascending seq order — the order the
// old map path had to recreate by sorting before replay.
func (r *ackRing) each(fn func(*outstanding)) {
	for s := r.base; s < r.base+uint64(r.n); s++ {
		if o := r.buf[s&uint64(len(r.buf)-1)]; o != nil {
			fn(o)
		}
	}
}

// reset drops every entry and the backing store.
func (r *ackRing) reset() { *r = ackRing{} }

// Connect establishes a one-directional flow from src to dst using the
// given path-selection algorithm and fan-out, which must lie in
// [1, MaxPaths].
func Connect(src, dst *Endpoint, flow uint64, alg multipath.Algorithm, numPaths int) (*Conn, error) {
	if err := checkPaths(numPaths); err != nil {
		return nil, err
	}
	return ConnectWithSelector(src, dst, flow,
		multipath.New(alg, numPaths, src.eng.RNG().Fork(flow*2+1)))
}

// ConnectWithSelector is Connect with a caller-built selector — the
// hook a Traffic Engineering controller uses to pin each flow to its
// centrally-computed path (multipath.NewPinned).
func ConnectWithSelector(src, dst *Endpoint, flow uint64, sel multipath.Selector) (*Conn, error) {
	if err := checkPaths(sel.NumPaths()); err != nil {
		return nil, err
	}
	for _, c := range src.flows {
		if c != nil && c.Flow == flow {
			return nil, fmt.Errorf("%w: %d", ErrFlowExists, flow)
		}
	}
	cfg := src.cfg
	c := &Conn{
		Flow: flow,
		src:  src,
		dst:  dst,
		sel:  sel,
		cfg:  cfg,
		eng:  src.eng,
		// A distinct fork salt keeps the jitter stream independent of
		// the selector's (flow*2+1) without perturbing either.
		rtoRNG: src.eng.RNG().Fork(flow*2 + 0x52544f),
	}
	c.rto.Init(fireRTO, c)
	if cs, ok := c.sel.(multipath.ClockedSelector); ok {
		cs.SetClock(func() sim.Time { return src.eng.Now() })
	}
	c.cc = c.ccShared[:]
	c.ccStart, c.ccFloor, c.ccCeil = float64(cfg.InitialWindow), minWindow, float64(cfg.MaxWindow)
	if cfg.PerPathCC {
		c.cc = make([]ccCtx, sel.NumPaths())
		n := float64(len(c.cc))
		c.ccStart = max(float64(cfg.InitialWindow)/n, float64(cfg.MTU))
		c.ccFloor, c.ccCeil = float64(cfg.MTU), float64(cfg.MaxWindow)/n
	}
	c.resetCC()
	c.slot, c.rxSlot = uint32(len(src.flows)), uint32(len(dst.rxs))
	src.flows = append(src.flows, c)
	dst.rxs = append(dst.rxs, &receiver{peer: c.slot})
	return c, nil
}

// resetCC restarts every context at its initial window with nothing in
// flight.
func (c *Conn) resetCC() {
	for i := range c.cc {
		c.cc[i] = ccCtx{window: c.ccStart}
	}
}

func checkPaths(n int) error {
	if n < 1 || n > MaxPaths {
		return fmt.Errorf("%w: %d not in [1, %d]", ErrPathCount, n, MaxPaths)
	}
	return nil
}

// Send enqueues a message of size bytes; done (optional) fires at the
// virtual time the last byte is acknowledged.
func (c *Conn) Send(size uint64, done func(sim.Time)) {
	var call func(any, sim.Time)
	if done != nil {
		call = callDone
	}
	c.SendArg(size, call, done)
}

// callDone is Send's completion: arg is the caller's func(sim.Time). A
// func value is pointer-shaped, so storing it in an any allocates
// nothing.
func callDone(fn any, at sim.Time) { fn.(func(sim.Time))(at) }

// SendArg is Send with an arg-style completion: done(arg, at) fires at
// the virtual time the last byte is acknowledged. A caller issuing many
// sends shares one long-lived done function and threads per-send state
// through arg, so the steady-state send path allocates no closure.
func (c *Conn) SendArg(size uint64, done func(any, sim.Time), arg any) {
	m := c.allocMessage()
	m.unsent, m.remaining, m.done, m.arg = size, size, done, arg
	if tr := c.eng.Tracer(); tr.Enabled() {
		m.span = tr.NewID()
		tr.SpanBegin(m.span, c.src.label, "transport", "msg", "message",
			trace.U("flow", c.Flow), trace.U("bytes", size))
	}
	c.messages = append(c.messages, m)
	c.backlog += size
	c.pump()
}

// allocMessage recycles completed message records, mirroring
// allocOutstanding.
func (c *Conn) allocMessage() *message {
	m := c.freeMsg
	if m == nil {
		return &message{}
	}
	c.freeMsg = m.next
	*m = message{}
	return m
}

func (c *Conn) releaseMessage(m *message) {
	*m = message{next: c.freeMsg}
	c.freeMsg = m
}

// Outstanding reports bytes in flight.
func (c *Conn) Outstanding() uint64 {
	var sum uint64
	for i := range c.cc {
		sum += c.cc[i].inflight
	}
	return sum
}

// Window reports the first congestion-control context's window in
// bytes: the shared window, or path 0's under PerPathCC.
func (c *Conn) Window() uint64 { return uint64(c.cc[0].window) }

// MeanRTT reports the average sampled RTT.
func (c *Conn) MeanRTT() sim.Duration {
	if c.AckCount == 0 {
		return 0
	}
	return c.RTTSum / sim.Duration(c.AckCount)
}

// CompletedMessages reports how many Send calls fully acknowledged.
func (c *Conn) CompletedMessages() uint64 { return c.completedMsgs }

// pump emits packets while the window has room and backlog remains. A
// failed flow holds its backlog: nothing leaves an errored QP until
// Reconnect.
func (c *Conn) pump() {
	if c.ferr != nil {
		return
	}
	for c.backlog > 0 {
		// Packets drain messages in FIFO byte order and never straddle
		// a message boundary.
		var msg *message
		for _, m := range c.messages[c.msgHead:] {
			if m.unsent > 0 {
				msg = m
				break
			}
		}
		size := c.cfg.MTU
		if size > msg.unsent {
			size = msg.unsent
		}
		path := c.sel.NextPath()
		if !c.admit(path, size) {
			return
		}
		msg.unsent -= size
		c.backlog -= size
		seq := c.nextSeq
		c.nextSeq++
		o := c.allocOutstanding()
		o.seq, o.size, o.path, o.sentAt, o.msg = seq, size, path, c.eng.Now(), msg
		if tr := c.eng.Tracer(); tr.Enabled() {
			o.span = tr.NewID()
			tr.SpanBegin(o.span, c.src.label, "transport", "pkt", "packet",
				trace.U("flow", c.Flow), trace.U("seq", seq),
				trace.I("path", int64(path)), trace.U("bytes", size))
		}
		c.unacked.put(seq, o)
		c.charge(path, size)
		c.transmit(o)
	}
}

// admit checks window headroom for one packet on the chosen path. An
// idle connection may always send one packet, so a window smaller than
// the MTU cannot deadlock the flow.
func (c *Conn) admit(path int, size uint64) bool {
	x := c.ctx(path)
	return x.inflight == 0 || float64(x.inflight)+float64(size) <= x.window
}

// ctx returns the congestion-control context path is charged to. A
// shared context serves every path; switch-AR's sentinel path (-1)
// always maps to context 0, since per-path CC is meaningless when the
// switch chooses paths.
func (c *Conn) ctx(path int) *ccCtx {
	if len(c.cc) == 1 || path < 0 {
		return &c.cc[0]
	}
	return &c.cc[path]
}

func (c *Conn) charge(path int, size uint64)  { c.ctx(path).inflight += size }
func (c *Conn) release(path int, size uint64) { c.ctx(path).inflight -= size }

// allocOutstanding recycles per-packet send records; with the fabric's
// packet pool this makes the steady-state data path allocation-free.
func (c *Conn) allocOutstanding() *outstanding {
	o := c.freeOut
	if o == nil {
		return &outstanding{}
	}
	c.freeOut = o.next
	*o = outstanding{}
	return o
}

func (c *Conn) releaseOutstanding(o *outstanding) {
	*o = outstanding{next: c.freeOut}
	c.freeOut = o
}

// transmit puts the packet on the fabric and arms its RTO.
func (c *Conn) transmit(o *outstanding) {
	p := c.src.f.AllocPacketFor(c.src.host)
	p.Flow = c.Flow
	p.Slot = c.rxSlot
	p.Src = c.src.host
	p.Dst = c.dst.host
	p.PathID = o.path
	p.Seq = o.seq
	p.Size = uint32(o.size)
	p.Epoch = o.epoch
	c.src.f.SetSpan(p, o.span)
	// Guarded: the per-packet field list must not be built when the
	// recorder is off.
	if tr := c.eng.Tracer(); tr.Enabled() {
		tr.SpanStep(o.span, c.src.label, "transport", "pkt", "tx",
			trace.I("path", int64(o.path)))
	}
	// A send error (invalid host) is a programming error in the model;
	// packet drops are silent and handled by the RTO.
	if err := c.src.f.Send(p); err != nil {
		panic(err)
	}
	c.arm(o, c.rtoInterval(o))
}

// timeout retransmits on a different path — "a short RTO to retransmit
// lost packets on a different path for instant recovery" (§7.2).
func (c *Conn) timeout(o *outstanding) {
	o.retries++
	if uint64(o.retries) > c.MaxRetries {
		c.MaxRetries = uint64(o.retries)
	}
	c.Retransmits++
	c.sel.Feedback(o.path, c.eng.Now().Sub(o.sentAt), false, true)

	if c.cfg.RetryBudget > 0 && int(o.retries) > c.cfg.RetryBudget {
		c.fail(fmt.Errorf("%w: flow %d seq %d after %d attempts",
			ErrRetryBudget, c.Flow, o.seq, o.retries))
		return
	}

	oldPath := o.path
	newPath := c.sel.NextPath()
	if c.sel.NumPaths() > 1 && newPath == oldPath {
		newPath = (oldPath + 1) % c.sel.NumPaths()
	}
	c.release(oldPath, o.size)
	o.path = newPath
	o.sentAt = c.eng.Now()
	o.epoch++
	c.charge(newPath, o.size)
	if tr := c.eng.Tracer(); tr.Enabled() {
		tr.SpanStep(o.span, c.src.label, "transport", "pkt", "rto",
			trace.U("seq", o.seq), trace.I("old-path", int64(oldPath)),
			trace.I("new-path", int64(newPath)))
	}

	// The production CC reacts to ECN and RTT, not loss; LossBeta < 1
	// opts into loss-reactive back-off.
	if c.cfg.LossBeta < 1 {
		c.decrease(oldPath, c.cfg.LossBeta)
	}
	c.transmit(o)
}

// decrease applies a multiplicative window decrease, rate-limited to one
// per RTT so a burst of marks is a single signal. The very first mark
// always takes effect: lastDecrease carries no information before then,
// and gating on its zero value would make short experiments ignore
// every ECN signal in their first TargetRTT of virtual time.
func (c *Conn) decrease(path int, beta float64) {
	now := c.eng.Now()
	if c.decreased && now.Sub(c.lastDecrease) < c.cfg.TargetRTT {
		return
	}
	c.decreased = true
	c.lastDecrease = now
	x := c.ctx(path)
	x.window *= beta
	if x.window < c.ccFloor {
		x.window = c.ccFloor
	}
}

// increase applies additive increase per acked packet.
func (c *Conn) increase(path int, size uint64) {
	grow := additiveIncrease * float64(size)
	x := c.ctx(path)
	x.window = min(x.window+grow/x.window, c.ccCeil)
}

// handleAck processes an ack for seq.
func (c *Conn) handleAck(p *fabric.Packet) {
	if c.ferr != nil {
		// The QP is in error: completions are flushed, not delivered.
		// The packet stays unacked and is replayed by Reconnect (the
		// receiver dedupes, so the data is not double-counted).
		return
	}
	o := c.unacked.get(p.Seq)
	if o == nil {
		return // duplicate ack for a seq already completed
	}
	c.unacked.del(p.Seq)
	c.detachRTO(o)
	c.release(o.path, o.size)
	c.BytesAcked += o.size

	// Karn's algorithm: an ack whose echoed epoch predates the latest
	// (re)transmission of this seq still delivers the data, but its
	// timing is measured against the wrong sentAt — sampling it would
	// feed a spuriously tiny RTT into the mean, the path selector, and
	// the RTT arm of the CC. Suppress sampling and CC for stale epochs.
	stale := p.Epoch != o.epoch
	ecn := p.AckECN()
	rtt := c.eng.Now().Sub(o.sentAt)
	if tr := c.eng.Tracer(); tr.Enabled() {
		tr.SpanEnd(o.span, c.src.label, "transport", "pkt", "packet",
			trace.D("rtt", rtt), trace.B("ecn", ecn), trace.B("stale", stale))
		tr.Counter(c.src.label, "transport", "cwnd", c.cc[0].window)
	}
	if stale {
		c.StaleAcks++
	} else {
		c.AckCount++
		c.RTTSum += rtt
		c.sel.Feedback(o.path, rtt, ecn, false)

		switch {
		case ecn:
			c.ECNAcks++
			c.decrease(o.path, c.cfg.ECNBeta)
		case rtt > c.cfg.TargetRTT*2:
			c.decrease(o.path, 0.95)
		default:
			c.increase(o.path, o.size)
		}
	}

	if o.msg != nil {
		m := o.msg
		m.remaining -= o.size
		if m.remaining == 0 {
			// Completion time is when the message's own last byte was
			// acked — recorded now, even if the done callback waits for
			// FIFO order behind an earlier still-incomplete message.
			m.completedAt = c.eng.Now()
			c.completedMsgs++
			// Pop completed messages off the FIFO head. The head index
			// (not a [1:] reslice) preserves the array for append reuse,
			// and popped records go back to the free list once their
			// completion callback has run.
			for c.msgHead < len(c.messages) && c.messages[c.msgHead].remaining == 0 {
				head := c.messages[c.msgHead]
				c.messages[c.msgHead] = nil
				c.msgHead++
				if c.msgHead == len(c.messages) {
					c.messages = c.messages[:0]
					c.msgHead = 0
				}
				if tr := c.eng.Tracer(); tr.Enabled() {
					tr.SpanEnd(head.span, c.src.label, "transport", "msg", "message",
						trace.U("flow", c.Flow))
				}
				if head.done != nil {
					head.done(head.arg, head.completedAt)
				}
				c.releaseMessage(head)
			}
		}
	}
	c.releaseOutstanding(o)
	c.pump()
}

// handle is the endpoint's fabric receive callback.
func (e *Endpoint) handle(p *fabric.Packet) {
	if p.Ack {
		if c := slotEntry(e.flows, p.Slot); c != nil {
			c.handleAck(p)
		}
		return
	}
	r := slotEntry(e.rxs, p.Slot)
	if r == nil {
		return // flow closed or never opened
	}
	if tr := e.eng.Tracer(); tr.Enabled() {
		if span := e.f.Span(p); span != 0 {
			tr.SpanStep(span, e.label, "transport", "pkt", "deliver",
				trace.U("seq", p.Seq), trace.B("ecn", p.ECN()))
		}
	}
	if !r.testAndSet(p.Seq) {
		r.bytes += uint64(p.Size)
		r.delivered++
		// Direct packet placement: out-of-order arrival is free; track
		// the reorder distance as an observability metric.
		if p.Seq > r.maxSeq {
			r.maxSeq = p.Seq
		} else if d := r.maxSeq - p.Seq; d > r.reorder {
			r.reorder = d
		}
	}
	// Ack every packet (including duplicates, so retransmits complete),
	// echoing the congestion bit and the transmit epoch. The ack rides
	// the reverse direction on the same path id.
	ack := e.f.AllocPacketFor(e.host)
	ack.Flow = p.Flow
	ack.Slot = r.peer
	ack.Src = e.host
	ack.Dst = p.Src
	ack.PathID = p.PathID
	ack.Ack = true
	ack.Seq = p.Seq
	ack.Epoch = p.Epoch
	ack.SetAckECN(p.ECN())
	ack.Size = ackSize
	if err := e.f.Send(ack); err != nil {
		panic(err)
	}
}

// slotEntry returns entry i of an endpoint flow table, nil when the
// slot is closed or out of range.
func slotEntry[T any](table []*T, i uint32) *T {
	if int(i) < len(table) {
		return table[i]
	}
	return nil
}

// PeerReceivedBytes reports the deduplicated payload bytes the remote
// endpoint has received on this connection's flow — the goodput counter
// recovery observers sample.
func (c *Conn) PeerReceivedBytes() uint64 {
	if r := c.dst.rxs[c.rxSlot]; r != nil {
		return r.bytes
	}
	return 0
}

// Close tears down a flow on both ends. Every pending RTO is detached
// before its outstanding record goes back to the free list, which
// reuses the armed list's link; the last detach stops the deadline.
func (c *Conn) Close() {
	c.unacked.each(func(o *outstanding) {
		c.detachRTO(o)
		c.releaseOutstanding(o)
	})
	c.unacked.reset()
	c.src.flows[c.slot] = nil
	c.dst.rxs[c.rxSlot] = nil
}
