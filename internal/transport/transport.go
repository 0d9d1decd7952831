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
)

// Config parameterises the transport on one endpoint pair.
type Config struct {
	// MTU is the payload bytes per packet.
	MTU uint64
	// InitialWindow is the starting congestion window in bytes.
	InitialWindow uint64
	// MinWindow / MaxWindow clamp the congestion window.
	MinWindow uint64
	MaxWindow uint64
	// AdditiveIncrease is added to the window per window of acked bytes.
	AdditiveIncrease uint64
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
	// has timed out this many times the flow moves to FlowError and
	// surfaces the failure via Err/OnStateChange instead of
	// retransmitting forever. 0 (the default) keeps retries unbounded.
	RetryBudget int
	// AckSize is the size of ack packets on the wire.
	AckSize uint64
	// PerPathCC gives each path its own window (the §9 alternative).
	// The shared-context default is what lets Stellar afford 128 paths.
	PerPathCC bool
}

// DefaultConfig returns the production transport parameters.
func DefaultConfig() Config {
	return Config{
		MTU:              4096,
		InitialWindow:    256 << 10,
		MinWindow:        8 << 10,
		MaxWindow:        4 << 20,
		AdditiveIncrease: 16 << 10,
		ECNBeta:          0.8,
		LossBeta:         1,
		TargetRTT:        60 * time.Microsecond,
		RTO:              250 * time.Microsecond,
		RTOBackoff:       1,
		RTOMax:           2 * time.Millisecond,
		AckSize:          64,
	}
}

// Endpoint is the transport instance bound to one fabric host.
type Endpoint struct {
	host  fabric.HostID
	f     *fabric.Fabric
	eng   *sim.Engine
	cfg   Config
	label string // pre-materialised "host<N>" trace process name

	conns map[uint64]*Conn     // sending side, by flow
	rx    map[uint64]*receiver // receiving side, by flow
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
	if cfg.MinWindow == 0 {
		cfg.MinWindow = d.MinWindow
	}
	if cfg.MaxWindow == 0 {
		cfg.MaxWindow = d.MaxWindow
	}
	if cfg.AdditiveIncrease == 0 {
		cfg.AdditiveIncrease = d.AdditiveIncrease
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
	if cfg.AckSize == 0 {
		cfg.AckSize = d.AckSize
	}
	ep := &Endpoint{
		host:  h,
		f:     f,
		eng:   f.EngineFor(h),
		cfg:   cfg,
		label: "host" + strconv.Itoa(int(h)),
		conns: make(map[uint64]*Conn),
		rx:    make(map[uint64]*receiver),
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
	sel      multipath.Selector
	cfg      Config
	eng      *sim.Engine

	// Shared-context CC state.
	window   float64
	inflight uint64
	// Per-path CC state (PerPathCC).
	pathWindow   []float64
	pathInflight []uint64

	nextSeq uint64
	backlog uint64 // bytes queued but not yet packetised
	unacked ackRing
	// messages is the send FIFO, consumed from msgHead so completion
	// pops never reslice away the array's capacity (a [1:] pop would
	// force append to reallocate forever).
	messages []*message
	msgHead  int

	// Recovery state machine (see recovery.go).
	state   FlowState
	ferr    error                    // why the flow is in FlowError
	stateCB func(old, new FlowState) // state-transition observer
	rtoRNG  *sim.RNG                 // per-flow backoff-jitter stream

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
	StaleAcks uint64
	// FirstRTOAt/LastRTOAt bound the RTO-repath activity in virtual
	// time; recovery observers use them as detection markers. Zero
	// until the first timeout fires.
	FirstRTOAt    sim.Time
	LastRTOAt     sim.Time
	lastDecrease  sim.Time
	decreased     bool // lastDecrease is meaningful only after the first decrease
	completedMsgs uint64

	freeOut *outstanding // recycled outstanding records
	freeMsg *message     // recycled message records
	rtoFn   func(any)    // pre-bound timeout dispatcher: no closure per packet
}

type outstanding struct {
	seq     uint64
	size    uint64
	path    int
	epoch   uint32 // transmit epoch: bumped on every retransmission
	retries uint32 // RTO firings for this packet; reset by Reconnect
	sentAt  sim.Time
	rto     *sim.Event
	msg     *message
	span    trace.ID     // packet lifecycle span (zero when untraced)
	next    *outstanding // free-list link
}

type message struct {
	unsent      uint64 // bytes not yet packetised
	remaining   uint64 // bytes not yet acknowledged
	completedAt sim.Time
	done        func(sim.Time)
	// adone/arg are the arg-style completion (SendArg): one long-lived
	// callback shared across sends, so the steady-state op path builds
	// no closure per message.
	adone func(any, sim.Time)
	arg   any
	span  trace.ID // message lifecycle span (zero when untraced)
	next  *message // free-list link
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
// given path-selection algorithm and fan-out.
func Connect(src, dst *Endpoint, flow uint64, alg multipath.Algorithm, numPaths int) (*Conn, error) {
	return ConnectWithSelector(src, dst, flow,
		multipath.New(alg, numPaths, src.eng.RNG().Fork(flow*2+1)))
}

// ConnectWithSelector is Connect with a caller-built selector — the
// hook a Traffic Engineering controller uses to pin each flow to its
// centrally-computed path (multipath.NewPinned).
func ConnectWithSelector(src, dst *Endpoint, flow uint64, sel multipath.Selector) (*Conn, error) {
	if _, ok := src.conns[flow]; ok {
		return nil, fmt.Errorf("%w: %d", ErrFlowExists, flow)
	}
	if tr := src.eng.Tracer(); tr.Enabled() {
		sel = multipath.WithTrace(sel, tr, src.label)
	}
	numPaths := sel.NumPaths()
	c := &Conn{
		Flow:   flow,
		src:    src,
		dst:    dst,
		sel:    sel,
		cfg:    src.cfg,
		eng:    src.eng,
		window: float64(src.cfg.InitialWindow),
		// A distinct fork salt keeps the jitter stream independent of
		// the selector's (flow*2+1) without perturbing either.
		rtoRNG: src.eng.RNG().Fork(flow*2 + 0x52544f),
	}
	c.rtoFn = func(a any) { c.timeout(a.(*outstanding)) }
	if cs, ok := c.sel.(multipath.ClockedSelector); ok {
		cs.SetClock(func() sim.Time { return src.eng.Now() })
	}
	if c.cfg.PerPathCC {
		c.pathWindow = make([]float64, numPaths)
		c.pathInflight = make([]uint64, numPaths)
		per := float64(c.cfg.InitialWindow) / float64(numPaths)
		if per < float64(c.cfg.MTU) {
			per = float64(c.cfg.MTU)
		}
		for i := range c.pathWindow {
			c.pathWindow[i] = per
		}
	}
	src.conns[flow] = c
	dst.rx[flow] = &receiver{}
	return c, nil
}

// Selector exposes the connection's path selector.
func (c *Conn) Selector() multipath.Selector { return c.sel }

// Send enqueues a message of size bytes; done (optional) fires at the
// virtual time the last byte is acknowledged.
func (c *Conn) Send(size uint64, done func(sim.Time)) {
	m := c.allocMessage()
	m.unsent, m.remaining, m.done = size, size, done
	c.send(m, size)
}

// SendArg is Send with an arg-style completion: done(arg, at) fires at
// the virtual time the last byte is acknowledged. A caller issuing many
// sends shares one long-lived done function and threads per-send state
// through arg, so the steady-state send path allocates no closure.
func (c *Conn) SendArg(size uint64, done func(any, sim.Time), arg any) {
	m := c.allocMessage()
	m.unsent, m.remaining, m.adone, m.arg = size, size, done, arg
	c.send(m, size)
}

func (c *Conn) send(m *message, size uint64) {
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
func (c *Conn) Outstanding() uint64 { return c.inflight }

// Window reports the current shared congestion window in bytes.
func (c *Conn) Window() uint64 { return uint64(c.window) }

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
	if c.state == FlowError || c.state == FlowReconnecting {
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
	if c.cfg.PerPathCC {
		i := ccIndex(path)
		return c.pathInflight[i] == 0 ||
			float64(c.pathInflight[i])+float64(size) <= c.pathWindow[i]
	}
	return c.inflight == 0 || float64(c.inflight)+float64(size) <= c.window
}

// ccIndex maps a path to its per-path CC slot; switch-AR's sentinel
// (-1) shares slot 0, since per-path CC is meaningless when the switch
// chooses paths.
func ccIndex(path int) int {
	if path < 0 {
		return 0
	}
	return path
}

func (c *Conn) charge(path int, size uint64) {
	c.inflight += size
	if c.cfg.PerPathCC {
		c.pathInflight[ccIndex(path)] += size
	}
}

func (c *Conn) release(path int, size uint64) {
	c.inflight -= size
	if c.cfg.PerPathCC {
		c.pathInflight[ccIndex(path)] -= size
	}
}

// allocOutstanding recycles per-packet send records; with the fabric's
// packet pool and the engine's event pool this makes the steady-state
// data path allocation-free.
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
	p.Src = c.src.host
	p.Dst = c.dst.host
	p.PathID = o.path
	p.Seq = o.seq
	p.Size = o.size
	p.Epoch = o.epoch
	p.Trace = o.span
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
	o.rto = c.eng.AfterArg(c.rtoInterval(o), c.rtoFn, o)
}

// timeout retransmits on a different path — "a short RTO to retransmit
// lost packets on a different path for instant recovery" (§7.2).
func (c *Conn) timeout(o *outstanding) {
	if c.unacked.get(o.seq) == nil {
		return
	}
	// The event just fired and will be recycled by the engine; drop the
	// reference before anything below (fail, Close from a callback)
	// walks unacked detaching timers.
	o.rto = nil
	o.retries++
	if uint64(o.retries) > c.MaxRetries {
		c.MaxRetries = uint64(o.retries)
	}
	c.Retransmits++
	if c.FirstRTOAt == 0 {
		c.FirstRTOAt = c.eng.Now()
	}
	c.LastRTOAt = c.eng.Now()
	c.sel.Feedback(o.path, c.eng.Now().Sub(o.sentAt), false, true)

	if c.cfg.RetryBudget > 0 && int(o.retries) > c.cfg.RetryBudget {
		c.fail(fmt.Errorf("%w: flow %d seq %d after %d attempts",
			ErrRetryBudget, c.Flow, o.seq, o.retries))
		return
	}
	if c.state == FlowActive {
		c.setState(FlowDegraded)
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
	if c.cfg.PerPathCC {
		i := ccIndex(path)
		c.pathWindow[i] *= beta
		min := float64(c.cfg.MTU)
		if c.pathWindow[i] < min {
			c.pathWindow[i] = min
		}
		return
	}
	c.window *= beta
	if c.window < float64(c.cfg.MinWindow) {
		c.window = float64(c.cfg.MinWindow)
	}
}

// increase applies additive increase per acked packet.
func (c *Conn) increase(path int, size uint64) {
	grow := float64(c.cfg.AdditiveIncrease) * float64(size)
	if c.cfg.PerPathCC {
		i := ccIndex(path)
		w := c.pathWindow[i]
		c.pathWindow[i] = minF(w+grow/w, float64(c.cfg.MaxWindow)/float64(len(c.pathWindow)))
		return
	}
	c.window = minF(c.window+grow/c.window, float64(c.cfg.MaxWindow))
}

func minF(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

// handleAck processes an ack for seq.
func (c *Conn) handleAck(p *fabric.Packet) {
	if c.state == FlowError || c.state == FlowReconnecting {
		// The QP is in error: completions are flushed, not delivered.
		// The packet stays unacked and is replayed by Reconnect (the
		// receiver dedupes, so the data is not double-counted).
		return
	}
	o := c.unacked.get(p.AckSeq)
	if o == nil {
		return // duplicate ack for a seq already completed
	}
	c.unacked.del(p.AckSeq)
	c.detachRTO(o)
	c.release(o.path, o.size)
	c.BytesAcked += o.size

	// Karn's algorithm: an ack whose echoed epoch predates the latest
	// (re)transmission of this seq still delivers the data, but its
	// timing is measured against the wrong sentAt — sampling it would
	// feed a spuriously tiny RTT into the mean, the path selector, and
	// the RTT arm of the CC. Suppress sampling and CC for stale epochs.
	stale := p.AckEpoch != o.epoch
	rtt := c.eng.Now().Sub(o.sentAt)
	if tr := c.eng.Tracer(); tr.Enabled() {
		tr.SpanEnd(o.span, c.src.label, "transport", "pkt", "packet",
			trace.D("rtt", rtt), trace.B("ecn", p.AckECN), trace.B("stale", stale))
		tr.Counter(c.src.label, "transport", "cwnd", c.window)
	}
	if stale {
		c.StaleAcks++
	} else {
		c.AckCount++
		c.RTTSum += rtt
		c.sel.Feedback(o.path, rtt, p.AckECN, false)

		switch {
		case p.AckECN:
			c.ECNAcks++
			c.decrease(o.path, c.cfg.ECNBeta)
		case rtt > c.cfg.TargetRTT*2:
			c.decrease(o.path, 0.95)
		default:
			c.increase(o.path, o.size)
		}
		// A fresh (current-epoch) ack is proof the repathed data path
		// works again: leave Degraded.
		if c.state == FlowDegraded {
			c.setState(FlowActive)
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
					head.done(head.completedAt)
				} else if head.adone != nil {
					head.adone(head.arg, head.completedAt)
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
		if c, ok := e.conns[p.Flow]; ok {
			c.handleAck(p)
		}
		return
	}
	r, ok := e.rx[p.Flow]
	if !ok {
		return // flow torn down
	}
	if tr := e.eng.Tracer(); tr.Enabled() && p.Trace != 0 {
		tr.SpanStep(p.Trace, e.label, "transport", "pkt", "deliver",
			trace.U("seq", p.Seq), trace.B("ecn", p.ECN))
	}
	if !r.testAndSet(p.Seq) {
		r.bytes += p.Size
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
	ack.Src = e.host
	ack.Dst = p.Src
	ack.PathID = p.PathID
	ack.Ack = true
	ack.AckSeq = p.Seq
	ack.AckEpoch = p.Epoch
	ack.AckECN = p.ECN
	ack.Size = e.cfg.AckSize
	if err := e.f.Send(ack); err != nil {
		panic(err)
	}
}

// ReceivedBytes reports deduplicated payload bytes received for a flow.
func (e *Endpoint) ReceivedBytes(flow uint64) uint64 {
	if r, ok := e.rx[flow]; ok {
		return r.bytes
	}
	return 0
}

// PeerReceivedBytes reports the deduplicated payload bytes the remote
// endpoint has received on this connection's flow — the goodput counter
// recovery observers sample.
func (c *Conn) PeerReceivedBytes() uint64 { return c.dst.ReceivedBytes(c.Flow) }

// MaxReorderDistance reports the deepest out-of-order arrival observed
// on a flow.
func (e *Endpoint) MaxReorderDistance(flow uint64) uint64 {
	if r, ok := e.rx[flow]; ok {
		return r.reorder
	}
	return 0
}

// Close tears down a flow on both ends. Pending RTO events are
// detached, not merely canceled: a canceled event lingers in its wheel
// bucket until lazily reaped and would otherwise keep referencing the
// outstanding record handed back to the free list here — aliasing a
// record the connection may have already reused.
func (c *Conn) Close() {
	c.unacked.each(func(o *outstanding) {
		c.detachRTO(o)
		c.releaseOutstanding(o)
	})
	c.unacked.reset()
	delete(c.src.conns, c.Flow)
	delete(c.dst.rx, c.Flow)
}
