// Package pcie models the PCIe subsystem of Figure 1b: the Root Complex
// (with its IOMMU), switches with bounded Look-Up Tables, endpoints with
// BDF identifiers and BAR windows, and Transaction Layer Packet routing
// driven by target address and the TLP Address Translation (AT) field.
//
// Two behaviours from the paper hinge on this model:
//
//   - Problem ③ (§3.1): GDR requires registering an endpoint's BDF in
//     its switch's LUT, and the LUT holds only 32 entries on the affected
//     server model — the hard cap on GDR-capable VFs.
//   - §6 (eMTT): a TLP with AT=translated (0b10) is routed by the switch
//     directly to the peer GPU, while AT=untranslated (0b00) detours
//     through the Root Complex and IOMMU. The bandwidth gap between those
//     two routes is Figure 14 (393 Gbps vs 141 Gbps).
package pcie

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/addr"
	"repro/internal/iommu"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/trace"
)

// BDF is a Bus-Device-Function identifier packed as 8:5:3 bits.
type BDF uint16

// MakeBDF packs bus, device and function numbers.
func MakeBDF(bus, dev, fn uint8) BDF {
	return BDF(uint16(bus)<<8 | uint16(dev&0x1f)<<3 | uint16(fn&0x7))
}

func (b BDF) String() string {
	return fmt.Sprintf("%02x:%02x.%d", uint8(b>>8), uint8(b>>3)&0x1f, uint8(b)&0x7)
}

// AT is the PCIe TLP Address Translation field.
type AT uint8

const (
	// ATUntranslated (0b00) marks the address as a DA the IOMMU must
	// translate; the switch routes the TLP to the Root Complex.
	ATUntranslated AT = 0b00
	// ATTranslated (0b10) marks the address as already-translated HPA;
	// with ACS Direct Translated enabled the switch may route it
	// peer-to-peer without touching the Root Complex.
	ATTranslated AT = 0b10
)

func (a AT) String() string {
	switch a {
	case ATUntranslated:
		return "untranslated"
	case ATTranslated:
		return "translated"
	default:
		return fmt.Sprintf("AT(%#b)", uint8(a))
	}
}

// Route identifies the path a TLP took through the fabric.
type Route uint8

const (
	// RouteP2PDirect is switch-local peer-to-peer (the eMTT fast path).
	RouteP2PDirect Route = iota
	// RouteViaRC reached a peer device by detouring through the Root
	// Complex (the HyV/MasQ GDR path).
	RouteViaRC
	// RouteToMemory ended at main memory behind the Root Complex.
	RouteToMemory
)

func (r Route) String() string {
	switch r {
	case RouteP2PDirect:
		return "p2p-direct"
	case RouteViaRC:
		return "p2p-via-rc"
	case RouteToMemory:
		return "memory"
	default:
		return fmt.Sprintf("Route(%d)", uint8(r))
	}
}

// Errors returned by the PCIe model.
var (
	ErrLUTFull        = errors.New("pcie: switch LUT full")
	ErrNoBDF          = errors.New("pcie: BDF space exhausted")
	ErrBadAddress     = errors.New("pcie: address matches no BAR or memory")
	ErrNotResident    = errors.New("pcie: target page not resident (swapped out)")
	ErrNotRegistered  = errors.New("pcie: source BDF not in switch LUT")
	ErrBAROverlap     = errors.New("pcie: BAR overlaps existing window")
	ErrDetached       = errors.New("pcie: endpoint detached")
	ErrTranslationBad = errors.New("pcie: untranslated TLP faulted in IOMMU")
)

// The fabric's latency and bandwidth model: a Gen4 x16-ish fabric
// consistent with the paper's measurements, where direct P2P sustains a
// 400 Gbps-class RNIC while the RC detour tops out around 141 Gbps.
const (
	// switchHopLatency is one traversal of a PCIe switch.
	switchHopLatency sim.Duration = 150 * time.Nanosecond
	// rcLatency is one traversal of the Root Complex.
	rcLatency sim.Duration = 350 * time.Nanosecond
	// memoryLatency is a main-memory access after routing.
	memoryLatency sim.Duration = 90 * time.Nanosecond
	// lutCapacity bounds GDR-capable BDFs per switch: 32 on the paper's
	// troubled server model (§3.1 Problem ③).
	lutCapacity = 32

	// directP2PBandwidth is the byte rate of switch-local P2P (~416 Gbps).
	directP2PBandwidth = 52e9
	// rcP2PBandwidth is the byte rate of P2P detouring through the RC
	// (~141 Gbps, Fig. 14) — the bottleneck that caps HyV/MasQ GDR.
	rcP2PBandwidth = 17.6e9
	// memoryBandwidth is the byte rate to main memory (~384 Gbps).
	memoryBandwidth = 48e9
)

// Config selects the fabric's routing features. The zero Config is the
// paper's production fabric.
type Config struct {
	// DisableACSDT turns off switch-local routing of AT=translated TLPs.
	// §6's test platform runs with "ACS DT features turned on"; with it
	// off, every translated TLP is refused at its switch.
	DisableACSDT bool
}

// Complex is one server's PCIe fabric: a Root Complex with IOMMU and
// main memory, plus switches and endpoints.
type Complex struct {
	cfg      Config
	iommu    *iommu.IOMMU
	mem      *mem.Memory
	switches []*Switch
	byBDF    map[BDF]*Endpoint
	nextBus  uint8
	nextDev  map[uint8]uint8

	routeCounts [3]uint64
	bytesRouted [3]uint64
	nextBAR     uint64

	tr   *trace.Tracer
	host string
}

// barBase is where BAR windows start in HPA space, far above any main
// memory the simulator allocates.
const barBase = 1 << 44

// NewComplex builds a fabric over the given IOMMU and memory.
func NewComplex(cfg Config, u *iommu.IOMMU, m *mem.Memory) *Complex {
	return &Complex{
		cfg:     cfg,
		iommu:   u,
		mem:     m,
		byBDF:   make(map[BDF]*Endpoint),
		nextDev: make(map[uint8]uint8),
	}
}

// SetTracer attaches a flight recorder; host labels the trace process
// events land under. The complex has no engine reference, so the tracer
// carries its own clock (bound by sim.Engine.SetTracer when one exists).
func (c *Complex) SetTracer(t *trace.Tracer, host string) {
	c.tr = t
	c.host = host
}

// traceTLP records one routed TLP as a complete slice on the pcie lane.
func (c *Complex) traceTLP(name string, route Route, at AT, size uint64, lat sim.Duration) {
	if !c.tr.Enabled() {
		return
	}
	c.tr.Complete(c.host, "pcie", "pcie", name, lat,
		trace.S("route", route.String()), trace.S("at", at.String()),
		trace.U("bytes", size))
}

// IOMMU returns the Root Complex IOMMU.
func (c *Complex) IOMMU() *iommu.IOMMU { return c.iommu }

// Memory returns the main memory behind the Root Complex.
func (c *Complex) Memory() *mem.Memory { return c.mem }

// RouteCount reports how many TLPs took the given route.
func (c *Complex) RouteCount(r Route) uint64 { return c.routeCounts[r] }

// RouteBytes reports how many payload bytes took the given route.
func (c *Complex) RouteBytes(r Route) uint64 { return c.bytesRouted[r] }

// AddSwitch attaches a new switch to the Root Complex.
func (c *Complex) AddSwitch(name string) *Switch {
	s := &Switch{
		name:    name,
		complex: c,
		lut:     make(map[BDF]struct{}),
		acsDT:   !c.cfg.DisableACSDT,
	}
	c.switches = append(c.switches, s)
	return s
}

// AllocBDF hands out the next free BDF. Each switch gets its own bus.
func (c *Complex) allocBDF(s *Switch) (BDF, error) {
	if s.bus == 0 {
		c.nextBus++
		if c.nextBus == 0 {
			return 0, ErrNoBDF
		}
		s.bus = c.nextBus
	}
	dev := c.nextDev[s.bus]
	fn := dev & 0x7
	d := dev >> 3
	if d >= 32 {
		return 0, ErrNoBDF
	}
	c.nextDev[s.bus]++
	return MakeBDF(s.bus, d, fn), nil
}

// Switch is a PCIe switch with a bounded LUT for GDR-capable BDFs.
type Switch struct {
	name      string
	bus       uint8
	complex   *Complex
	lut       map[BDF]struct{}
	acsDT     bool
	endpoints []*Endpoint
}

// LUTLen returns the number of registered BDFs.
func (s *Switch) LUTLen() int { return len(s.lut) }

// LUTCapacity returns the LUT size limit.
func (s *Switch) LUTCapacity() int { return lutCapacity }

// Endpoints returns the endpoints attached below this switch.
func (s *Switch) Endpoints() []*Endpoint { return s.endpoints }

// RegisterGDR adds bdf to the switch LUT, enabling direct translated
// P2P for that function. It fails with ErrLUTFull at capacity —
// Problem ③'s hard limit.
func (s *Switch) RegisterGDR(bdf BDF) error {
	if _, ok := s.lut[bdf]; ok {
		return nil
	}
	if len(s.lut) >= lutCapacity {
		return fmt.Errorf("%w: %s at %d entries", ErrLUTFull, s.name, lutCapacity)
	}
	s.lut[bdf] = struct{}{}
	return nil
}

// UnregisterGDR removes bdf from the LUT.
func (s *Switch) UnregisterGDR(bdf BDF) { delete(s.lut, bdf) }

// RegisterGDRAll registers bdf in every switch's LUT. Translated TLPs
// must be routable at whichever switch they land on, so production GDR
// enablement burns one entry per switch per function — which is how a
// 32-entry LUT caps a 4-RNIC server at 32 GDR VFs total (Problem ③).
// On failure, entries installed by this call are rolled back.
func (c *Complex) RegisterGDRAll(bdf BDF) error {
	var done []*Switch
	for _, s := range c.switches {
		if s.GDRRegistered(bdf) {
			continue
		}
		if err := s.RegisterGDR(bdf); err != nil {
			for _, u := range done {
				u.UnregisterGDR(bdf)
			}
			return err
		}
		done = append(done, s)
	}
	return nil
}

// UnregisterGDRAll removes bdf from every switch's LUT.
func (c *Complex) UnregisterGDRAll(bdf BDF) {
	for _, s := range c.switches {
		s.UnregisterGDR(bdf)
	}
}

// GDRRegistered reports whether bdf is in the LUT.
func (s *Switch) GDRRegistered(bdf BDF) bool {
	_, ok := s.lut[bdf]
	return ok
}

// BAR is a memory window an endpoint exposes into HPA space.
type BAR struct {
	Window addr.HPARange
	Owner  addr.MemoryOwner
	Name   string
}

// Endpoint is one PCIe function: a GPU, an RNIC PF, or an SR-IOV VF.
// Stellar's SFs and vStellar devices deliberately do NOT get endpoints of
// their own — they share their parent PF's BDF, which is how Stellar
// sidesteps the LUT limit (§4).
type Endpoint struct {
	bdf      BDF
	name     string
	sw       *Switch
	bars     []BAR
	detached bool
}

// AttachEndpoint creates an endpoint under the switch with a fresh BDF.
func (s *Switch) AttachEndpoint(name string) (*Endpoint, error) {
	bdf, err := s.complex.allocBDF(s)
	if err != nil {
		return nil, err
	}
	ep := &Endpoint{bdf: bdf, name: name, sw: s}
	s.endpoints = append(s.endpoints, ep)
	s.complex.byBDF[bdf] = ep
	return ep, nil
}

// Detach removes the endpoint from the fabric (SR-IOV VF teardown).
func (ep *Endpoint) Detach() {
	if ep.detached {
		return
	}
	ep.detached = true
	ep.sw.complex.UnregisterGDRAll(ep.bdf)
	delete(ep.sw.complex.byBDF, ep.bdf)
	for i, e := range ep.sw.endpoints {
		if e == ep {
			ep.sw.endpoints = append(ep.sw.endpoints[:i], ep.sw.endpoints[i+1:]...)
			break
		}
	}
}

// BDF returns the endpoint's identifier.
func (ep *Endpoint) BDF() BDF { return ep.bdf }

// Name returns the endpoint label.
func (ep *Endpoint) Name() string { return ep.name }

// Switch returns the switch the endpoint hangs off.
func (ep *Endpoint) Switch() *Switch { return ep.sw }

// Detached reports whether the endpoint was removed.
func (ep *Endpoint) Detached() bool { return ep.detached }

// AddBAR registers a BAR window. Windows must not overlap any existing
// BAR in the fabric.
func (ep *Endpoint) AddBAR(b BAR) error {
	if ep.detached {
		return ErrDetached
	}
	for _, other := range ep.sw.complex.byBDF {
		for _, ob := range other.bars {
			if ob.Window.Overlaps(b.Window.Range) {
				return fmt.Errorf("%w: %s %v vs %s %v", ErrBAROverlap, ep.name, b.Window, other.name, ob.Window)
			}
		}
	}
	ep.bars = append(ep.bars, b)
	return nil
}

// BARs returns the endpoint's windows.
func (ep *Endpoint) BARs() []BAR { return ep.bars }

// AllocBARWindow reserves a page-aligned HPA window for a new BAR, well
// above main memory. The caller passes the window to AddBAR.
func (c *Complex) AllocBARWindow(size uint64) addr.HPARange {
	size = addr.AlignUp(size, addr.PageSize4K)
	if c.nextBAR == 0 {
		c.nextBAR = barBase
	}
	w := addr.NewHPARange(addr.HPA(c.nextBAR), size)
	c.nextBAR += size
	return w
}

// findBAR locates the endpoint and BAR whose window contains hpa.
func (c *Complex) findBAR(hpa uint64) (*Endpoint, *BAR) {
	for _, ep := range c.byBDF {
		for i := range ep.bars {
			if ep.bars[i].Window.Contains(hpa) {
				return ep, &ep.bars[i]
			}
		}
	}
	return nil, nil
}

// TLP is a transaction layer packet issued by an endpoint.
type TLP struct {
	Source *Endpoint
	Addr   uint64 // DA if AT=untranslated, HPA if AT=translated
	Size   uint64
	AT     AT
	Write  bool
}

// Delivery describes the outcome of routing one TLP.
type Delivery struct {
	Route  Route
	Target *Endpoint // nil for main memory
	HPA    addr.HPA
	// Latency is the full one-shot cost including propagation.
	Latency sim.Duration
	// Transfer is the serialisation (bandwidth-bound) portion of
	// Latency: what each additional pipelined transaction costs in
	// steady state.
	Transfer sim.Duration
}

// xfer returns the serialisation time of size bytes at rate bytes/sec.
func xfer(size uint64, rate float64) sim.Duration {
	return sim.Duration(float64(size) / rate * 1e9)
}

// DMA routes a TLP from its source endpoint through the fabric,
// returning where it landed and the virtual-time cost. This implements
// the two flows of Figure 7:
//
//	AT=translated + ACS DT + LUT hit  → switch-local P2P (fast)
//	AT=untranslated                    → RC → IOMMU → memory or peer
func (c *Complex) DMA(tlp TLP) (Delivery, error) {
	if tlp.Source == nil {
		return Delivery{}, errors.New("pcie: TLP without source")
	}
	if tlp.Source.detached {
		return Delivery{}, ErrDetached
	}
	sw := tlp.Source.sw
	lat := switchHopLatency // ingress hop at the local switch

	if tlp.AT == ATTranslated {
		if !sw.acsDT {
			return Delivery{}, fmt.Errorf("pcie: AT=translated TLP with ACS DT disabled on %s", sw.name)
		}
		if !sw.GDRRegistered(tlp.Source.bdf) {
			return Delivery{}, fmt.Errorf("%w: %s on %s", ErrNotRegistered, tlp.Source.bdf, sw.name)
		}
		// Translated: address is final HPA. Peer under the same switch?
		for _, peer := range sw.endpoints {
			if peer == tlp.Source {
				continue
			}
			for i := range peer.bars {
				if peer.bars[i].Window.Contains(tlp.Addr) {
					tx := xfer(tlp.Size, directP2PBandwidth)
					lat += tx
					c.routeCounts[RouteP2PDirect]++
					c.bytesRouted[RouteP2PDirect] += tlp.Size
					c.traceTLP("dma", RouteP2PDirect, tlp.AT, tlp.Size, lat)
					return Delivery{Route: RouteP2PDirect, Target: peer, HPA: addr.HPA(tlp.Addr), Latency: lat, Transfer: tx}, nil
				}
			}
		}
		// Not local: up through the RC, then to memory or a remote BAR.
		return c.routeFromRC(tlp, addr.HPA(tlp.Addr), lat)
	}

	// Untranslated: the RC's IOMMU resolves the DA first.
	lat += rcLatency
	hpa, tcost, err := c.iommu.Translate(addr.DA(tlp.Addr))
	lat += tcost
	if err != nil {
		return Delivery{}, fmt.Errorf("%w: %v", ErrTranslationBad, err)
	}
	return c.routeFromRC(tlp, hpa, lat)
}

// routeFromRC finishes routing once the final HPA is known at the RC.
func (c *Complex) routeFromRC(tlp TLP, hpa addr.HPA, lat sim.Duration) (Delivery, error) {
	if c.mem != nil && c.mem.Lookup(hpa) != nil {
		if !c.mem.Resident(hpa) {
			return Delivery{}, fmt.Errorf("%w: %v", ErrNotResident, hpa)
		}
		tx := xfer(tlp.Size, memoryBandwidth)
		lat += rcLatency + memoryLatency + tx
		c.routeCounts[RouteToMemory]++
		c.bytesRouted[RouteToMemory] += tlp.Size
		c.traceTLP("dma", RouteToMemory, tlp.AT, tlp.Size, lat)
		return Delivery{Route: RouteToMemory, HPA: hpa, Latency: lat, Transfer: tx}, nil
	}
	if peer, _ := c.findBAR(uint64(hpa)); peer != nil {
		// Down through the peer's switch: the slow GDR path.
		tx := xfer(tlp.Size, rcP2PBandwidth)
		lat += rcLatency + switchHopLatency + tx
		c.routeCounts[RouteViaRC]++
		c.bytesRouted[RouteViaRC] += tlp.Size
		c.traceTLP("dma", RouteViaRC, tlp.AT, tlp.Size, lat)
		return Delivery{Route: RouteViaRC, Target: peer, HPA: hpa, Latency: lat, Transfer: tx}, nil
	}
	return Delivery{}, fmt.Errorf("%w: %v", ErrBadAddress, hpa)
}
