// Package rnic models the RDMA NIC: the SR-IOV PF/VF resource model with
// its static-configuration pain (Problem ①), lightweight Scalable
// Functions (SFs) that share the PF's BDF, the Memory Translation Table
// and Stellar's eMTT extension (§6), the Address Translation Cache, the
// vSwitch flow-steering pipeline whose TCP/RDMA coupling causes
// Problem ⑤, doorbell pages, and the RX pipeline that turns inbound RDMA
// operations into PCIe TLPs.
package rnic

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/addr"
	"repro/internal/pagetable"
	"repro/internal/pcie"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Errors returned by the RNIC.
var (
	ErrVFReconfig    = errors.New("rnic: VF count can only change between zero and a fixed value without a reset")
	ErrVFMemory      = errors.New("rnic: insufficient host memory for VF queues")
	ErrNoSuchVF      = errors.New("rnic: no such VF")
	ErrDoorbellSpace = errors.New("rnic: doorbell BAR exhausted")
	ErrMTTFull       = errors.New("rnic: MTT capacity exceeded")
	ErrBadKey        = errors.New("rnic: unknown memory key")
	ErrPDViolation   = errors.New("rnic: QP and MR protection domains differ")
	ErrVAOutOfRange  = errors.New("rnic: address outside memory region")
	ErrQPState       = errors.New("rnic: QP not ready")
	ErrNoRule        = errors.New("rnic: no vSwitch rule matched")
)

// VFMemoryBytes is host memory consumed per SR-IOV VF: 63 virtual
// queues of 5000-MTU messages ≈ 2.4 GB (Problem ①).
const VFMemoryBytes uint64 = 2_400 << 20

// The in-house 400G RNIC's fixed resources and pipeline costs.
const (
	// numPorts is the number of network ports (2 in the paper's fleet).
	numPorts = 2
	// maxVFs is the SR-IOV ceiling.
	maxVFs = 63
	// mttCapacityPages bounds translation entries in the MTT: 4 Mi pages
	// ≈ 16 GiB of 4K mappings, "orders of magnitude larger" than the
	// ATC (§6).
	mttCapacityPages = 1 << 22
	// translationPageSize is the granularity of ATS translation (§6's
	// experiment forces 4 KiB as the worst case).
	translationPageSize uint64 = addr.PageSize4K

	// mttLookupLatency is one MTT consultation in the RX pipeline.
	mttLookupLatency sim.Duration = 40 * time.Nanosecond
	// atcHitLatency is an ATC hit during ATS-mode translation.
	atcHitLatency sim.Duration = 25 * time.Nanosecond
	// wqeProcessing is the fixed per-operation pipeline overhead.
	wqeProcessing sim.Duration = 120 * time.Nanosecond
	// vSwitchRuleLatency is the per-rule scan cost of the hardware flow
	// table (the mechanism behind Problem ⑤'s latency issue).
	vSwitchRuleLatency sim.Duration = 18 * time.Nanosecond
	// atsPipelineDepth is how many ATS requests the RNIC keeps in
	// flight; translation misses overlap up to this depth, which is why
	// the CX6's decay in Figure 8 is ~20%, not a collapse.
	atsPipelineDepth = 8
)

// Config parameterises one RNIC: what distinguishes the in-house RNIC
// from the CX6 comparator. New fills a zero PortBandwidth or
// ATCCapacityPages with the in-house value and keeps every field set.
type Config struct {
	Name string
	// PortBandwidth is bytes/sec per port (200 Gbps each).
	PortBandwidth float64
	// ATCCapacityPages bounds the Address Translation Cache; "tens of
	// thousands of memory pages" (§6).
	ATCCapacityPages int
	// EMTT enables Stellar's extended MTT, which stores final HPAs and
	// the memory owner so GDR TLPs bypass the ATS/ATC machinery.
	EMTT bool
}

// DefaultConfig matches the paper's in-house 400G (2×200G) RNIC with
// eMTT enabled.
func DefaultConfig(name string) Config {
	return Config{
		Name:             name,
		PortBandwidth:    25e9, // 200 Gbps
		ATCCapacityPages: 8192,
		EMTT:             true,
	}
}

// ConfigCX6 approximates the Mellanox CX6 comparator from §6: ATS/ATC
// based GDR (no eMTT), 2×100G ports.
func ConfigCX6(name string) Config {
	c := DefaultConfig(name)
	c.EMTT = false
	c.PortBandwidth = 12.5e9 // 100 Gbps per port, 200G total
	return c
}

// RNIC is one physical NIC.
type RNIC struct {
	cfg     Config
	complex *pcie.Complex
	pf      *pcie.Endpoint
	db      addr.HPARange // doorbell BAR window
	dbNext  uint64
	dbFree  []uint64

	vfs []*VF

	sfs    map[int]*SF
	sfNext int

	atc      *pagetable.TLB
	mtt      map[uint32]*MR
	mttPages uint64
	nextKey  uint32

	pds    map[uint32]struct{}
	nextPD uint32

	qps    map[uint32]*QP
	nextQP uint32
	// qpErrFns are the QP-error observers.
	qpErrFns []func(*QP)

	vswitch *VSwitch

	atsTranslations uint64

	tr   *trace.Tracer
	host string
}

// New attaches an RNIC PF under sw with a doorbell BAR sized for 64 Ki
// virtual devices (§4's scalability claim: one 4 KiB doorbell page per
// device).
func New(c *pcie.Complex, sw *pcie.Switch, cfg Config) (*RNIC, error) {
	d := DefaultConfig(cfg.Name)
	if cfg.PortBandwidth == 0 {
		cfg.PortBandwidth = d.PortBandwidth
	}
	if cfg.ATCCapacityPages == 0 {
		cfg.ATCCapacityPages = d.ATCCapacityPages
	}
	ep, err := sw.AttachEndpoint(cfg.Name)
	if err != nil {
		return nil, err
	}
	const dbPages = 64 << 10
	db := c.AllocBARWindow(dbPages * addr.PageSize4K)
	if err := ep.AddBAR(pcie.BAR{Window: db, Owner: addr.OwnerHostMemory, Name: cfg.Name + "-db"}); err != nil {
		return nil, err
	}
	return &RNIC{
		cfg:     cfg,
		complex: c,
		pf:      ep,
		db:      db,
		sfs:     make(map[int]*SF),
		atc:     pagetable.NewTLB(cfg.ATCCapacityPages, translationPageSize),
		mtt:     make(map[uint32]*MR),
		nextKey: 1,
		pds:     make(map[uint32]struct{}),
		nextPD:  1,
		qps:     make(map[uint32]*QP),
		nextQP:  1,
		vswitch: NewVSwitch(vSwitchRuleLatency),
	}, nil
}

// SetTracer attaches a flight recorder; host labels the trace process.
// Events land on the "<rnic name>" lane of that process.
func (r *RNIC) SetTracer(t *trace.Tracer, host string) {
	r.tr = t
	r.host = host
}

// traceOp records one verbs operation as a complete slice on the RNIC's
// lane, with the translation mode and per-page ATC outcome as args.
func (r *RNIC) traceOp(name, mode string, res WriteResult) {
	if !r.tr.Enabled() {
		return
	}
	r.tr.Complete(r.host, r.cfg.Name, "rnic", name, res.Latency,
		trace.S("mode", mode), trace.S("route", res.Route.String()),
		trace.U("pages", res.Pages), trace.U("atc-miss", res.ATCMisses))
}

// Name returns the RNIC label.
func (r *RNIC) Name() string { return r.cfg.Name }

// PF returns the physical function endpoint.
func (r *RNIC) PF() *pcie.Endpoint { return r.pf }

// ATC exposes the address translation cache for counter inspection.
func (r *RNIC) ATC() *pagetable.TLB { return r.atc }

// VSwitch returns the embedded flow-steering table.
func (r *RNIC) VSwitch() *VSwitch { return r.vswitch }

// ATSTranslations reports how many per-page ATS round trips the RNIC
// issued (the Neohost counter from §6).
func (r *RNIC) ATSTranslations() uint64 { return r.atsTranslations }

// TotalBandwidth returns the aggregate port rate in bytes/sec.
func (r *RNIC) TotalBandwidth() float64 {
	return numPorts * r.cfg.PortBandwidth
}

// AllocDoorbell hands out one 4 KiB doorbell page in the RNIC's BAR.
func (r *RNIC) AllocDoorbell() (addr.HPARange, error) {
	if n := len(r.dbFree); n > 0 {
		off := r.dbFree[n-1]
		r.dbFree = r.dbFree[:n-1]
		return addr.NewHPARange(addr.HPA(r.db.Start+off), addr.PageSize4K), nil
	}
	if r.dbNext+addr.PageSize4K > r.db.Size {
		return addr.HPARange{}, ErrDoorbellSpace
	}
	off := r.dbNext
	r.dbNext += addr.PageSize4K
	return addr.NewHPARange(addr.HPA(r.db.Start+off), addr.PageSize4K), nil
}

// FreeDoorbell returns a doorbell page for reuse.
func (r *RNIC) FreeDoorbell(dbr addr.HPARange) {
	r.dbFree = append(r.dbFree, dbr.Start-r.db.Start)
}

// DoorbellWindow returns the doorbell BAR.
func (r *RNIC) DoorbellWindow() addr.HPARange { return r.db }

// VF is an SR-IOV virtual function: its own BDF, BAR and host-memory
// footprint.
type VF struct {
	Index int
	EP    *pcie.Endpoint
	rnic  *RNIC
}

// VFs returns the live virtual functions.
func (r *RNIC) VFs() []*VF { return r.vfs }

// SetNumVFs configures SR-IOV. Mirroring the vendor firmware of
// Problem ①, the count may only move between zero and a value: any
// non-zero → different non-zero transition returns ErrVFReconfig, and
// the operator must Reset() first (destroying every VF). Each VF charges
// VFMemoryBytes of host memory for its virtual queues.
func (r *RNIC) SetNumVFs(n int) error {
	if n < 0 || n > maxVFs {
		return fmt.Errorf("rnic: VF count %d out of range [0,%d]", n, maxVFs)
	}
	if n == len(r.vfs) {
		return nil
	}
	if len(r.vfs) != 0 && n != 0 {
		return fmt.Errorf("%w: have %d, want %d", ErrVFReconfig, len(r.vfs), n)
	}
	if n == 0 {
		r.Reset()
		return nil
	}
	need := uint64(n) * VFMemoryBytes
	m := r.complex.Memory()
	if m != nil && m.FreeBytes() < need {
		return fmt.Errorf("%w: need %d MiB, free %d MiB", ErrVFMemory, need>>20, m.FreeBytes()>>20)
	}
	for i := 0; i < n; i++ {
		ep, err := r.pf.Switch().AttachEndpoint(fmt.Sprintf("%s-vf%d", r.cfg.Name, i))
		if err != nil {
			r.Reset()
			return err
		}
		bar := r.complex.AllocBARWindow(addr.PageSize2M)
		if err := ep.AddBAR(pcie.BAR{Window: bar, Owner: addr.OwnerHostMemory, Name: ep.Name() + "-bar"}); err != nil {
			r.Reset()
			return err
		}
		if m != nil {
			if _, err := m.Allocate(addr.AlignUp(VFMemoryBytes, addr.PageSize4K), ep.Name()+"-queues"); err != nil {
				r.Reset()
				return fmt.Errorf("%w: %v", ErrVFMemory, err)
			}
		}
		r.vfs = append(r.vfs, &VF{Index: i, EP: ep, rnic: r})
	}
	return nil
}

// Reset destroys all VFs (the full reset Problem ① requires before the
// VF count can change). VF queue memory is intentionally leaked back
// only on host reboot in the real system; here we keep the allocation
// accounting simple and leave regions owned by the test's Memory.
func (r *RNIC) Reset() {
	for _, vf := range r.vfs {
		vf.EP.Detach()
	}
	r.vfs = nil
}

// EnableGDR registers the VF's BDF in every PCIe switch LUT (translated
// TLPs must route at any switch), consuming one bounded entry per switch
// (Problem ③).
func (vf *VF) EnableGDR() error {
	return vf.rnic.complex.RegisterGDRAll(vf.EP.BDF())
}

// SF is a PCIe Scalable Function: dynamically created, sharing the PF's
// BDF, so it needs no LUT entry and no VF queue memory (§4).
type SF struct {
	ID   int
	rnic *RNIC
}

// CreateSF instantiates a scalable function.
func (r *RNIC) CreateSF() *SF {
	id := r.sfNext
	r.sfNext++
	sf := &SF{ID: id, rnic: r}
	r.sfs[id] = sf
	return sf
}

// DestroySF removes a scalable function.
func (r *RNIC) DestroySF(sf *SF) {
	delete(r.sfs, sf.ID)
}

// NumSFs returns the live SF count.
func (r *RNIC) NumSFs() int { return len(r.sfs) }
