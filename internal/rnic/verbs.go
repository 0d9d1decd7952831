package rnic

import (
	"fmt"

	"repro/internal/addr"
	"repro/internal/pcie"
	"repro/internal/sim"
)

// PD is a protection-domain handle. A QP may only touch MRs in its own
// PD — the hardware isolation boundary vStellar gives each VM (§9).
type PD uint32

// AllocPD creates a protection domain.
func (r *RNIC) AllocPD() PD {
	id := r.nextPD
	r.nextPD++
	r.pds[id] = struct{}{}
	return PD(id)
}

// DeallocPD removes a protection domain.
func (r *RNIC) DeallocPD(pd PD) {
	delete(r.pds, uint32(pd))
}

// MTTEntry describes where a memory region's pages live. A classic MTT
// holds an untranslated device address that the IOMMU must still
// resolve; the eMTT additionally records the final HPA and the memory
// owner so the RNIC can emit AT=translated TLPs for GPU targets
// (Figure 7).
type MTTEntry struct {
	// Base is the target base address: a DA when Translated is false,
	// the final HPA when Translated is true.
	Base uint64
	// Owner says whose memory this is (host or GPU).
	Owner addr.MemoryOwner
	// Translated marks the entry as carrying a final HPA (eMTT fast
	// path for GPU memory).
	Translated bool
}

// MR is a registered memory region.
type MR struct {
	Key   uint32
	PD    PD
	VA    addr.Range // virtual span the key covers (GVA or HVA)
	Entry MTTEntry
}

// RegisterMR installs a memory region into the MTT. The region consumes
// MTT capacity proportional to its page count; exhausting it returns
// ErrMTTFull.
func (r *RNIC) RegisterMR(pd PD, va addr.Range, entry MTTEntry) (*MR, error) {
	if _, ok := r.pds[uint32(pd)]; !ok {
		return nil, fmt.Errorf("rnic: register MR in unknown PD %d", pd)
	}
	if entry.Translated && !r.cfg.EMTT {
		return nil, fmt.Errorf("rnic: %s has no eMTT; cannot install translated entries", r.cfg.Name)
	}
	pages := addr.PageCount(va.Size, translationPageSize)
	if r.mttPages+pages > mttCapacityPages {
		return nil, fmt.Errorf("%w: %d pages in use, %d requested, capacity %d",
			ErrMTTFull, r.mttPages, pages, mttCapacityPages)
	}
	mr := &MR{Key: r.nextKey, PD: pd, VA: va, Entry: entry}
	r.nextKey++
	r.mtt[mr.Key] = mr
	r.mttPages += pages
	return mr, nil
}

// DeregisterMR removes a region from the MTT.
func (r *RNIC) DeregisterMR(mr *MR) error {
	if _, ok := r.mtt[mr.Key]; !ok {
		return fmt.Errorf("%w: key %d", ErrBadKey, mr.Key)
	}
	delete(r.mtt, mr.Key)
	r.mttPages -= addr.PageCount(mr.VA.Size, translationPageSize)
	return nil
}

// MTTPagesUsed reports consumed MTT capacity.
func (r *RNIC) MTTPagesUsed() uint64 { return r.mttPages }

// QPState is the RDMA queue-pair state machine (abridged).
type QPState uint8

// QP states, in connection-establishment order.
const (
	QPReset QPState = iota
	QPInit
	QPReadyToReceive
	QPReadyToSend
	QPError
)

func (s QPState) String() string {
	switch s {
	case QPReset:
		return "RESET"
	case QPInit:
		return "INIT"
	case QPReadyToReceive:
		return "RTR"
	case QPReadyToSend:
		return "RTS"
	case QPError:
		return "ERR"
	default:
		return fmt.Sprintf("QPState(%d)", uint8(s))
	}
}

// QP is a queue pair.
type QP struct {
	Number uint32
	PD     PD
	State  QPState
}

// CreateQP allocates a queue pair in the given protection domain.
func (r *RNIC) CreateQP(pd PD) (*QP, error) {
	if _, ok := r.pds[uint32(pd)]; !ok {
		return nil, fmt.Errorf("rnic: create QP in unknown PD %d", pd)
	}
	qp := &QP{Number: r.nextQP, PD: pd, State: QPReset}
	r.nextQP++
	r.qps[qp.Number] = qp
	return qp, nil
}

// DestroyQP removes a queue pair.
func (r *RNIC) DestroyQP(qp *QP) { delete(r.qps, qp.Number) }

// ModifyQP advances the QP state machine; forward transitions must
// follow RESET→INIT→RTR→RTS. Any state may move to ERR (notifying the
// QP-error observers, see recovery.go) or back to RESET — the verbs
// escape hatch RecoverQP uses to re-cycle an errored QP.
func (r *RNIC) ModifyQP(qp *QP, next QPState) error {
	switch next {
	case QPError:
		r.enterQPError(qp)
		return nil
	case QPReset:
		qp.State = QPReset
		return nil
	}
	valid := map[QPState]QPState{QPReset: QPInit, QPInit: QPReadyToReceive, QPReadyToReceive: QPReadyToSend}
	if want, ok := valid[qp.State]; !ok || want != next {
		return fmt.Errorf("%w: %v -> %v", ErrQPState, qp.State, next)
	}
	qp.State = next
	return nil
}

// WriteResult summarises one inbound RDMA/GDR write's traversal of the
// RX pipeline (Figure 7) with its full cost breakdown.
type WriteResult struct {
	// Latency is the total pipeline + fabric cost in virtual time.
	Latency sim.Duration
	// Route is how the payload reached its target.
	Route pcie.Route
	// Pages is how many translation pages the payload spanned.
	Pages uint64
	// SerialCost is the steady-state pipelined cost of the operation:
	// per-page translation work plus the PCIe transfer time, excluding
	// fixed propagation. Bandwidth tests divide size by this.
	SerialCost sim.Duration
	// ATCHits / ATCMisses count per-page ATC outcomes (ATS mode only).
	ATCHits   uint64
	ATCMisses uint64
}

// RDMAWrite pushes an inbound write through the RX pipeline: MTT lookup,
// address translation (eMTT fast path or per-page ATS/ATC), then a TLP
// into the PCIe fabric. qp must be in RTR or RTS, and its PD must match
// the MR's — the isolation check of §9.
func (r *RNIC) RDMAWrite(qp *QP, key uint32, va uint64, size uint64) (WriteResult, error) {
	var res WriteResult
	if qp.State != QPReadyToReceive && qp.State != QPReadyToSend {
		return res, fmt.Errorf("%w: state %v", ErrQPState, qp.State)
	}
	mr, ok := r.mtt[key]
	if !ok {
		return res, fmt.Errorf("%w: key %d", ErrBadKey, key)
	}
	if mr.PD != qp.PD {
		return res, fmt.Errorf("%w: QP pd=%d MR pd=%d", ErrPDViolation, qp.PD, mr.PD)
	}
	if !mr.VA.ContainsRange(addr.Range{Start: va, Size: size}) {
		return res, fmt.Errorf("%w: [%#x,%#x) not in %v", ErrVAOutOfRange, va, va+size, mr.VA)
	}
	res.Latency = wqeProcessing + mttLookupLatency
	offset := va - mr.VA.Start
	target := mr.Entry.Base + offset

	if mr.Entry.Translated {
		// eMTT fast path: final HPA known; GPU targets go out as
		// AT=translated and never touch the RC (Figure 7, GDR flow).
		d, err := r.complex.DMA(pcie.TLP{Source: r.pf, Addr: target, Size: size, AT: pcie.ATTranslated, Write: true})
		if err != nil {
			return res, err
		}
		res.Latency += d.Latency
		res.Route = d.Route
		res.Pages = addr.PageCount(size, translationPageSize)
		res.SerialCost = d.Transfer
		r.traceOp("rdma-write", "emtt-translated", res)
		return res, nil
	}

	if r.cfg.EMTT && mr.Entry.Owner == addr.OwnerHostMemory {
		// eMTT host-memory flow (Figure 7, RDMA flow): single
		// untranslated TLP; the RC's IOMMU does the final translation
		// once per transaction, not per page on the RNIC side.
		d, err := r.complex.DMA(pcie.TLP{Source: r.pf, Addr: target, Size: size, AT: pcie.ATUntranslated, Write: true})
		if err != nil {
			return res, err
		}
		res.Latency += d.Latency
		res.Route = d.Route
		res.Pages = addr.PageCount(size, translationPageSize)
		res.SerialCost = d.Transfer
		r.traceOp("rdma-write", "emtt-host", res)
		return res, nil
	}

	// Classic ATS/ATC path (the CX6/CX7 behaviour in Figure 8): resolve
	// every page through the ATC, paying an ATS round trip on each miss,
	// then emit the payload as one translated TLP.
	ps := translationPageSize
	first := addr.AlignDown(target, ps)
	last := addr.AlignDown(target+size-1, ps)
	var hpaBase uint64
	var translation sim.Duration
	for page := first; ; page += ps {
		if hpa, ok := r.atc.Lookup(page); ok {
			res.ATCHits++
			res.Latency += atcHitLatency
			translation += atcHitLatency
			if page == first {
				hpaBase = hpa
			}
		} else {
			res.ATCMisses++
			hpa, cost, err := r.complex.IOMMU().ATSTranslate(addr.DA(page))
			r.atsTranslations++
			res.Latency += cost + atcHitLatency
			translation += cost + atcHitLatency
			if err != nil {
				return res, err
			}
			r.atc.Insert(page, uint64(hpa))
			if page == first {
				hpaBase = uint64(hpa)
			}
		}
		res.Pages++
		if page == last {
			break
		}
	}
	d, err := r.complex.DMA(pcie.TLP{
		Source: r.pf,
		Addr:   hpaBase + (target - first),
		Size:   size,
		AT:     pcie.ATTranslated,
		Write:  true,
	})
	if err != nil {
		return res, err
	}
	res.Latency += d.Latency
	res.Route = d.Route
	// Steady state overlaps ATS round trips up to the pipeline depth.
	res.SerialCost = translation/atsPipelineDepth + d.Transfer
	r.traceOp("rdma-write", "ats", res)
	return res, nil
}
