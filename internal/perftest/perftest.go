// Package perftest is the repository's analogue of the 'perftest' suite
// (ib_write_lat / ib_write_bw) used throughout §6 and §8.1: message-size
// sweeps that measure RDMA write latency and bandwidth against a
// simulated RNIC, in GDR or host-memory mode, with the virtualization
// stack's per-operation overheads applied.
package perftest

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/rnic"
	"repro/internal/sim"
)

// ErrNoSizes is returned for an empty sweep.
var ErrNoSizes = errors.New("perftest: no message sizes")

// StackOverhead models what the virtualization stack adds around each
// RDMA operation and on the wire. vStellar adds nothing, so it is bare
// metal (direct-mapped data path); the VF+VxLAN stack pays
// encapsulation and steering costs — Figure 13's 7% latency / 9%
// bandwidth gap.
type StackOverhead struct {
	// PerOpLatency is added to every operation (doorbell indirection,
	// vSwitch steering, VxLAN encap).
	PerOpLatency sim.Duration
	// BandwidthFactor scales achievable bandwidth (1.0 = no loss).
	BandwidthFactor float64
}

// VStellar is bare metal: the data path is direct-mapped (§8.1
// "virtualization overhead is negligible").
func VStellar() StackOverhead { return StackOverhead{BandwidthFactor: 1} }

// VFVxLAN is the legacy SR-IOV stack on a CX7: VxLAN encapsulation and
// shared hardware steering cost ~7% latency on small messages and ~9%
// bandwidth on large ones (Figure 13).
func VFVxLAN() StackOverhead {
	return StackOverhead{PerOpLatency: 160 * time.Nanosecond, BandwidthFactor: 0.91}
}

// Point is one sweep measurement.
type Point struct {
	Size uint64
	// Latency is the one-way small-message completion time.
	Latency sim.Duration
	// Bandwidth is steady-state goodput in bytes/sec.
	Bandwidth float64
	// ATCMissRate is per-page translation misses over pages (ATS mode).
	ATCMissRate float64
}

// Sweep runs a write latency/bandwidth sweep against the RNIC.
type Sweep struct {
	// RNIC and a ready QP + MR pair to exercise.
	RNIC *rnic.RNIC
	QP   *rnic.QP
	Key  uint32
	// VABase is the start of the target region.
	VABase uint64
	// Stack applies virtualization overheads.
	Stack StackOverhead
	// WireRTT is the base network round trip added to latency
	// measurements (client and server RNICs plus one switch).
	WireRTT sim.Duration
	// Iterations per size (perftest default is thousands; the model is
	// deterministic so a handful suffices, but iterations matter when
	// the sweep intentionally thrashes a cache).
	Iterations int
	// Stride moves the target VA between iterations to control cache
	// locality; 0 re-touches the same buffer.
	Stride uint64
}

// Run measures every size and returns the sweep points.
func (s *Sweep) Run(sizes []uint64) ([]Point, error) {
	if len(sizes) == 0 {
		return nil, ErrNoSizes
	}
	iters := s.Iterations
	if iters == 0 {
		iters = 4
	}
	bwFactor := s.Stack.BandwidthFactor
	if bwFactor == 0 {
		bwFactor = 1
	}
	nicBW := s.RNIC.TotalBandwidth()

	var out []Point
	for _, size := range sizes {
		var lastLat, sumSerial sim.Duration
		var pages, misses uint64
		va := s.VABase
		for i := 0; i < iters; i++ {
			res, err := s.RNIC.RDMAWrite(s.QP, s.Key, va, size)
			if err != nil {
				return nil, fmt.Errorf("perftest: size %d iter %d: %w", size, i, err)
			}
			lastLat = res.Latency
			sumSerial += res.SerialCost
			pages += res.Pages
			misses += res.ATCMisses
			if s.Stride != 0 {
				va += s.Stride
			}
		}

		p := Point{Size: size}
		p.Latency = lastLat + s.Stack.PerOpLatency + s.WireRTT/2
		// Steady-state bandwidth: the pipeline is limited by the slower
		// of the NIC ports and the per-op serial cost (translation +
		// PCIe transfer), then scaled by the stack factor.
		serialPerOp := float64(sumSerial) / float64(iters) / 1e9
		wirePerOp := float64(size) / nicBW
		perOp := serialPerOp
		if wirePerOp > perOp {
			perOp = wirePerOp
		}
		if perOp > 0 {
			p.Bandwidth = float64(size) / perOp * bwFactor
		}
		if pages > 0 {
			p.ATCMissRate = float64(misses) / float64(pages)
		}
		out = append(out, p)
	}
	return out, nil
}

// Gbps converts bytes/sec to gigabits/sec for report printing.
func Gbps(bytesPerSec float64) float64 { return bytesPerSec * 8 / 1e9 }
