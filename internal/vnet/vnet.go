// Package vnet models the non-RDMA half of Stellar's design (§4): in a
// secure container, virtio-net (backed by vDPA and a PCIe Scalable
// Function, tunneled over VxLAN) carries TCP/UDP/ARP, while RDMA rides
// vStellar. The paper accepts ~5% TCP throughput loss versus the
// vfio/VF path because control traffic is not performance-critical —
// and gains dynamic device creation in exchange.
//
// The package also reproduces Problem ④'s fallout: with the IOMMU
// forced to nopt (to keep ATS for GDR), the host kernel's TCP stack
// must DMA through I/O virtual addresses, and once the buffer working
// set outgrows the IOTLB, host TCP throughput degrades.
package vnet

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/addr"
	"repro/internal/iommu"
	"repro/internal/sim"
)

// Stack selects the datapath for the container NIC.
type Stack uint8

const (
	// StackVFIO is the legacy passthrough: an SR-IOV VF mapped by VFIO.
	StackVFIO Stack = iota
	// StackVirtioSF is Stellar's choice: virtio-net + vDPA + SF + VxLAN.
	StackVirtioSF
)

func (s Stack) String() string {
	if s == StackVFIO {
		return "vfio-vf"
	}
	return "virtio-sf"
}

// ErrNoBuffers is returned when a device is configured without buffers.
var ErrNoBuffers = errors.New("vnet: device needs at least one buffer")

// The per-packet cost model of a 100 Gbps front-end NIC path.
const (
	// mtu is the TCP packet payload size on the wire.
	mtu = 1500
	// perPacketBase is the driver+stack CPU cost per packet.
	perPacketBase sim.Duration = 80 * time.Nanosecond
	// vringCost is added per packet on the virtio path (descriptor
	// processing through the vDPA backend).
	vringCost sim.Duration = 34 * time.Nanosecond
	// vxlanCost is the encapsulation cost per packet (both stacks
	// tunnel in the paper's deployment).
	vxlanCost sim.Duration = 12 * time.Nanosecond
)

// Config parameterises one container NIC's TCP datapath. New fills a
// zero LineRate or Buffers with DefaultConfig's value.
type Config struct {
	Stack Stack
	// LineRate is the port speed in bytes/sec.
	LineRate float64

	// Buffers is the size of the driver's DMA buffer pool, in packet
	// buffers. A pool larger than the IOTLB forces page walks — the
	// Problem ④ mechanism.
	Buffers int
}

// DefaultConfig models a 100 Gbps front-end NIC path with a typical
// buffer pool.
func DefaultConfig(stack Stack) Config {
	return Config{
		Stack:    stack,
		LineRate: 12.5e9, // 100 Gbps
		Buffers:  4096,
	}
}

// Device is one container-facing TCP NIC whose buffers DMA through the
// host IOMMU.
type Device struct {
	cfg Config
	u   *iommu.IOMMU
	// bufDA are the device addresses of the pool's packet buffers.
	bufDA []addr.DA
	next  int
}

// New builds the device and installs its buffer pool in the IOMMU
// (one 4 KiB page per buffer, a contiguous DA window).
func New(cfg Config, u *iommu.IOMMU, daBase addr.DA, hpaBase addr.HPA) (*Device, error) {
	d := DefaultConfig(cfg.Stack)
	if cfg.LineRate == 0 {
		cfg.LineRate = d.LineRate
	}
	if cfg.Buffers == 0 {
		cfg.Buffers = d.Buffers
	}
	if cfg.Buffers < 1 {
		return nil, ErrNoBuffers
	}
	dev := &Device{cfg: cfg, u: u}
	if u.Config().Mode == iommu.ModeNoPT {
		size := uint64(cfg.Buffers) * addr.PageSize4K
		if _, err := u.Map(addr.NewDARange(daBase, size), hpaBase); err != nil {
			return nil, fmt.Errorf("vnet: buffer pool: %w", err)
		}
	}
	for i := 0; i < cfg.Buffers; i++ {
		dev.bufDA = append(dev.bufDA, daBase+addr.DA(uint64(i)*addr.PageSize4K))
	}
	return dev, nil
}

// SendBurst transmits n packets, cycling through the buffer pool, and
// returns the total virtual-time cost of the burst.
func (d *Device) SendBurst(n int) (sim.Duration, error) {
	var total sim.Duration
	wire := sim.Duration(float64(mtu) / d.cfg.LineRate * 1e9)
	for i := 0; i < n; i++ {
		cost := perPacketBase + vxlanCost
		if d.cfg.Stack == StackVirtioSF {
			cost += vringCost
		}
		// The NIC DMAs the packet buffer: in nopt mode every access
		// translates through the IOTLB; in pt mode it is free.
		da := d.bufDA[d.next]
		d.next = (d.next + 1) % len(d.bufDA)
		_, tcost, err := d.u.Translate(da)
		if err != nil {
			return 0, err
		}
		cost += tcost
		// Per-packet time is the slower of CPU-side processing and
		// wire serialisation (they pipeline).
		if wire > cost {
			cost = wire
		}
		total += cost
	}
	return total, nil
}

// Throughput measures steady-state bytes/sec over a calibrated burst.
func (d *Device) Throughput() (float64, error) {
	const pkts = 20000
	// Warm-up pass populates the IOTLB as far as it can.
	if _, err := d.SendBurst(pkts); err != nil {
		return 0, err
	}
	cost, err := d.SendBurst(pkts)
	if err != nil {
		return 0, err
	}
	if cost <= 0 {
		return 0, errors.New("vnet: zero-cost burst")
	}
	return float64(uint64(pkts)*mtu) / cost.Seconds(), nil
}
