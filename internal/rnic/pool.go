package rnic

import (
	"errors"
	"fmt"
)

// DeviceMode selects how containers on a host see its RDMA devices,
// mirroring the two provisioning modes of Kubernetes RDMA device
// plugins (spiderpool's terminology): exclusive hands each container
// its own SR-IOV VF, so capacity is the hardware VF count; shared
// exposes the PF's RDMA devices to every container (macvlan-style), so
// capacity is the size of the software inventory — the IP pool — and
// many slots map onto few physical devices.
type DeviceMode uint8

const (
	// DeviceExclusive: one VF per container. Isolated, but bounded by
	// the NIC's VF ceiling.
	DeviceExclusive DeviceMode = iota
	// DeviceShared: containers share the PF's RDMA devices; the pool
	// bounds IP/interface inventory, not hardware.
	DeviceShared
)

func (m DeviceMode) String() string {
	if m == DeviceExclusive {
		return "exclusive"
	}
	return "shared"
}

var (
	// ErrPoolExhausted is returned by Acquire in fail mode when no slot
	// is free.
	ErrPoolExhausted = errors.New("rnic: device pool exhausted")
	// ErrPoolConfig rejects an invalid pool configuration.
	ErrPoolConfig = errors.New("rnic: invalid device pool config")
	// ErrBadSlot rejects a Release of a slot that is not currently held.
	ErrBadSlot = errors.New("rnic: slot not held")
)

// DevPoolConfig sizes one host's device inventory.
type DevPoolConfig struct {
	Mode DeviceMode
	// Capacity is the number of grantable slots: hardware VFs in
	// exclusive mode, IP/interface inventory entries in shared mode.
	Capacity int
	// Devices is the number of physical RDMA devices behind the pool.
	// Exclusive mode requires Capacity <= Devices (a VF is hardware);
	// shared mode spreads slots across devices round-robin.
	Devices int
	// Queue selects the exhaustion policy: true parks acquirers in a
	// FIFO served as slots free up; false fails them immediately.
	Queue bool
}

// DevSlot is one granted inventory entry.
type DevSlot struct {
	// Index identifies the slot within the pool (stable across reuse).
	Index int
	// Device is the physical RDMA device the slot rides on. In
	// exclusive mode Device == Index's VF parent mapping (one-to-one);
	// in shared mode many slots share a device.
	Device int
	// Mode echoes the pool's mode.
	Mode DeviceMode
}

// DevPool is a per-host VF / vSwitch-attachment inventory with
// deterministic FIFO semantics: freed slots are reused in release
// order, and queued waiters are served in arrival order. It is
// engine-free — callers model acquisition latency themselves — and not
// goroutine-safe: like the rest of the device model it belongs to one
// simulated host, driven by one engine shard.
type DevPool struct {
	cfg     DevPoolConfig
	free    []int // FIFO: head is next grant, releases append at tail
	held    []bool
	waiters []func(DevSlot) // FIFO, served inside Release

	peakInUse   int // most slots ever held at once
	peakWaiting int // most waiters ever parked at once
}

// NewDevPool builds an inventory of cfg.Capacity free slots.
func NewDevPool(cfg DevPoolConfig) (*DevPool, error) {
	if cfg.Capacity <= 0 || cfg.Devices <= 0 {
		return nil, fmt.Errorf("%w: capacity=%d devices=%d", ErrPoolConfig, cfg.Capacity, cfg.Devices)
	}
	if cfg.Mode == DeviceExclusive && cfg.Capacity > cfg.Devices {
		return nil, fmt.Errorf("%w: exclusive mode caps capacity (%d) at the device count (%d)",
			ErrPoolConfig, cfg.Capacity, cfg.Devices)
	}
	p := &DevPool{
		cfg:  cfg,
		free: make([]int, cfg.Capacity),
		held: make([]bool, cfg.Capacity),
	}
	for i := range p.free {
		p.free[i] = i
	}
	return p, nil
}

func (p *DevPool) slot(idx int) DevSlot {
	return DevSlot{Index: idx, Device: idx % p.cfg.Devices, Mode: p.cfg.Mode}
}

func (p *DevPool) grant() DevSlot {
	idx := p.free[0]
	p.free = p.free[1:]
	p.held[idx] = true
	p.peakInUse = max(p.peakInUse, p.InUse())
	return p.slot(idx)
}

// Acquire requests a slot. If one is free, grant runs synchronously
// before Acquire returns. On exhaustion the pool either parks grant in
// a FIFO (Queue mode; served inside a future Release, at that call's
// virtual time) or returns ErrPoolExhausted (fail mode).
func (p *DevPool) Acquire(grant func(DevSlot)) error {
	if len(p.free) > 0 {
		grant(p.grant())
		return nil
	}
	if !p.cfg.Queue {
		return ErrPoolExhausted
	}
	p.waiters = append(p.waiters, grant)
	p.peakWaiting = max(p.peakWaiting, len(p.waiters))
	return nil
}

// Release returns a slot to the inventory. If waiters are parked the
// slot is handed to the oldest one immediately (it never touches the
// free list); otherwise it joins the tail of the free list, so reuse
// after teardown follows release order exactly.
func (p *DevPool) Release(s DevSlot) error {
	if s.Index < 0 || s.Index >= p.cfg.Capacity || !p.held[s.Index] {
		return fmt.Errorf("%w: index %d", ErrBadSlot, s.Index)
	}
	if len(p.waiters) > 0 {
		w := p.waiters[0]
		p.waiters = p.waiters[1:]
		// Occupancy is unchanged: the slot moves holder without ever
		// being free.
		w(p.slot(s.Index))
		return nil
	}
	p.held[s.Index] = false
	p.free = append(p.free, s.Index)
	return nil
}

// InUse returns the number of slots currently held.
func (p *DevPool) InUse() int { return p.cfg.Capacity - len(p.free) }

// Free returns the number of grantable slots.
func (p *DevPool) Free() int { return len(p.free) }

// Waiting returns the number of parked acquirers.
func (p *DevPool) Waiting() int { return len(p.waiters) }

// PeakInUse returns the most slots held at once since the pool was built.
func (p *DevPool) PeakInUse() int { return p.peakInUse }

// PeakWaiting returns the deepest the waiter queue has been.
func (p *DevPool) PeakWaiting() int { return p.peakWaiting }
