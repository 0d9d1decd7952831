package rnic

import (
	"errors"
	"testing"
)

func mustPool(t *testing.T, cfg DevPoolConfig) *DevPool {
	t.Helper()
	p, err := NewDevPool(cfg)
	if err != nil {
		t.Fatalf("NewDevPool(%+v): %v", cfg, err)
	}
	return p
}

// acquire grants a slot through Acquire, failing the test unless one is
// free and handed over before Acquire returns.
func acquire(t *testing.T, p *DevPool) DevSlot {
	t.Helper()
	var got *DevSlot
	if err := p.Acquire(func(s DevSlot) { got = &s }); err != nil {
		t.Fatalf("acquire: %v", err)
	}
	if got == nil {
		t.Fatal("acquire queued with free slots")
	}
	return *got
}

func TestDevPoolConfigValidation(t *testing.T) {
	for _, cfg := range []DevPoolConfig{
		{Mode: DeviceExclusive, Capacity: 0, Devices: 4},
		{Mode: DeviceShared, Capacity: 8, Devices: 0},
		{Mode: DeviceExclusive, Capacity: 9, Devices: 8}, // VFs are hardware
	} {
		if _, err := NewDevPool(cfg); !errors.Is(err, ErrPoolConfig) {
			t.Errorf("NewDevPool(%+v) = %v, want ErrPoolConfig", cfg, err)
		}
	}
	// Shared mode may oversubscribe the devices: capacity is IP
	// inventory, not hardware.
	if _, err := NewDevPool(DevPoolConfig{Mode: DeviceShared, Capacity: 64, Devices: 2}); err != nil {
		t.Fatalf("shared oversubscription rejected: %v", err)
	}
}

func TestDevPoolExhaustionFailMode(t *testing.T) {
	p := mustPool(t, DevPoolConfig{Mode: DeviceExclusive, Capacity: 2, Devices: 2})
	var got []DevSlot
	grab := func(s DevSlot) { got = append(got, s) }
	if err := p.Acquire(grab); err != nil {
		t.Fatal(err)
	}
	if err := p.Acquire(grab); err != nil {
		t.Fatal(err)
	}
	if err := p.Acquire(grab); !errors.Is(err, ErrPoolExhausted) {
		t.Fatalf("third acquire = %v, want ErrPoolExhausted", err)
	}
	if len(got) != 2 || got[0].Index != 0 || got[1].Index != 1 {
		t.Fatalf("grants = %+v, want slots 0,1", got)
	}
	if p.InUse() != 2 || p.Free() != 0 || p.Waiting() != 0 {
		t.Fatalf("in-use=%d free=%d waiting=%d after a rejection, want 2,0,0",
			p.InUse(), p.Free(), p.Waiting())
	}
}

// TestDevPoolReuseAfterTeardown pins the FIFO reuse contract: released
// slots come back in release order, not index or LIFO order, so a churn
// run's slot assignment is a pure function of the lifecycle sequence.
func TestDevPoolReuseAfterTeardown(t *testing.T) {
	p := mustPool(t, DevPoolConfig{Mode: DeviceExclusive, Capacity: 4, Devices: 4})
	slots := make([]DevSlot, 4)
	for i := range slots {
		slots[i] = acquire(t, p)
	}
	// Tear down out of order: 2, 0, 3, 1.
	for _, i := range []int{2, 0, 3, 1} {
		if err := p.Release(slots[i]); err != nil {
			t.Fatalf("release %d: %v", i, err)
		}
	}
	want := []int{2, 0, 3, 1}
	for _, w := range want {
		if s := acquire(t, p); s.Index != w {
			t.Fatalf("reuse order broken: got slot %d, want %d", s.Index, w)
		}
	}
}

// TestDevPoolQueueMode: on exhaustion, waiters park in FIFO order and
// each Release hands its slot straight to the oldest waiter without the
// slot ever appearing free.
func TestDevPoolQueueMode(t *testing.T) {
	p := mustPool(t, DevPoolConfig{Mode: DeviceExclusive, Capacity: 1, Devices: 1, Queue: true})
	first := acquire(t, p)
	var served []int
	for i := 0; i < 3; i++ {
		i := i
		if err := p.Acquire(func(DevSlot) { served = append(served, i) }); err != nil {
			t.Fatalf("queued acquire %d: %v", i, err)
		}
	}
	if p.Waiting() != 3 {
		t.Fatalf("Waiting() = %d, want 3", p.Waiting())
	}
	if got := p.PeakWaiting(); got != 3 {
		t.Fatalf("peak queue depth = %d, want 3", got)
	}
	if err := p.Release(first); err != nil {
		t.Fatal(err)
	}
	if len(served) != 1 || served[0] != 0 {
		t.Fatalf("served = %v after one release, want [0]", served)
	}
	if p.InUse() != 1 || p.Free() != 0 {
		t.Fatalf("in-use=%d free=%d after handoff, want 1,0", p.InUse(), p.Free())
	}
	// Drain the rest through the same slot.
	if err := p.Release(first); err != nil {
		t.Fatal(err)
	}
	if err := p.Release(first); err != nil {
		t.Fatal(err)
	}
	if want := []int{0, 1, 2}; len(served) != 3 || served[0] != want[0] || served[1] != want[1] || served[2] != want[2] {
		t.Fatalf("served = %v, want %v", served, want)
	}
	if p.Waiting() != 0 || p.InUse() != 1 || p.PeakInUse() != 1 {
		t.Fatalf("waiting=%d in-use=%d peak=%d after drain, want 0,1,1",
			p.Waiting(), p.InUse(), p.PeakInUse())
	}
}

func TestDevPoolDoubleRelease(t *testing.T) {
	p := mustPool(t, DevPoolConfig{Mode: DeviceExclusive, Capacity: 2, Devices: 2})
	s := acquire(t, p)
	if err := p.Release(s); err != nil {
		t.Fatal(err)
	}
	if err := p.Release(s); !errors.Is(err, ErrBadSlot) {
		t.Fatalf("double release = %v, want ErrBadSlot", err)
	}
	if err := p.Release(DevSlot{Index: 99}); !errors.Is(err, ErrBadSlot) {
		t.Fatalf("out-of-range release = %v, want ErrBadSlot", err)
	}
}

func TestDevPoolSharedDeviceMapping(t *testing.T) {
	p := mustPool(t, DevPoolConfig{Mode: DeviceShared, Capacity: 6, Devices: 2})
	for i := 0; i < 6; i++ {
		s := acquire(t, p)
		if s.Device != i%2 {
			t.Fatalf("slot %d on device %d, want round-robin %d", s.Index, s.Device, i%2)
		}
		if s.Mode != DeviceShared {
			t.Fatalf("slot mode = %v", s.Mode)
		}
	}
	if got := p.PeakInUse(); got != 6 {
		t.Fatalf("peak occupancy = %d, want 6", got)
	}
}
