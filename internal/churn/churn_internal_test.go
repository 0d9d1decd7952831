package churn

import (
	"errors"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/addr"
	"repro/internal/rnic"
	"repro/internal/sim"
)

func TestDistOfSummary(t *testing.T) {
	var samples []float64
	for i := 1; i <= 100; i++ {
		samples = append(samples, float64(i))
	}
	want := Dist{N: 100, Mean: 50.5, P50: 50, P99: 99, P999: 100, Max: 100}
	if got := distOf(samples); got != want {
		t.Errorf("distOf(1..100) = %+v, want %+v", got, want)
	}
}

func TestDistOfEmpty(t *testing.T) {
	if got := distOf(nil); got != (Dist{}) {
		t.Errorf("distOf(nil) = %+v, want zeros", got)
	}
}

func TestDistOfQuantileMonotone(t *testing.T) {
	f := func(vals []float64) bool {
		if len(vals) == 0 {
			return true
		}
		d := distOf(vals)
		return d.P50 <= d.P99 && d.P99 <= d.P999 && d.P999 <= d.Max
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestDistOfLeavesInputInOrder: HostStats span slices stay in
// completion order after the report summarises them.
func TestDistOfLeavesInputInOrder(t *testing.T) {
	samples := []float64{3, 1, 4, 1, 5, 9, 2, 6}
	want := append([]float64(nil), samples...)
	if d := distOf(samples); d.P50 != 3 || d.Max != 9 {
		t.Errorf("distOf = %+v, want p50 3 and max 9", d)
	}
	if !reflect.DeepEqual(samples, want) {
		t.Errorf("distOf reordered its input: %v, want %v", samples, want)
	}
}

// TestDrainCheckNamesHost leaves a pin on one host and a slot on
// another of an idle fleet, and checks that the drain check names the
// first host still holding either.
func TestDrainCheckNamesHost(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Hosts = 3
	se := sim.NewShardedEngine(1, sim.SchedulerWheel, 1)
	hosts := make([]*host, cfg.Hosts)
	for i := range hosts {
		h, err := newHost(&cfg, i, se.Shard(0))
		if err != nil {
			t.Fatal(err)
		}
		hosts[i] = h
	}
	if err := drained(hosts); err != nil {
		t.Fatalf("idle fleet: %v", err)
	}

	r, err := hosts[1].mem.Allocate(addr.PageSize2M, "leak")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := hosts[1].mem.PinBlock(r, 0, addr.PageSize2M); err != nil {
		t.Fatal(err)
	}
	if err := hosts[2].pool.Acquire(func(rnic.DevSlot) {}); err != nil {
		t.Fatal(err)
	}
	want := "host 1: 2097152 bytes pinned, 0 slots held, 0 waiters"
	if err := drained(hosts); !errors.Is(err, ErrNotDrained) || !strings.HasSuffix(err.Error(), want) {
		t.Fatalf("pinned host 1: drained = %v, want ErrNotDrained ending %q", err, want)
	}

	if err := hosts[1].mem.UnpinBlock(r, 0); err != nil {
		t.Fatal(err)
	}
	want = "host 2: 0 bytes pinned, 1 slots held, 0 waiters"
	if err := drained(hosts); !errors.Is(err, ErrNotDrained) || !strings.HasSuffix(err.Error(), want) {
		t.Fatalf("slot on host 2: drained = %v, want ErrNotDrained ending %q", err, want)
	}
}
