package main

import (
	"bytes"
	"errors"
	"runtime/pprof"
	"testing"
	"time"
)

// raceEnabled is set by race_test.go in -race builds, where the race
// runtime's own frames take most of every profile.
var raceEnabled bool

// profileTotal sums a profile's CPU sample values without attributing
// them, in seconds.
func profileTotal(gz []byte) (float64, error) {
	p, err := parseProfile(gz)
	if err != nil {
		return 0, err
	}
	var t float64
	for _, s := range p.samples {
		t += float64(s.values[p.valueIndex]) / 1e9
	}
	return t, nil
}

// TestAttributionFabricProbe profiles a short run of the 4096-host
// fabric probe and decodes it: the per-layer self-times must sum to
// the profile's total within 1%, that total must be the CPU the process
// spent, and fabric must hold the largest share. (The small-fabric
// probe splits its time about evenly between fabric and sim, one event
// per hop, so it cannot tell a misattribution from noise.)
func TestAttributionFabricProbe(t *testing.T) {
	op, err := probeFabricFleet()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Fatal(err)
	}
	cpu0 := cpuTime()
	for deadline := time.Now().Add(time.Second); time.Now().Before(deadline); {
		if err := op(10_000); err != nil {
			pprof.StopCPUProfile()
			t.Fatal(err)
		}
	}
	cpu := (cpuTime() - cpu0).Seconds()
	pprof.StopCPUProfile()

	self, err := layerSelf(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	total, err := profileTotal(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	top := ""
	for l, s := range self {
		sum += s
		if top == "" || s > self[top] {
			top = l
		}
	}
	t.Logf("cpu %.3fs, profile %.3fs, self %v", cpu, total, self)
	if d := sum - total; d > 0.01*total || d < -0.01*total {
		t.Errorf("self-times sum to %.3fs, profile total %.3fs", sum, total)
	}
	if total < 0.8*cpu || total > 1.2*cpu {
		t.Errorf("profile total %.3fs, process CPU %.3fs: wrong sample value decoded", total, cpu)
	}
	if top != "fabric" && !raceEnabled {
		t.Errorf("largest layer %q, want fabric: %v", top, self)
	}
}

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"repro/internal/fabric.(*Fabric).hop":   "fabric",
		"repro/internal/sim.(*Engine).Run":      "sim",
		"repro/internal/workload.RunStep.func1": "other",
		"runtime.mallocgc":                      "",
		"main.runPass":                          "",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestEachFieldRejectsTruncatedInput(t *testing.T) {
	// Field 2, length-delimited, claims 5 bytes but carries 1.
	err := eachField([]byte{0x12, 0x05, 0x01}, func(int, uint64, []byte) error { return nil })
	if !errors.Is(err, errProto) {
		t.Fatalf("got %v, want errProto", err)
	}
}
