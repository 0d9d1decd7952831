package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"runtime"
	"runtime/pprof"
	"syscall"
	"time"
)

// passResult is one child process's measurement of one workload pass:
// every cell set up and run once, serially, on one goroutine.
type passResult struct {
	Workload string `json:"workload"`
	// SetupS is exec→main plus every cell's setup calls.
	SetupS float64 `json:"setup_s"`
	// WallS, CPUS, AllocMiB and GCCycles cover the run calls only.
	WallS    float64 `json:"wall_s"`
	CPUS     float64 `json:"cpu_s"`
	AllocMiB float64 `json:"alloc_mib"`
	GCCycles uint32  `json:"gc_cycles"`
	// PeakRSSMiB is filled in by the parent from the child's rusage.
	PeakRSSMiB float64 `json:"peak_rss_mib"`

	Counts counts       `json:"counts"`
	Cells  []cellRecord `json:"cells"`
	// SelfS is per-layer CPU self-time of the run calls (traced passes).
	SelfS map[string]float64 `json:"self_s,omitempty"`
	Spans []span             `json:"spans,omitempty"`
	// Traced marks a pass run with the CPU profiler armed.
	Traced bool `json:"traced"`
}

// cellRecord is one cell's outcome within a pass.
type cellRecord struct {
	Name   string `json:"name"`
	Digest string `json:"digest,omitempty"`
	Err    string `json:"err,omitempty"`
	Counts counts `json:"counts"`
}

// cpuTime is the process's user+sys CPU so far, all threads included
// (so concurrent GC work is counted).
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// digest is the SHA-256 of a cell result's canonical JSON: struct
// fields in declaration order, map keys sorted, floats in shortest
// round-trip form.
func digest(r cellResult) (string, error) {
	b, err := json.Marshal(r)
	if err != nil {
		return "", fmt.Errorf("digest: %w", err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// runPass executes every cell of w once. t0 is when the parent started
// this process. With traced set, the CPU profiler runs during each run
// call and its samples are charged to layers; spans are recorded for
// every cell and call.
func runPass(w workload, seed uint64, traced bool, t0 time.Time) passResult {
	res := passResult{Workload: w.name, SetupS: time.Since(t0).Seconds(), Traced: traced}
	if traced {
		res.SelfS = map[string]float64{}
	}
	for _, c := range w.cells() {
		rec := cellRecord{Name: c.name}
		cellStart := time.Now()
		run, err := c.setup(seed)
		setupEnd := time.Now()
		res.SetupS += setupEnd.Sub(cellStart).Seconds()
		if traced {
			res.Spans = append(res.Spans, newSpan("setup", "call", cellStart, setupEnd, nil))
		}
		if err == nil {
			err = measureRun(run, traced, &res, &rec)
		}
		if err != nil {
			rec.Err = err.Error()
		}
		if traced {
			res.Spans = append(res.Spans, newSpan(c.name, "cell", cellStart, time.Now(),
				map[string]any{"events": rec.Counts.Events, "delivered": rec.Counts.Delivered,
					"dropped": rec.Counts.Dropped, "lifecycles": rec.Counts.Lifecycles}))
		}
		res.Counts.add(rec.Counts)
		res.Cells = append(res.Cells, rec)
	}
	return res
}

// measureRun times one run call and adds its costs to res.
func measureRun(run func() (cellResult, error), traced bool, res *passResult, rec *cellRecord) error {
	// Start every run from a collected heap so one cell's garbage is
	// not billed to the next.
	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	var prof bytes.Buffer
	if traced {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return fmt.Errorf("cpu profile: %w", err)
		}
	}
	cpu0 := cpuTime()
	start := time.Now()
	out, runErr := run()
	end := time.Now()
	cpu1 := cpuTime()
	if traced {
		pprof.StopCPUProfile()
	}
	runtime.ReadMemStats(&ms1)

	res.WallS += end.Sub(start).Seconds()
	res.CPUS += (cpu1 - cpu0).Seconds()
	res.AllocMiB += float64(ms1.TotalAlloc-ms0.TotalAlloc) / (1 << 20)
	res.GCCycles += ms1.NumGC - ms0.NumGC
	rec.Counts = out.Counts
	if traced {
		res.Spans = append(res.Spans, newSpan("run", "call", start, end,
			map[string]any{"cpu_s": (cpu1 - cpu0).Seconds()}))
		self, err := layerSelf(prof.Bytes())
		if err != nil {
			return err
		}
		for l, s := range self {
			res.SelfS[l] += s
		}
	}
	if runErr != nil {
		return runErr
	}
	d, err := digest(out)
	rec.Digest = d
	return err
}
