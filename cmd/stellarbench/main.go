// Command stellarbench regenerates the paper's tables and figures on
// the simulation stack.
//
// Usage:
//
//	stellarbench -list
//	stellarbench -exp fig6
//	stellarbench -exp fig9,fig12 -seed 7
//	stellarbench -exp all -parallel 4
//	stellarbench -jobgraph examples/jobgraph/pingpong.json
//	stellarbench -exp fig9 -cpuprofile cpu.pb.gz -memprofile mem.pb.gz
//
// Each experiment prints an aligned table plus notes stating what the
// paper reports for the same measurement. Results are deterministic for
// a given seed: experiments run concurrently on -parallel workers, but
// each run builds private engines and results print in registry order,
// so the output is byte-identical at any parallelism.
//
// With -cpuprofile / -memprofile the run writes runtime/pprof profiles.
// Each experiment executes under a pprof label ("experiment" = its ID),
// so `go tool pprof -tagfocus` isolates one experiment's samples from a
// batch. The memory profile is a heap snapshot taken after a final GC,
// with the allocation-site sample rate raised to catch hot-path allocs.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"repro/internal/chaos"
	"repro/internal/experiments"
	"repro/internal/jobgraph"
	"repro/internal/trace"
)

// main delegates to run so deferred cleanup (profile stops) survives
// every exit path; os.Exit would skip defers in a monolithic main.
func main() { os.Exit(run()) }

func run() int {
	var (
		expFlag      = flag.String("exp", "", "comma-separated experiment IDs, or 'all'")
		seedFlag     = flag.Uint64("seed", 42, "simulation seed")
		listFlag     = flag.Bool("list", false, "list available experiments")
		jsonFlag     = flag.Bool("json", false, "emit JSON table objects instead of aligned tables")
		traceFlag    = flag.String("trace", "", "write a Chrome trace-event JSON file covering the run (load in Perfetto)")
		chaosFlag    = flag.String("chaos", "", "play a chaos scenario JSON file against the fabrics of the cluster-based experiments, fig11, linkfail-recovery and the scale runs (EXPERIMENTS.md lists the set)")
		parallelFlag = flag.Int("parallel", runtime.GOMAXPROCS(0), "worker count for experiments, their cells and the engine shards of the multi-pod scale fabrics and fig6-fleet (tracing forces 1; results are byte-identical at any count)")
		graphFlag    = flag.String("jobgraph", "", "replay a job-graph JSON file as an extra experiment")
		cpuProfFlag  = flag.String("cpuprofile", "", "write a CPU profile to this file (per-experiment pprof labels; read with go tool pprof)")
		memProfFlag  = flag.String("memprofile", "", "write an allocation profile to this file at exit (after a final GC)")
	)
	flag.Parse()

	stopProfiles, err := startProfiles(*cpuProfFlag, *memProfFlag)
	if err != nil {
		fmt.Fprintf(os.Stderr, "stellarbench: %v\n", err)
		return 2
	}
	defer stopProfiles()

	if *listFlag || (*expFlag == "" && *graphFlag == "") {
		fmt.Println("available experiments:")
		for _, r := range experiments.All() {
			fmt.Printf("  %-22s %s\n", r.ID, r.Desc)
		}
		if *expFlag == "" && !*listFlag {
			fmt.Println("\nrun with -exp <id>[,<id>...] or -exp all")
		}
		return 0
	}

	var runners []experiments.Runner
	if *expFlag != "" {
		runners, err = experiments.Select(*expFlag)
		if err != nil {
			fmt.Fprintf(os.Stderr, "stellarbench: %v (use -list)\n", err)
			return 2
		}
	}
	if *graphFlag != "" {
		g, err := jobgraph.LoadFile(*graphFlag)
		if err != nil {
			fmt.Fprintf(os.Stderr, "stellarbench: %v\n", err)
			return 2
		}
		runners = append(runners, experiments.JobGraphRunner(g))
	}

	var tr *trace.Tracer
	if *traceFlag != "" {
		tr = trace.New(0)
	}

	var sc *chaos.Scenario
	if *chaosFlag != "" {
		sc, err = chaos.LoadFile(*chaosFlag)
		if err != nil {
			fmt.Fprintf(os.Stderr, "stellarbench: %v\n", err)
			return 2
		}
	}

	session := experiments.NewSession(*seedFlag)
	session.Tracer = tr
	session.Chaos = sc
	session.Parallelism = *parallelFlag

	start := time.Now()
	results, _ := experiments.RunAll(session, runners)
	failed := 0
	for _, res := range results {
		if res.Err != nil {
			fmt.Fprintf(os.Stderr, "stellarbench: %s failed: %v\n", res.ID, res.Err)
			failed++
			continue
		}
		if *jsonFlag {
			fmt.Print(res.Table.JSON())
		} else {
			fmt.Println(res.Table.String())
			fmt.Printf("(%s completed in %.1fs wall time; %d sim events, %.2gM events/s)\n\n",
				res.ID, res.Stats.Elapsed.Seconds(), res.Stats.Events,
				res.Stats.EventsPerSec()/1e6)
		}
	}
	if !*jsonFlag && len(results) > 1 {
		workers := max(1, min(session.Parallelism, len(runners)))
		if tr != nil {
			workers = 1 // RunAll serializes a traced batch
		}
		fmt.Printf("(batch: %d experiments in %.1fs wall time on %d workers)\n",
			len(results), time.Since(start).Seconds(), workers)
	}
	if tr != nil {
		if err := tr.WriteJSONFile(*traceFlag); err != nil {
			fmt.Fprintf(os.Stderr, "stellarbench: writing trace: %v\n", err)
			return 1
		}
		fmt.Printf("trace: %d events (%d recorded, %d overwritten) -> %s\n",
			tr.Len(), tr.Total(), tr.Dropped(), *traceFlag)
	}
	if failed > 0 {
		return 1
	}
	return 0
}

// startProfiles arms -cpuprofile / -memprofile. The returned stop
// function is idempotent and safe on every exit path: it stops the CPU
// profile and writes the allocation profile after a final GC. Arming
// -memprofile raises runtime.MemProfileRate so short runs still sample
// small hot-path allocations the default 512 KiB rate would miss; it
// must happen before the run allocates, which is why profiles are armed
// right after flag parsing.
func startProfiles(cpuPath, memPath string) (stop func(), err error) {
	var cpuF *os.File
	if cpuPath != "" {
		cpuF, err = os.Create(cpuPath)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(cpuF); err != nil {
			cpuF.Close()
			return nil, fmt.Errorf("cpuprofile: %w", err)
		}
	}
	if memPath != "" {
		runtime.MemProfileRate = 8 << 10
	}
	stopped := false
	return func() {
		if stopped {
			return
		}
		stopped = true
		if cpuF != nil {
			pprof.StopCPUProfile()
			if err := cpuF.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "stellarbench: cpuprofile: %v\n", err)
			}
		}
		if memPath != "" {
			f, err := os.Create(memPath)
			if err != nil {
				fmt.Fprintf(os.Stderr, "stellarbench: memprofile: %v\n", err)
				return
			}
			runtime.GC()
			if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
				fmt.Fprintf(os.Stderr, "stellarbench: memprofile: %v\n", err)
			}
			f.Close()
		}
	}, nil
}
