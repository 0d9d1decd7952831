// Command stellarbench regenerates the paper's tables and figures on
// the simulation stack.
//
// Usage:
//
//	stellarbench -list
//	stellarbench -exp fig6
//	stellarbench -exp fig9,fig12 -seed 7
//	stellarbench -exp all -parallel 4
//	stellarbench -exp all -checkpoint ckpt          # crash-safe run
//	stellarbench -exp all -checkpoint ckpt -resume  # fast-forward
//	stellarbench -jobgraph examples/jobgraph/pingpong.json
//	stellarbench -exp fig9 -cpuprofile cpu.pb.gz -memprofile mem.pb.gz
//
// Each experiment prints an aligned table plus notes stating what the
// paper reports for the same measurement. Results are deterministic for
// a given seed: experiments run concurrently on -parallel workers, but
// each run builds private engines and results print in registry order,
// so the output is byte-identical at any parallelism.
//
// With -checkpoint DIR every completed experiment is committed to DIR
// at its quiescent boundary, so a crash, OOM-kill or CI timeout loses
// at most the experiments in flight; -resume replays the committed
// prefix and re-executes only the rest, printing byte-for-byte what an
// uninterrupted run prints. SIGINT checkpoints and exits: in-flight
// experiments run to their boundary and commit, queued ones are
// skipped, and the process exits 130 (a second SIGINT kills
// immediately).
//
// With -cpuprofile / -memprofile the run writes runtime/pprof profiles.
// Each experiment executes under a pprof label ("experiment" = its ID),
// so `go tool pprof -tagfocus` isolates one experiment's samples from a
// batch. The memory profile is a heap snapshot taken after a final GC,
// with the allocation-site sample rate raised to catch hot-path allocs.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"repro/internal/chaos"
	"repro/internal/checkpoint"
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
		csvFlag      = flag.Bool("csv", false, "emit CSV instead of aligned tables")
		jsonFlag     = flag.Bool("json", false, "emit JSON table objects instead of aligned tables")
		traceFlag    = flag.String("trace", "", "write a Chrome trace-event JSON file covering the run (load in Perfetto)")
		chaosFlag    = flag.String("chaos", "", "play a chaos scenario JSON file against the fabrics of the cluster-based experiments, fig11, linkfail-recovery and the scale runs (EXPERIMENTS.md lists the set)")
		parallelFlag = flag.Int("parallel", runtime.GOMAXPROCS(0), "experiment worker count (tracing forces 1)")
		graphFlag    = flag.String("jobgraph", "", "replay a job-graph JSON file as an extra experiment")
		shardsFlag   = flag.Int("shards", 1, "engine shards for the multi-pod scale fabrics and fig6-fleet, at most one per pod or host (results are byte-identical at any count)")
		ckptFlag     = flag.String("checkpoint", "", "checkpoint directory: commit each completed experiment so an aborted run can resume")
		resumeFlag   = flag.Bool("resume", false, "with -checkpoint, replay experiments already committed there instead of recomputing them")
		cpuProfFlag  = flag.String("cpuprofile", "", "write a CPU profile to this file (per-experiment pprof labels; read with go tool pprof)")
		memProfFlag  = flag.String("memprofile", "", "write an allocation profile to this file at exit (after a final GC)")
	)
	flag.Parse()
	if *resumeFlag && *ckptFlag == "" {
		fmt.Fprintln(os.Stderr, "stellarbench: -resume needs -checkpoint DIR (the directory to resume from)")
		return 2
	}

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
	session.Shards = *shardsFlag

	// Checkpoint lifecycle: bind the store to this exact run
	// configuration, and let SIGINT cancel the batch at the next
	// quiescent boundary instead of killing the process mid-cell.
	ctx := context.Background()
	var store *checkpoint.Store
	if *ckptFlag != "" {
		if tr != nil {
			fmt.Fprintln(os.Stderr, "stellarbench: -trace disables -checkpoint (replaying a cell would drop its trace events)")
		} else {
			fp, ferr := runFingerprint(*seedFlag, *shardsFlag, runners, *chaosFlag, *graphFlag)
			if ferr != nil {
				fmt.Fprintf(os.Stderr, "stellarbench: %v\n", ferr)
				return 1
			}
			store, err = checkpoint.Open(*ckptFlag, fp, *resumeFlag, func(format string, args ...any) {
				fmt.Fprintf(os.Stderr, "stellarbench: "+format+"\n", args...)
			})
			if err != nil {
				fmt.Fprintf(os.Stderr, "stellarbench: %v\n", err)
				return 1
			}
			var stop context.CancelFunc
			ctx, stop = signal.NotifyContext(ctx, os.Interrupt)
			defer stop()
			go func() {
				// After the first SIGINT starts the graceful exit,
				// restore default handling so a second one kills the
				// process immediately.
				<-ctx.Done()
				stop()
			}()
		}
	}

	start := time.Now()
	results, _ := experiments.RunAll(ctx, session, runners, store)
	interrupted := ctx.Err() != nil
	failed, skipped := 0, 0
	for _, res := range results {
		if res.Err != nil {
			if interrupted && errors.Is(res.Err, context.Canceled) {
				skipped++
				continue
			}
			fmt.Fprintf(os.Stderr, "stellarbench: %s failed: %v\n", res.ID, res.Err)
			failed++
			continue
		}
		if *jsonFlag {
			fmt.Print(res.Table.JSON())
		} else if *csvFlag {
			fmt.Printf("# %s: %s\n%s\n", res.Table.ID, res.Table.Title, res.Table.CSV())
		} else {
			fmt.Println(res.Table.String())
			if res.Resumed {
				fmt.Printf("(%s resumed from checkpoint; %d sim events recorded)\n\n",
					res.ID, res.Stats.Events)
			} else {
				fmt.Printf("(%s completed in %.1fs wall time; %d sim events, %.2gM events/s)\n\n",
					res.ID, res.Stats.Elapsed.Seconds(), res.Stats.Events,
					res.Stats.EventsPerSec()/1e6)
			}
		}
	}
	if !*jsonFlag && !*csvFlag && len(results) > 1 && !interrupted {
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
	if store != nil {
		for _, d := range store.Degradations() {
			fmt.Fprintf(os.Stderr, "stellarbench: checkpoint degradation: %v\n", d)
		}
	}
	if interrupted {
		fmt.Fprintf(os.Stderr,
			"stellarbench: interrupted: %d/%d experiments checkpointed in %s (%d skipped); rerun with -checkpoint %s -resume to continue\n",
			store.Cells(), len(runners), store.Dir(), skipped, store.Dir())
		return 130
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

// runFingerprint derives the checkpoint identity of this invocation:
// seed, shard count, the experiment list in run order, and
// the content hash of any chaos scenario or job-graph input. Anything
// that changes the output must land here, or resume would splice a
// different run's tables into this one.
func runFingerprint(seed uint64, shards int, runners []experiments.Runner, chaosPath, graphPath string) (checkpoint.Fingerprint, error) {
	ids := make([]string, len(runners))
	for i, r := range runners {
		ids[i] = r.ID
	}
	var extra strings.Builder
	for _, in := range []struct{ label, path string }{{"chaos", chaosPath}, {"jobgraph", graphPath}} {
		if in.path == "" {
			continue
		}
		h, err := checkpoint.HashFile(in.path)
		if err != nil {
			return checkpoint.Fingerprint{}, fmt.Errorf("hashing %s input: %w", in.label, err)
		}
		fmt.Fprintf(&extra, "%s:%s;", in.label, h)
	}
	return checkpoint.Fingerprint{
		Seed:     seed,
		Shards:   shards,
		Workload: strings.Join(ids, ","),
		Extra:    extra.String(),
	}, nil
}
