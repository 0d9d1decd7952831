// Command bench is the simulator's benchmark. It runs four closed-loop
// batch workloads built from the layers' public functions, each pass in
// a fresh child process, and reports end-to-end metrics from untraced
// passes and per-layer metrics (CPU self-time by layer, exact counts and
// isolated probes) from a traced run. Every cell's result is checked
// against the committed golden digests and across passes.
//
// Run it from the repository root:
//
//	bash bench/run.sh                      # one pass of every workload
//	bash bench/run.sh -workload fleet -seconds 20
//	bash bench/run.sh -trace 1             # per-layer metrics + spans.json
//	bash bench/run.sh -selfcheck           # two sets of -reps 3 must agree
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"text/tabwriter"
	"time"
)

// childTimeout bounds one pass; the slowest pass takes about 10 s.
const childTimeout = 150 * time.Second

func main() {
	var (
		workloadFlag = flag.String("workload", "", "comma-separated workloads to run (default: all of spray,fleet,loss,churn)")
		seed         = flag.Uint64("seed", 42, "workload seed")
		reps         = flag.Int("reps", 1, "minimum rounds; each round runs every workload once, rotating their order")
		seconds      = flag.Float64("seconds", 0, "keep starting rounds until this many seconds have passed")
		traceFlag    = flag.Int("trace", 0, "1: traced run — per-layer CPU self-time, exact counts, probes and spans")
		traceDir     = flag.String("trace-dir", ".bench_build/trace", "where a traced run writes spans.json")
		jsonOut      = flag.String("json", "", "also write the full report to this file")
		selfcheck    = flag.Bool("selfcheck", false, "run two independent sets of -reps 3 and check that they agree")
		updateGolden = flag.Bool("update-golden", false, "regenerate bench/golden for the golden seeds")
		child        = flag.String("child", "", "internal: run one pass of this workload (or \"probes\") and print it as JSON")
		t0           = flag.Int64("t0", 0, "internal: when the parent started this child, Unix ns")
		profile      = flag.Bool("profile", false, "internal: arm the CPU profiler in the child")
	)
	flag.Parse()

	if *child != "" {
		if err := childMain(*child, *seed, *profile, time.Unix(0, *t0)); err != nil {
			fmt.Fprintln(os.Stderr, "bench child:", err)
			os.Exit(1)
		}
		return
	}

	ws, err := selectWorkloads(*workloadFlag)
	if err == nil && *traceFlag != 0 && *traceFlag != 1 {
		err = fmt.Errorf("-trace must be 0 or 1, got %d", *traceFlag)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	r := &runner{exe: exe, seed: *seed}

	// An interrupt kills the running child and ends the run early; the
	// passes so far are still reported.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	var code int
	switch {
	case *updateGolden:
		code = r.updateGolden(ctx)
	case *selfcheck:
		code = r.selfcheck(ctx, ws)
	default:
		code = r.measure(ctx, ws, *reps, *seconds, *traceFlag == 1, *traceDir, *jsonOut)
	}
	stop()
	os.Exit(code)
}

func selectWorkloads(list string) ([]workload, error) {
	if list == "" || list == "all" {
		return workloads, nil
	}
	var ws []workload
	for _, name := range strings.Split(list, ",") {
		w, err := lookupWorkload(name)
		if err != nil {
			return nil, err
		}
		ws = append(ws, w)
	}
	return ws, nil
}

// probeResult is the probe child's output.
type probeResult struct {
	Metrics map[string]float64 `json:"metrics"`
	Spans   []span             `json:"spans"`
}

// childMain runs in the child process: one pass of a workload, or the
// probes, printed as JSON on standard output.
func childMain(name string, seed uint64, profile bool, t0 time.Time) error {
	var out any
	if name == "probes" {
		m, spans, err := runProbes()
		if err != nil {
			return err
		}
		out = probeResult{m, spans}
	} else {
		w, err := lookupWorkload(name)
		if err != nil {
			return err
		}
		out = runPass(w, seed, profile, t0)
	}
	return json.NewEncoder(os.Stdout).Encode(out)
}

// runner starts child processes and collects their passes.
type runner struct {
	exe   string
	seed  uint64
	spans []span
	tid   int
}

// childEnv is the parent's environment with the collector at its
// default setting and GOMAXPROCS left to the runtime.
func childEnv() []string {
	var env []string
	for _, kv := range os.Environ() {
		k, _, _ := strings.Cut(kv, "=")
		if k != "GOGC" && k != "GOMAXPROCS" && k != "GOMEMLIMIT" {
			env = append(env, kv)
		}
	}
	return append(env, "GOGC=100")
}

// runChild execs the benchmark binary in child mode and decodes its
// JSON output into out, returning the child's peak RSS in MiB.
func (r *runner) runChild(ctx context.Context, out any, args ...string) (float64, time.Time, error) {
	ctx, cancel := context.WithTimeout(ctx, childTimeout)
	defer cancel()
	t0 := time.Now()
	args = append(args, "-seed", strconv.FormatUint(r.seed, 10), "-t0", strconv.FormatInt(t0.UnixNano(), 10))
	cmd := exec.CommandContext(ctx, r.exe, args...)
	cmd.Env = childEnv()
	cmd.Stderr = os.Stderr
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	if err := cmd.Run(); err != nil {
		return 0, t0, fmt.Errorf("child %v: %w", args, err)
	}
	if err := json.Unmarshal(stdout.Bytes(), out); err != nil {
		return 0, t0, fmt.Errorf("child %v output: %w", args, err)
	}
	var rss float64
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		rss = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return rss, t0, nil
}

// pass runs one pass of w in a fresh child.
func (r *runner) pass(ctx context.Context, w workload, traced bool) (passResult, error) {
	args := []string{"-child", w.name}
	if traced {
		args = append(args, "-profile")
	}
	var res passResult
	rss, t0, err := r.runChild(ctx, &res, args...)
	if err != nil {
		return res, err
	}
	res.PeakRSSMiB = rss
	if traced {
		r.tid++
		for i := range res.Spans {
			res.Spans[i].Tid = r.tid
		}
		ws := newSpan(w.name, "workload", t0, time.Now(),
			map[string]any{"seed": r.seed, "wall_s": res.WallS, "setup_s": res.SetupS})
		ws.Tid = r.tid
		r.spans = append(append(r.spans, ws), res.Spans...)
		res.Spans = nil
	}
	return res, nil
}

// workloadRun is every pass of one workload in one invocation.
type workloadRun struct {
	w      workload
	passes []passResult
	errs   []string // passes that produced no result
}

// rounds runs rounds of every workload, rotating their order by one
// each round, until at least reps rounds ran and seconds have passed.
// A traced invocation runs each workload traced and then untraced, so
// the tracing overhead is measured against the same round. A pass that
// produces no result, or an interrupt, ends the rounds.
func (r *runner) rounds(ctx context.Context, ws []workload, reps int, seconds float64, traced bool) []*workloadRun {
	runs := make([]*workloadRun, len(ws))
	for i, w := range ws {
		runs[i] = &workloadRun{w: w}
	}
	kinds := []bool{false}
	if traced {
		kinds = []bool{true, false}
	}
	start := time.Now()
	for round := 0; round < reps || time.Since(start).Seconds() < seconds; round++ {
		for i := range ws {
			run := runs[(i+round)%len(ws)]
			for _, k := range kinds {
				res, err := r.pass(ctx, run.w, k)
				if err != nil {
					fmt.Fprintln(os.Stderr, "bench:", err)
					run.errs = append(run.errs, err.Error())
					return runs
				}
				run.passes = append(run.passes, res)
			}
		}
	}
	return runs
}

// check validates every cell of every pass: no error, the same digest
// in every pass, and the committed digest when golden is non-nil. A
// pass that produced no result counts all its cells as failed.
func (run *workloadRun) check(golden map[string]string) (attempted, failed int, problems []string) {
	ref := map[string]string{}
	for _, p := range run.passes {
		for _, c := range p.Cells {
			attempted++
			key := run.w.name + "/" + c.Name
			var bad string
			switch {
			case c.Err != "":
				bad = c.Err
			case golden != nil && golden[key] != c.Digest:
				bad = "result digest differs from bench/golden"
			case ref[key] != "" && ref[key] != c.Digest:
				bad = "result digest differs between passes"
			}
			if ref[key] == "" {
				ref[key] = c.Digest
			}
			if bad != "" {
				failed++
				problems = append(problems, key+": "+bad)
			}
		}
	}
	n := len(run.w.cells())
	attempted += n * len(run.errs)
	failed += n * len(run.errs)
	problems = append(problems, run.errs...)
	return attempted, failed, problems
}

func (run *workloadRun) selected(traced bool) []*passResult {
	var ps []*passResult
	for i := range run.passes {
		if run.passes[i].Traced == traced {
			ps = append(ps, &run.passes[i])
		}
	}
	return ps
}

// e2e summarizes the end-to-end metrics over the untraced passes.
func (run *workloadRun) e2e() map[string]summary {
	out := map[string]summary{}
	for _, m := range reported {
		var xs []float64
		for _, p := range run.selected(false) {
			xs = append(xs, m.value(p))
		}
		out[m.Name] = summarize(xs)
	}
	return out
}

// layerMetrics are the per-layer metrics: medians over the traced
// passes, exact counts (identical in every pass, or check fails) and
// the probes.
func (run *workloadRun) layerMetrics(probes map[string]float64) map[string]float64 {
	traced, untraced := run.selected(true), run.selected(false)
	med := func(ps []*passResult, f func(p *passResult) float64) float64 {
		var xs []float64
		for _, p := range ps {
			xs = append(xs, f(p))
		}
		return summarize(xs).Median
	}
	out := map[string]float64{}
	for _, l := range selfLayers {
		out[l+".self_s"] = med(traced, func(p *passResult) float64 { return p.SelfS[l] })
	}
	var c counts
	if len(traced) > 0 {
		c = traced[0].Counts
	}
	for name, f := range countMetrics {
		out[name] = float64(f(c))
	}
	out["sim.self_ns_per_event"] = ratio(out["sim.self_s"]*1e9, float64(c.Events))
	out["fabric.self_ns_per_packet"] = ratio(out["fabric.self_s"]*1e9, float64(c.Delivered+c.Dropped))
	wall := func(p *passResult) float64 { return p.WallS }
	out["tracing.wall_inflation"] = ratio(med(traced, wall), med(untraced, wall))
	out["tracing.self_coverage"] = med(traced, func(p *passResult) float64 {
		var sum float64
		for _, s := range p.SelfS {
			sum += s
		}
		return ratio(sum, p.CPUS)
	})
	out["runtime.gc_cycles"] = med(traced, func(p *passResult) float64 { return float64(p.GCCycles) })
	for k, v := range probes {
		out[k] = v
	}
	return out
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// metricValue is one metric in the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// finite replaces a value JSON cannot carry (no passes succeeded) by 0.
func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

// measure is the benchmark proper: run, check, report.
func (r *runner) measure(ctx context.Context, ws []workload, reps int, seconds float64, traced bool, traceDir, jsonOut string) int {
	golden, err := loadGolden(r.seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	runs := r.rounds(ctx, ws, reps, seconds, traced)
	var probes map[string]float64
	if traced {
		var pr probeResult
		if _, _, err := r.runChild(ctx, &pr, "-child", "probes"); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		probes = pr.Metrics
		r.tid++
		for i := range pr.Spans {
			pr.Spans[i].Tid = r.tid
		}
		r.spans = append(r.spans, pr.Spans...)
		if err := writeSpans(traceDir, r.spans); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}

	res := result{Metrics: map[string]metricValue{}}
	rep := report{Meta: newMeta(r.seed, reps, seconds, traced, golden != nil), Workloads: map[string]workloadReport{}}
	tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tmedian\tq1\tq3\tn\t")
	for _, run := range runs {
		attempted, failed, problems := run.check(golden)
		for _, p := range problems {
			fmt.Fprintln(os.Stderr, "bench: FAIL", p)
		}
		res.Attempted += attempted
		res.Failed += failed
		wr := workloadReport{Attempted: attempted, Failed: failed, FailFrac: ratio(float64(failed), float64(attempted)),
			Problems: problems}
		key := func(m string) string {
			if len(runs) > 1 {
				return run.w.name + "." + m
			}
			return m
		}
		if traced {
			wr.Layers = run.layerMetrics(probes)
			for _, m := range perLayer {
				v := wr.Layers[m.Name]
				fmt.Fprintf(tw, "%s\t%s\t%s\t%.6g\t\t\t%d\t\n", run.w.name, m.Name, m.Unit, v, len(run.selected(true)))
				res.Metrics[key(m.Name)] = metricValue{finite(v), m.Unit}
			}
		} else {
			wr.Metrics = run.e2e()
			for _, m := range reported {
				s := wr.Metrics[m.Name]
				fmt.Fprintf(tw, "%s\t%s\t%s\t%.6g\t%.6g\t%.6g\t%d\t\n", run.w.name, m.Name, m.Unit, s.Median, s.Q1, s.Q3, s.N)
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.6g\t\t\t%d\t\n", run.w.name, "fail_frac", "ratio", wr.FailFrac, attempted)
			for _, m := range endToEnd {
				res.Metrics[key(m.Name)] = metricValue{finite(wr.Metrics[m.Name].Median), m.Unit}
			}
		}
		rep.Workloads[run.w.name] = wr
	}
	tw.Flush()
	res.Correct = res.Failed == 0 && res.Attempted > 0
	if traced {
		fmt.Printf("spans: %s\n", traceDir+"/spans.json")
	}
	if jsonOut != "" {
		if err := writeJSON(jsonOut, rep); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Println(string(b))
	if !res.Correct {
		return 1
	}
	return 0
}

// report is the -json output.
type report struct {
	Meta      meta                      `json:"meta"`
	Workloads map[string]workloadReport `json:"workloads"`
}

type meta struct {
	Go         string  `json:"go"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GOGC       int     `json:"gogc"`
	Seed       uint64  `json:"seed"`
	Reps       int     `json:"reps"`
	Seconds    float64 `json:"seconds"`
	Traced     bool    `json:"traced"`
	Golden     bool    `json:"golden_checked"`
}

// newMeta records the run configuration. Children run with GOGC=100
// and the runtime's default GOMAXPROCS, which is the CPU count.
func newMeta(seed uint64, reps int, seconds float64, traced, golden bool) meta {
	return meta{Go: runtime.Version(), NProc: runtime.NumCPU(), GOMAXPROCS: runtime.NumCPU(), GOGC: 100,
		Seed: seed, Reps: reps, Seconds: seconds, Traced: traced, Golden: golden}
}

type workloadReport struct {
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	FailFrac  float64            `json:"fail_frac"`
	Problems  []string           `json:"problems,omitempty"`
	Metrics   map[string]summary `json:"metrics,omitempty"`
	Layers    map[string]float64 `json:"layers,omitempty"`
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// selfcheck runs two independent sets of three rounds and reports, per
// workload and end-to-end metric, whether the two medians agree within
// the metric's bound, and whether every cell's counts and digest are
// identical across both sets.
func (r *runner) selfcheck(ctx context.Context, ws []workload) int {
	sets := [2][]*workloadRun{r.rounds(ctx, ws, 3, 0, false), r.rounds(ctx, ws, 3, 0, false)}
	ok := true
	tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "workload\tmetric\tset A\tset B\tdiff\tbound\tagree\t")
	for i := range ws {
		a, b := sets[0][i], sets[1][i]
		ma, mb := a.e2e(), b.e2e()
		for _, m := range endToEnd {
			x, y := ma[m.Name].Median, mb[m.Name].Median
			diff := math.Abs(y-x) / x
			agree := diff <= m.Bound
			ok = ok && agree
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%.1f%%\t%.0f%%\t%v\t\n", ws[i].name, m.Name, x, y, 100*diff, 100*m.Bound, agree)
		}
		same := sameCells(a, b)
		ok = ok && same
		fmt.Fprintf(tw, "%s\t%s\t\t\t\t\t%v\t\n", ws[i].name, "counts+digests identical", same)
	}
	tw.Flush()
	if !ok {
		return 1
	}
	return 0
}

// sameCells reports whether every pass of both runs has the same cells
// with identical counts and digests and no errors.
func sameCells(a, b *workloadRun) bool {
	if len(a.errs)+len(b.errs) > 0 || len(a.passes) == 0 {
		return false
	}
	ref := a.passes[0].Cells
	for _, p := range append(append([]passResult(nil), a.passes...), b.passes...) {
		if len(p.Cells) != len(ref) {
			return false
		}
		for i, c := range p.Cells {
			if c.Err != "" || c != ref[i] {
				return false
			}
		}
	}
	return true
}

// updateGolden regenerates the golden digests: one pass of every
// workload at each golden seed, all of whose cells must succeed and
// agree with a second pass.
func (r *runner) updateGolden(ctx context.Context) int {
	for _, seed := range goldenSeeds {
		r.seed = seed
		cells := map[string]string{}
		runs := r.rounds(ctx, workloads, 2, 0, false)
		if ctx.Err() != nil {
			return 1
		}
		for _, run := range runs {
			if _, failed, problems := run.check(nil); failed > 0 {
				fmt.Fprintln(os.Stderr, "bench: not updating golden:", strings.Join(problems, "; "))
				return 1
			}
			for _, c := range run.passes[0].Cells {
				cells[run.w.name+"/"+c.Name] = c.Digest
			}
		}
		if err := writeGolden(seed, cells); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		fmt.Printf("wrote %s/%s (%d cells)\n", goldenDir, goldenName(seed), len(cells))
	}
	return 0
}
