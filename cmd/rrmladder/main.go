// Command rrmladder is the repository's performance benchmark. It runs four
// workloads — cold, sweep, serve-hit, serve-mixed — against the solver
// packages in process and against the rrmd daemon on loopback, checks every
// answer against an oracle, and prints every end-to-end metric with its
// unit. With -trace 1 it re-runs the workload traced and climbs the ladder:
// each layer (kernel, VecSet build, solver, engine, store) timed alone, and
// the workload's latency split into the spans the program records.
//
//	cmd/rrmladder/run.sh -workload all -seed 1
//	cmd/rrmladder/run.sh -workload serve-hit -seed 2 -trace 1
//	cmd/rrmladder/run.sh -compare parentResults changeResults
//
// run.sh builds rrmladder and rrmd from the checkout it is run in; see
// README.md. The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}, where metrics are the
// end-to-end set of BENCHMARK.json, or its per-layer set with -trace 1.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"time"
)

// config is one run's settings.
type config struct {
	seed      int64
	window    time.Duration
	scale     scale
	trace     bool
	rrmd      string // rrmd binary, for the serving workloads
	workers   int    // parallel workers of the ladder's VecSet build: nproc
	setupReps int    // 0 = the workload's own count
	probe     *probe
}

// outcome is what a workload produced, before it becomes metrics.
type outcome struct {
	setupS     float64   // median set-up, as measured
	setupProbe []float64 // host probe slices run after the set-ups
	untraced   *window
	traced     *window // -trace 1 only
	extraOps   int     // answers checked outside the windows (warm-up, post-window oracles)
	extraWrong []string
	rrmdFlags  [][]string
}

// windows returns the timed windows the outcome holds.
func (o *outcome) windows() []*window {
	var out []*window
	for _, w := range []*window{o.untraced, o.traced} {
		if w != nil {
			out = append(out, w)
		}
	}
	return out
}

// workloads lists the benchmark's workloads with how many times each run
// sets up (setup_s is the median): in process set-up takes ten to twenty
// milliseconds (cold), too short for five set-ups to give a steady median,
// to half a second (sweep); a daemon's about three seconds.
var workloads = []struct {
	name      string
	setupReps int
	run       func(context.Context, config) (*outcome, error)
}{
	{"cold", 15, func(ctx context.Context, cfg config) (*outcome, error) { return runInproc(ctx, cfg, false) }},
	{"sweep", 5, func(ctx context.Context, cfg config) (*outcome, error) { return runInproc(ctx, cfg, true) }},
	{"serve-hit", 3, func(ctx context.Context, cfg config) (*outcome, error) { return runServe(ctx, cfg, false) }},
	{"serve-mixed", 3, func(ctx context.Context, cfg config) (*outcome, error) { return runServe(ctx, cfg, true) }},
}

// stamp records what a result was measured on and with.
type stamp struct {
	Workload   string     `json:"workload"`
	Seed       int64      `json:"seed"`
	Trace      bool       `json:"trace"`
	WindowS    float64    `json:"window_s"`
	SetupReps  int        `json:"setup_reps"`
	Nproc      int        `json:"nproc"`
	GOMAXPROCS int        `json:"gomaxprocs"`
	GoVersion  string     `json:"go_version"`
	CPU        string     `json:"cpu"`
	RRMDFlags  [][]string `json:"rrmd_flags,omitempty"`
	Start      time.Time  `json:"start"`
}

// result is one run's output; the result file holds all of it, the last
// stdout line the part BENCHMARK.json names.
type result struct {
	Stamp      stamp     `json:"stamp"`
	Correct    bool      `json:"correct"`
	Attempted  int       `json:"attempted"`
	Failed     int       `json:"failed"`
	Metrics    metrics   `json:"metrics"`
	Report     metrics   `json:"report"`
	Accounting []acctRow `json:"accounting,omitempty"`
	Wrong      []string  `json:"wrong,omitempty"`
}

// benchSpec is BENCHMARK.json: the metric names, units, directions, and
// bounds this program reports and compares by.
type benchSpec struct {
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadSpec `json:"workloads"`
	EndToEnd   []metricSpec   `json:"end_to_end"`
	PerLayer   []metricSpec   `json:"per_layer"`
}

type workloadSpec struct {
	Name string `json:"name"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadSpec(path string) (*benchSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

func main() {
	if os.Getenv(probeEnv) == "1" {
		if err := probeChild(os.Stdin, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "rrmladder: host probe:", err)
			os.Exit(2)
		}
		return
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		s := <-sig
		fmt.Fprintln(os.Stderr, "rrmladder: stopping on", s)
		reapAll()
		os.Exit(130)
	}()
	code := run(os.Args[1:])
	reapAll()
	os.Exit(code)
}

func run(args []string) int {
	fs := flag.NewFlagSet("rrmladder", flag.ContinueOnError)
	var (
		name     = fs.String("workload", "all", "cold, sweep, serve-hit, serve-mixed, or all")
		seed     = fs.Int64("seed", 1, "seed for the order of operations, the arrival schedule, the request keys, and the appended rows")
		seconds  = fs.Int("seconds", 0, "length of each timed window in seconds; it is run_seconds of the spec, which a value given here must repeat")
		trace    = fs.Int("trace", 0, "1 = re-run traced and climb the ladder, reporting the per-layer metrics")
		specPath = fs.String("spec", "BENCHMARK.json", "benchmark spec naming the metrics to report")
		rrmd     = fs.String("rrmd", ".bench_build/rrmladder/rrmd", "rrmd binary the serving workloads start")
		outDir   = fs.String("out-dir", ".bench_build/rrmladder/results", "directory each run's result file is written to (empty = none)")
		compare  = fs.Bool("compare", false, "compare result files: -compare parentDir changeDir")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	spec, err := loadSpec(*specPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rrmladder:", err)
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "rrmladder: -compare needs parentDir and changeDir")
			return 2
		}
		return compareDirs(os.Stdout, spec, fs.Arg(0), fs.Arg(1))
	}
	// The spec fixes the window so that every result file compares with
	// every other; the benchmark's command line repeats it.
	if *seconds != 0 && *seconds != spec.RunSeconds {
		fmt.Fprintf(os.Stderr, "rrmladder: -seconds %d, but %s fixes run_seconds at %d\n", *seconds, *specPath, spec.RunSeconds)
		return 2
	}
	var names []string
	for _, w := range workloads {
		if *name == "all" || *name == w.name {
			names = append(names, w.name)
		}
	}
	if len(names) == 0 {
		fmt.Fprintf(os.Stderr, "rrmladder: unknown workload %q\n", *name)
		return 2
	}
	p, err := startProbe()
	if err != nil {
		fmt.Fprintln(os.Stderr, "rrmladder:", err)
		return 2
	}
	defer p.close()
	ctx := context.Background()
	cfg := config{
		seed: *seed, window: time.Duration(spec.RunSeconds) * time.Second, scale: ciScale, trace: *trace == 1,
		rrmd: *rrmd, workers: runtime.NumCPU(), probe: p,
	}
	rungs := onceLadder(ctx, cfg)

	summary := map[string]any{"correct": true, "attempted": 0, "failed": 0}
	all := metrics{}
	code := 0
	for _, n := range names {
		res, err := runWorkload(ctx, cfg, spec, n, rungs)
		if err != nil {
			fmt.Fprintf(os.Stderr, "rrmladder: %s: %v\n", n, err)
			return 2
		}
		printResult(os.Stdout, res)
		if *outDir != "" {
			if err := writeResult(*outDir, res); err != nil {
				fmt.Fprintln(os.Stderr, "rrmladder:", err)
				return 2
			}
		}
		if !res.Correct {
			code = 1
		}
		summary["correct"] = summary["correct"].(bool) && res.Correct
		summary["attempted"] = summary["attempted"].(int) + res.Attempted
		summary["failed"] = summary["failed"].(int) + res.Failed
		var ladder metrics
		if cfg.trace {
			ladder, _ = rungs() // it succeeded, or runWorkload would have failed
		}
		for k, v := range res.Metrics {
			switch _, rung := ladder[k]; {
			case len(names) == 1:
			case rung:
				k = "ladder/" + k
			default:
				k = n + "/" + k
			}
			all[k] = v
		}
	}
	summary["metrics"] = all
	line, err := json.Marshal(summary)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rrmladder:", err)
		return 2
	}
	fmt.Println(string(line))
	return code
}

// onceLadder runs the ladder on its first call and returns the same rung
// metrics on every later one: the rungs depend on the run's scale, seed and
// connection count, not on the workload, so a traced run of every workload
// climbs it once.
func onceLadder(ctx context.Context, cfg config) func() (metrics, error) {
	return sync.OnceValues(func() (metrics, error) {
		m := metrics{}
		return m, runLadder(ctx, cfg, m)
	})
}

// runWorkload runs one workload and turns its outcome into a result; a
// traced run adds the ladder's rung metrics from rungs.
func runWorkload(ctx context.Context, cfg config, spec *benchSpec, name string, rungs func() (metrics, error)) (*result, error) {
	start := time.Now()
	var o *outcome
	var err error
	for _, w := range workloads {
		if w.name == name {
			if cfg.setupReps == 0 {
				cfg.setupReps = w.setupReps
			}
			o, err = w.run(ctx, cfg)
		}
	}
	if err == nil {
		err = cfg.probe.err
	}
	if err != nil {
		return nil, err
	}
	res := &result{
		Stamp: stamp{
			Workload: name, Seed: cfg.seed, Trace: cfg.trace, WindowS: cfg.window.Seconds(),
			SetupReps: cfg.setupReps, Nproc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
			GoVersion: runtime.Version(), CPU: cpuModel(), RRMDFlags: o.rrmdFlags, Start: start,
		},
		Report: metrics{},
	}
	res.Wrong = append(res.Wrong, o.extraWrong...)
	res.Attempted = o.extraOps
	res.Failed = len(o.extraWrong)
	for _, w := range o.windows() {
		res.Wrong = append(res.Wrong, w.wrong...)
		res.Attempted += len(w.samples)
		for _, s := range w.samples {
			if !s.ok {
				res.Failed++
			}
		}
	}
	res.Correct = len(res.Wrong) == 0

	e2e, err := o.untraced.endToEnd()
	if err != nil {
		return nil, err
	}
	ks, err := probeScale(o.setupProbe)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	e2e.set("setup_s", o.setupS*ks, "s")
	e2e.set("raw.setup_s", o.setupS, "s")
	e2e.set("host.setup_probe_ms", median(o.setupProbe), "ms")
	want := spec.EndToEnd
	measured := e2e
	if cfg.trace {
		if measured, err = layers(o.untraced, o.traced); err != nil {
			return nil, err
		}
		ladder, err := rungs()
		if err != nil {
			return nil, fmt.Errorf("ladder: %w", err)
		}
		measured.merge("", ladder)
		res.Report.merge("", e2e)
		traced, err := o.traced.endToEnd()
		if err != nil {
			return nil, err
		}
		res.Report.merge("traced.", traced)
		res.Report.merge("", spanTable(o.traced.traces))
		res.Accounting = accounting(o.traced.traces)
		want = spec.PerLayer
	}
	if res.Metrics, err = pick(measured, want, res.Report); err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	return res, nil
}

// pick moves the metrics the spec lists from measured into the result,
// and the rest into report. A listed metric that was not measured, has the
// wrong unit, or is not a number is an error: the spec and the program
// must agree.
func pick(measured metrics, want []metricSpec, report metrics) (metrics, error) {
	out := metrics{}
	listed := map[string]bool{}
	for _, ms := range want {
		listed[ms.Name] = true
		v, ok := measured[ms.Name]
		switch {
		case !ok:
			return nil, fmt.Errorf("metric %s was not measured", ms.Name)
		case v.Unit != ms.Unit:
			return nil, fmt.Errorf("metric %s measured in %s, spec says %s", ms.Name, v.Unit, ms.Unit)
		case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
			return nil, fmt.Errorf("metric %s is %v", ms.Name, v.Value)
		}
		out[ms.Name] = v
	}
	for k, v := range measured {
		if !listed[k] {
			report.merge("", metrics{k: v})
		}
	}
	return out, nil
}

// spanTable summarizes each span's self time over a traced window.
func spanTable(traces []tracedOp) metrics {
	self := map[string][]float64{}
	for _, t := range traces {
		for _, sp := range t.snap.Spans {
			self[sp.Name] = append(self[sp.Name], sp.SelfMS)
		}
	}
	m := metrics{}
	for name, xs := range self {
		m.set("span."+name+".count", float64(len(xs)), "count")
		m.set("span."+name+".p50_ms", median(xs), "ms")
		m.set("span."+name+".p99_ms", percentile(xs, 99), "ms")
	}
	return m
}

func printResult(w io.Writer, res *result) {
	st := res.Stamp
	fmt.Fprintf(w, "== %s seed=%d trace=%v window=%gs setup_reps=%d nproc=%d gomaxprocs=%d %s cpu=%q\n",
		st.Workload, st.Seed, st.Trace, st.WindowS, st.SetupReps, st.Nproc, st.GOMAXPROCS, st.GoVersion, st.CPU)
	for _, f := range st.RRMDFlags {
		fmt.Fprintf(w, "   rrmd %s\n", strings.Join(f, " "))
	}
	for _, k := range sortedKeys(res.Metrics) {
		fmt.Fprintf(w, "   %-44s %14.6g %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
	for _, row := range res.Accounting {
		fmt.Fprintf(w, "   accounting %s\n", row)
	}
	fmt.Fprintf(w, "   correct=%v attempted=%d failed=%d\n", res.Correct, res.Attempted, res.Failed)
	for i, s := range res.Wrong {
		if i == 10 {
			fmt.Fprintf(w, "   ... and %d more wrong answers\n", len(res.Wrong)-i)
			break
		}
		fmt.Fprintf(w, "   WRONG %s\n", s)
	}
}

func writeResult(dir string, res *result) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	st := res.Stamp
	trace := 0
	if st.Trace {
		trace = 1
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d-%d.json", st.Workload, st.Seed, trace, st.Start.UnixNano()))
	b, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// cpuModel is the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
