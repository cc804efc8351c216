// Command rrmload is an open-loop load generator for rrmd. It expands a
// seeded scenario (steady Poisson or bursty arrivals; a configurable mix of
// solves, parameter sweeps, dataset mutations, and pinned-version solves
// over one or more datasets) into a deterministic trace, fires the trace at
// a live daemon without waiting for completions, and writes a serving
// report — latency percentiles, throughput, reject/error rates, and a
// queue-depth / cache-hit timeline — to BENCH_serving.json.
//
//	rrmload -url http://127.0.0.1:8080 -scenario steady -rate 50 -duration 20s
//	rrmload -url ... -scenario burst -rate 20 -burst-rate 200 -out BENCH_serving.json
//	rrmload -url ... -save-trace trace.json          # record the schedule
//	rrmload -url ... -trace trace.json               # replay it exactly
//
// Traces are deterministic in the seed: two runs with the same flags offer
// byte-identical request sequences, so A/B comparisons (e.g. two rrmd
// builds, or two -workers settings) see the same workload.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"github.com/rankregret/rankregret/internal/loadgen"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "rrmload:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("rrmload", flag.ContinueOnError)
	var (
		url       = fs.String("url", "http://127.0.0.1:8080", "rrmd base URL")
		scenario  = fs.String("scenario", loadgen.ScenarioSteady, "arrival scenario: steady (flat Poisson) or burst (calm/burst phases)")
		duration  = fs.Duration("duration", 20*time.Second, "offered-load window")
		rate      = fs.Float64("rate", 20, "mean request rate in req/s (burst: the calm-phase rate)")
		burstRate = fs.Float64("burst-rate", 0, "burst-phase rate in req/s (0 = 5x -rate)")
		burstPer  = fs.Duration("burst-period", 5*time.Second, "burst scenario phase period")
		burstLen  = fs.Duration("burst-len", time.Second, "burst length within each period")
		seed      = fs.Int64("seed", 1, "trace seed; same seed + flags = identical request sequence")
		datasets  = fs.String("datasets", "", "comma-separated dataset names to target (empty = every dataset the server lists)")
		mix       = fs.String("mix", "", "request mix as kind=weight pairs, e.g. solve=0.7,sweep=0.1,mutate=0.1,pinned=0.1 (empty = that default)")
		rMax      = fs.Int("r-max", 7, "solve budgets r are drawn from [2, r-max]")
		sweepW    = fs.Int("sweep-width", 4, "r values per sweep batch")
		mutRows   = fs.Int("mutate-rows", 8, "rows appended per mutation")
		timeout   = fs.Duration("timeout", 30*time.Second, "client-side per-request guard timeout")
		maxSamp   = fs.Int("max-samples", 0, "max_samples bound attached to every solve (0 = server default); size the per-solve cost to the machine")
		sampleEv  = fs.Duration("sample-every", 500*time.Millisecond, "metrics timeline sampling interval (negative = no timeline)")
		out       = fs.String("out", "BENCH_serving.json", "report output path (empty = stdout summary only)")
		traceIn   = fs.String("trace", "", "replay this trace file instead of generating one")
		traceOut  = fs.String("save-trace", "", "also save the (generated or replayed) trace here")
		dryRun    = fs.Bool("dry-run", false, "generate (and optionally save) the trace, print its shape, and exit without sending traffic")
	)
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return nil
		}
		return err
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var trace *loadgen.Trace
	var err error
	if *traceIn != "" {
		if trace, err = loadgen.LoadTrace(*traceIn); err != nil {
			return err
		}
	} else {
		cfg := loadgen.Config{
			Scenario:    *scenario,
			Seed:        *seed,
			Duration:    *duration,
			Rate:        *rate,
			BurstRate:   *burstRate,
			BurstPeriod: *burstPer,
			BurstLen:    *burstLen,
			RMax:        *rMax,
			SweepWidth:  *sweepW,
			MutateRows:  *mutRows,
		}
		if cfg.Mix, err = parseMix(*mix); err != nil {
			return err
		}
		if cfg.Datasets, cfg.RMin, err = targetDatasets(ctx, *url, *datasets); err != nil {
			return err
		}
		if trace, err = loadgen.Generate(cfg); err != nil {
			return err
		}
	}
	if *traceOut != "" {
		if err := trace.Save(*traceOut); err != nil {
			return err
		}
		fmt.Printf("trace saved to %s\n", *traceOut)
	}
	fmt.Printf("trace: scenario=%s seed=%d events=%d datasets=%v window=%.1fs\n",
		trace.Scenario, trace.Seed, len(trace.Events), trace.Datasets, trace.DurationMS/1000)
	if *dryRun {
		return nil
	}

	rep, err := loadgen.Run(ctx, trace, loadgen.RunConfig{
		BaseURL:        strings.TrimRight(*url, "/"),
		RequestTimeout: *timeout,
		SampleEvery:    *sampleEv,
		MaxSamples:     *maxSamp,
	})
	if err != nil {
		return err
	}
	if *out != "" {
		if err := rep.Save(*out); err != nil {
			return err
		}
	}
	printSummary(rep, *out)
	printSLO(strings.TrimRight(*url, "/"))
	return nil
}

// printSLO fetches GET /v1/slo after the run and summarizes each objective:
// how the offered load landed against the declared budgets. Daemons without
// /v1/slo return 404; that is not a run failure.
func printSLO(baseURL string) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, baseURL+"/v1/slo", nil)
	if err != nil {
		return
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return
	}
	var body struct {
		Objectives []struct {
			Name          string  `json:"name"`
			Spec          string  `json:"spec"`
			Compliance    float64 `json:"compliance"`
			Budget        float64 `json:"error_budget_remaining"`
			BurnFast      float64 `json:"burn_rate_fast"`
			BurnSlow      float64 `json:"burn_rate_slow"`
			FastBurnAlarm bool    `json:"fast_burn_alarm"`
		} `json:"objectives"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil || len(body.Objectives) == 0 {
		return
	}
	fmt.Println("slo:")
	for _, o := range body.Objectives {
		alarm := ""
		if o.FastBurnAlarm {
			alarm = "   FAST-BURN ALARM"
		}
		fmt.Printf("  %-12s %-24s compliance=%.4f budget=%+.2f burn fast=%.1fx slow=%.1fx%s\n",
			o.Name, o.Spec, o.Compliance, o.Budget, o.BurnFast, o.BurnSlow, alarm)
	}
}

// parseMix parses "solve=0.7,sweep=0.1,..." into a Mix; empty means the
// package default.
func parseMix(s string) (loadgen.Mix, error) {
	var m loadgen.Mix
	if s == "" {
		return m, nil // Generate substitutes DefaultMix for the zero value
	}
	for _, part := range strings.Split(s, ",") {
		k, v, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return m, fmt.Errorf("bad -mix entry %q (want kind=weight)", part)
		}
		w, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return m, fmt.Errorf("bad -mix weight %q: %w", part, err)
		}
		switch k {
		case "solve":
			m.Solve = w
		case "sweep":
			m.Sweep = w
		case "mutate":
			m.Mutate = w
		case "pinned":
			m.Pinned = w
		default:
			return m, fmt.Errorf("unknown -mix kind %q (want solve, sweep, mutate, or pinned)", k)
		}
	}
	return m, nil
}

// targetDatasets resolves -datasets (an explicit list, or everything the
// server has when the flag is empty) and returns the solve-budget floor the
// trace must respect: the HDRRM family needs r >= d, so rMin is the largest
// dimensionality among the targeted datasets.
func targetDatasets(ctx context.Context, baseURL, flagVal string) (names []string, rMin int, err error) {
	dims, err := loadgen.DiscoverDatasets(ctx, baseURL)
	if err != nil {
		return nil, 0, err
	}
	if flagVal != "" {
		for _, n := range strings.Split(flagVal, ",") {
			if n = strings.TrimSpace(n); n != "" {
				names = append(names, n)
			}
		}
	} else {
		for n := range dims {
			names = append(names, n)
		}
		sort.Strings(names)
	}
	if len(names) == 0 {
		return nil, 0, fmt.Errorf("server %s has no datasets; load one or start rrmd -demo", baseURL)
	}
	for _, n := range names {
		d, ok := dims[n]
		if !ok {
			return nil, 0, fmt.Errorf("server %s has no dataset %q", baseURL, n)
		}
		if d > rMin {
			rMin = d
		}
	}
	return names, rMin, nil
}

func printSummary(rep *loadgen.Report, outPath string) {
	fmt.Printf("run: wall=%.1fs offered=%d ok=%d rejected=%d errors=%d (unexpected 5xx: %d)\n",
		rep.DurationMS/1000, rep.Offered, rep.OK, rep.Rejected, rep.Errors, rep.Unexpected5xx)
	fmt.Printf("throughput: %.1f req/s   reject rate: %.1f%%   error rate: %.1f%%\n",
		rep.ThroughputRPS, 100*rep.RejectRate, 100*rep.ErrorRate)
	fmt.Printf("latency (ok): p50=%.1fms p95=%.1fms p99=%.1fms max=%.1fms\n",
		rep.Latency.P50, rep.Latency.P95, rep.Latency.P99, rep.Latency.Max)
	if rep.Rejected > 0 {
		fmt.Printf("rejects by cause: queue(429)=%d degraded(503)=%d drain(503)=%d\n",
			rep.RejectedQueue, rep.RejectedDegraded, rep.RejectedDrain)
		fmt.Printf("latency (rejects): p50=%.1fms p99=%.1fms — sheds should be fast\n",
			rep.RejectLatency.P50, rep.RejectLatency.P99)
	}
	if rep.BatchItemsAccepted+rep.BatchItemsRejected > 0 {
		fmt.Printf("sweep items: %d accepted, %d rejected\n", rep.BatchItemsAccepted, rep.BatchItemsRejected)
	}
	for kind, kr := range rep.PerKind {
		fmt.Printf("  %-6s offered=%d ok=%d rejected=%d (q=%d deg=%d drain=%d) errors=%d p50=%.1fms p99=%.1fms\n",
			kind, kr.Offered, kr.OK, kr.Rejected, kr.RejectedQueue, kr.RejectedDegraded, kr.RejectedDrain,
			kr.Errors, kr.Latency.P50, kr.Latency.P99)
	}
	if outPath != "" {
		fmt.Printf("report written to %s\n", outPath)
	}
}
