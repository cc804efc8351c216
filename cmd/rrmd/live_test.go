package main

import (
	"os"
	"sort"
	"strings"
	"testing"
	"time"
)

// TestLiveSteady and TestLiveBurst drive an rrmd running elsewhere (as
// scripts/serving_smoke.sh starts one) with the serving smoke's two fixed
// scenarios and write the load report as JSON. Their only inputs are where
// the daemon listens and where the report goes (a relative report path is
// resolved against the package directory, where go test runs the binary):
//
//	RRMD_LOAD_URL=http://127.0.0.1:18081 RRMD_LOAD_REPORT=$PWD/BENCH_serving_steady.json \
//	    go test -count=1 -v -run '^TestLiveSteady$' ./cmd/rrmd
//
// Without RRMD_LOAD_URL they skip. The traffic is fixed (seed 7) and spread
// over every dataset the daemon serves, so running one entry point against
// two daemons holding the same datasets replays the same request sequence:
// an A/B comparison of two builds or two flag settings.
const (
	liveSeed = 7
	// liveTimeout is the client-side guard on each request.
	liveTimeout = 15 * time.Second
	// liveMaxSamples bounds the per-solve sampling cost, so the run
	// measures the serving path on any machine.
	liveMaxSamples = 400
)

func TestLiveSteady(t *testing.T) {
	runLive(t, loadConfig{Scenario: scenarioSteady, Rate: 15, Duration: 15 * time.Second})
}

func TestLiveBurst(t *testing.T) {
	runLive(t, loadConfig{
		Scenario:    scenarioBurst,
		Rate:        8,
		BurstRate:   120,
		BurstPeriod: 3 * time.Second,
		Duration:    10 * time.Second,
	})
}

// runLive targets every dataset the daemon lists, with the solve-budget
// floor the largest dimensionality among them (the HDRRM family needs
// r >= d), runs cfg's trace against it, and saves the report to
// RRMD_LOAD_REPORT when set.
func runLive(t *testing.T, cfg loadConfig) {
	base := strings.TrimRight(os.Getenv("RRMD_LOAD_URL"), "/")
	if base == "" {
		t.Skip("RRMD_LOAD_URL is not set: no live rrmd to drive")
	}
	dims, err := listDatasets(t.Context(), base)
	if err != nil {
		t.Fatal(err)
	}
	for name, d := range dims {
		cfg.Datasets = append(cfg.Datasets, name)
		cfg.RMin = max(cfg.RMin, d)
	}
	if len(cfg.Datasets) == 0 {
		t.Fatalf("server %s has no datasets; load one or start rrmd -demo", base)
	}
	sort.Strings(cfg.Datasets)
	cfg.Seed = liveSeed
	tr, err := generateTrace(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := runLoad(t.Context(), tr, loadRunConfig{
		BaseURL:        base,
		RequestTimeout: liveTimeout,
		MaxSamples:     liveMaxSamples,
		Logf:           t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%d events over %v: ok=%d rejected=%d errors=%d (unexpected 5xx: %d), %.1f req/s",
		len(tr.Events), tr.Datasets, rep.OK, rep.Rejected, rep.Errors, rep.Unexpected5xx, rep.ThroughputRPS)
	if path := os.Getenv("RRMD_LOAD_REPORT"); path != "" {
		if err := rep.save(path); err != nil {
			t.Fatal(err)
		}
	}
}
