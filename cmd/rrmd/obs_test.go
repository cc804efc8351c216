package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"reflect"
	"sync"
	"testing"
	"time"

	"github.com/rankregret/rankregret/internal/dataset"
	"github.com/rankregret/rankregret/internal/engine"
	"github.com/rankregret/rankregret/internal/obs"
	"github.com/rankregret/rankregret/internal/xrand"
)

// scrapeProm fetches GET /metrics and runs it through the strict exposition
// parser, which itself enforces the histogram invariants (cumulative
// non-decreasing buckets, +Inf bucket == _count, _sum/_count present, no
// duplicates, no negative counters). Any violation fails the test.
func scrapeProm(t *testing.T, baseURL string) *obs.Exposition {
	t.Helper()
	resp, err := http.Get(baseURL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != obs.ExpositionContentType {
		t.Fatalf("GET /metrics content type %q, want %q", ct, obs.ExpositionContentType)
	}
	exp, err := obs.ParseExposition(resp.Body)
	if err != nil {
		t.Fatalf("scrape failed validation: %v", err)
	}
	return exp
}

// TestPrometheusScrapeCoherentUnderLoad hammers the daemon with concurrent
// solves while scraping /metrics in parallel: every scrape must parse
// cleanly, carry the core families, and show monotone counters — no torn
// histogram triples, no counter regressions. Run under -race this also
// exercises every instrument's concurrency story.
func TestPrometheusScrapeCoherentUnderLoad(t *testing.T) {
	_, ts := newTestServer(t)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	// Goroutines must not touch t; failures surface through this channel
	// (capacity for one of each kind, later ones dropped).
	errc := make(chan error, 8)
	report := func(err error) {
		select {
		case errc <- err:
		default:
		}
	}
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				// Cycling r keeps the VecSet tier busy (one build, then
				// reuses) while the solution cache sees hits and misses.
				body, _ := json.Marshal(solveRequest{
					Dataset: "nba", R: 5 + (g+i)%4, Algorithm: "hdrrm", MaxSamples: 400,
				})
				resp, err := http.Post(ts.URL+"/v1/solve", "application/json", bytes.NewReader(body))
				if err != nil {
					report(err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}(g)
	}
	// A second scraper so scrapes themselves race each other, not just the
	// solvers.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			resp, err := http.Get(ts.URL + "/metrics")
			if err != nil {
				report(err)
				return
			}
			_, perr := obs.ParseExposition(resp.Body)
			resp.Body.Close()
			if perr != nil {
				report(fmt.Errorf("concurrent scrape failed validation: %w", perr))
				return
			}
		}
	}()

	required := []string{
		"rrmd_solve_duration_seconds",
		"rrmd_solve_stage_duration_seconds",
		"rrmd_queue_wait_seconds",
		"rrmd_run_duration_seconds",
		"rrmd_cache_hits_total",
		"rrmd_cache_misses_total",
		"rrmd_vecset_builds_total",
		"rrmd_jobs_done_total",
		"rrmd_queue_depth",
		"rrmd_wal_fsync_seconds",
		"rrmd_snapshot_cut_seconds",
		"rrmd_store_degraded",
	}
	monotone := []string{
		"rrmd_solve_duration_seconds_count",
		"rrmd_jobs_submitted_total",
		"rrmd_jobs_done_total",
		"rrmd_cache_hits_total",
		"rrmd_cache_misses_total",
	}
	last := map[string]float64{}
	for i := 0; i < 15; i++ {
		exp := scrapeProm(t, ts.URL)
		for _, fam := range required {
			if _, ok := exp.Families[fam]; !ok {
				t.Fatalf("scrape %d: family %q missing", i, fam)
			}
		}
		for _, key := range monotone {
			v, _ := exp.Value(key)
			if v < last[key] {
				t.Fatalf("scrape %d: counter %s went backwards: %v -> %v", i, key, last[key], v)
			}
			last[key] = v
		}
		time.Sleep(5 * time.Millisecond)
	}
	close(stop)
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}

	final := scrapeProm(t, ts.URL)
	if v, _ := final.Value("rrmd_solve_duration_seconds_count"); v == 0 {
		t.Error("no end-to-end solve latency was recorded under load")
	}
	if v, _ := final.Value("rrmd_queue_wait_seconds_count"); v == 0 {
		t.Error("no queue-wait latency was recorded")
	}
	if v, _ := final.Value(`rrmd_solve_stage_duration_seconds_count{stage="solve"}`); v == 0 {
		t.Error("no per-stage solve latency was recorded")
	}
}

// TestJSONMetricsMatchesPrometheus checks the two metrics surfaces render
// the same underlying registry: after the workload quiesces, every counter
// the JSON body reports must equal its Prometheus twin exactly.
func TestJSONMetricsMatchesPrometheus(t *testing.T) {
	_, ts := newTestServer(t)
	for _, r := range []int{6, 7, 6, 7} { // repeats land in the solution cache
		resp, body := postJSON(t, ts.URL+"/v1/solve", solveRequest{Dataset: "nba", R: r, Algorithm: "hdrrm", MaxSamples: 400})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("solve r=%d: status %d: %s", r, resp.StatusCode, body)
		}
	}

	resp, err := http.Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m serverMetrics
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	exp := scrapeProm(t, ts.URL)

	for key, want := range map[string]float64{
		"rrmd_cache_hits_total":     float64(m.Engine.Solutions.Hits),
		"rrmd_cache_misses_total":   float64(m.Engine.Solutions.Misses),
		"rrmd_vecset_builds_total":  float64(m.Engine.VecSets.Builds),
		"rrmd_vecset_reuses_total":  float64(m.Engine.VecSets.Reuses),
		"rrmd_jobs_submitted_total": float64(m.Scheduler.Submitted),
		"rrmd_jobs_done_total":      float64(m.Scheduler.Done),
		"rrmd_datasets":             float64(m.Datasets),
		"rrmd_queue_capacity":       float64(m.Scheduler.QueueCap),
		"rrmd_store_records_total":  float64(m.Store.Records),
	} {
		got, ok := exp.Value(key)
		if !ok {
			t.Errorf("prometheus sample %s missing", key)
			continue
		}
		if got != want {
			t.Errorf("%s = %v on /metrics, %v on /v1/metrics", key, got, want)
		}
	}
}

// TestTraceBreakdown drives a cold HDRRM solve with a caller-chosen request
// id and checks the retained trace: the id round-trips through the response
// header, the span timeline covers queue/cache/build/solve, and the span
// self-times account for the request's end-to-end time (nothing large is
// unattributed).
func TestTraceBreakdown(t *testing.T) {
	srv, ts := newTestServer(t)
	if err := srv.AddDataset(t.Context(), "weather", dataset.SimWeather(xrand.New(1), 4000)); err != nil {
		t.Fatal(err)
	}

	const reqID = "trace-breakdown-test"
	body, err := json.Marshal(solveRequest{Dataset: "weather", R: 8, Algorithm: "hdrrm", MaxSamples: 2000})
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/solve", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Request-Id", reqID)
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("solve status %d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Request-Id"); got != reqID {
		t.Errorf("response X-Request-Id = %q, want %q", got, reqID)
	}

	tResp, err := http.Get(ts.URL + "/v1/trace/" + reqID)
	if err != nil {
		t.Fatal(err)
	}
	defer tResp.Body.Close()
	if tResp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/trace/%s status %d", reqID, tResp.StatusCode)
	}
	var snap obs.TraceSnapshot
	if err := json.NewDecoder(tResp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if snap.ID != reqID || !snap.Finished || snap.TotalMS <= 0 {
		t.Fatalf("trace snapshot = %+v, want finished with positive total", snap)
	}
	seen := map[string]bool{}
	var sumSelf float64
	for _, sp := range snap.Spans {
		seen[sp.Name] = true
		sumSelf += sp.SelfMS
	}
	for _, want := range []string{"queue", "cache", "build", "solve"} {
		if !seen[want] {
			t.Errorf("trace has no %q span (spans: %+v)", want, snap.Spans)
		}
	}
	if sumSelf > snap.TotalMS*1.02 {
		t.Errorf("span self-times sum to %.3fms, more than the e2e %.3fms", sumSelf, snap.TotalMS)
	}
	// Attribution only has to be tight when there is real work to attribute;
	// a fast solve is dominated by constant HTTP overhead.
	if snap.TotalMS >= 20 && sumSelf < snap.TotalMS*0.7 {
		t.Errorf("spans attribute only %.3fms of %.3fms e2e (want >= 70%%): %+v", sumSelf, snap.TotalMS, snap.Spans)
	}

	// The ring lists it, and unknown ids are a clean 404.
	lResp, err := http.Get(ts.URL + "/v1/traces?n=50")
	if err != nil {
		t.Fatal(err)
	}
	defer lResp.Body.Close()
	var list struct {
		Traces []obs.TraceSnapshot `json:"traces"`
	}
	if err := json.NewDecoder(lResp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, tr := range list.Traces {
		if tr.ID == reqID {
			found = true
		}
	}
	if !found {
		t.Errorf("GET /v1/traces does not list %s", reqID)
	}
	nResp, err := http.Get(ts.URL + "/v1/trace/no-such-id")
	if err != nil {
		t.Fatal(err)
	}
	nResp.Body.Close()
	if nResp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown trace id status %d, want 404", nResp.StatusCode)
	}
}

// TestSolveBitIdenticalWithTracing runs the same request on an
// uninstrumented engine and on an instrumented one under an active trace:
// the solutions must be deeply equal — observability must never perturb
// solver output.
func TestSolveBitIdenticalWithTracing(t *testing.T) {
	ds := dataset.SimNBA(xrand.New(1), 600)
	req := engine.Request{
		Dataset:   ds,
		RK:        7,
		Algorithm: "hdrrm",
		Opts:      engine.Options{Seed: 1, MaxSamples: 800},
	}

	plain := engine.New(0)
	want, err := req.Run(context.Background(), plain)
	if err != nil {
		t.Fatal(err)
	}

	instr := engine.New(0)
	instr.Instrument(obs.NewRegistry())
	tr := obs.NewTrace("bit-identical")
	got, err := req.Run(obs.WithTrace(context.Background(), tr), instr)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("instrumented solve = %+v, uninstrumented = %+v", got, want)
	}
	if tr.SpanCount() == 0 {
		t.Error("the instrumented run recorded no spans")
	}
}

// TestHealthSingleSnapshot pins the /healthz shape: one metrics snapshot
// carries the cache counters, and no second cache digest sits beside it.
func TestHealthSingleSnapshot(t *testing.T) {
	_, ts := newTestServer(t)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}
	var hz struct {
		OK      bool             `json:"ok"`
		State   string           `json:"state"`
		Cache   *json.RawMessage `json:"cache"`
		Metrics struct {
			Engine struct {
				Solutions json.RawMessage `json:"solutions"`
			} `json:"engine"`
		} `json:"metrics"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&hz); err != nil {
		t.Fatal(err)
	}
	if !hz.OK || hz.State != "healthy" {
		t.Fatalf("healthz = ok=%v state=%q, want healthy", hz.OK, hz.State)
	}
	if hz.Cache != nil {
		t.Errorf("healthz carries a cache digest %s beside its metrics body", *hz.Cache)
	}
	if len(hz.Metrics.Engine.Solutions) == 0 {
		t.Error("healthz metrics body has no engine.solutions block")
	}
}
