package main

import (
	"bytes"
	"context"
	"encoding/json"
	"log/slog"
	"math"
	"net/http"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/rankregret/rankregret/internal/dataset"
	"github.com/rankregret/rankregret/internal/engine"
	"github.com/rankregret/rankregret/internal/obs"
	"github.com/rankregret/rankregret/internal/obs/slo"
)

// slowSolver is a registered solver with a fixed latency floor, so SLO tests
// can make every solve deterministically "bad" against a 1ms threshold.
type slowSolver struct{}

func (slowSolver) Name() string { return "test-slow" }

func (slowSolver) Solve(ctx context.Context, ds *dataset.Dataset, r int, opts engine.Options) (*engine.Solution, error) {
	select {
	case <-time.After(20 * time.Millisecond):
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	return &engine.Solution{IDs: []int{0}, Algorithm: "test-slow"}, nil
}

func init() { engine.Register(slowSolver{}) }

// quiet is the logger of test servers whose log output nothing reads.
var quiet = slog.New(slog.DiscardHandler)

// sloStatuses fetches and decodes GET /v1/slo.
func sloStatuses(t *testing.T, baseURL string) []slo.Status {
	t.Helper()
	resp, err := http.Get(baseURL + "/v1/slo")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/slo status %d", resp.StatusCode)
	}
	var body struct {
		Objectives []slo.Status `json:"objectives"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	return body.Objectives
}

// TestSLOEndpointAgreesWithPrometheus pins the two SLO surfaces to one
// evaluation path: after traffic quiesces, the /v1/slo JSON and the
// rrmd_slo_* gauge series must agree value-for-value, because both reads run
// Eval over the same histograms.
func TestSLOEndpointAgreesWithPrometheus(t *testing.T) {
	_, ts := newTestServerWith(t, Config{Logger: quiet})

	// Some solve traffic (repeats land in the cache) — then quiesce.
	for _, r := range []int{5, 6, 5, 6} {
		resp, body := postJSON(t, ts.URL+"/v1/solve", solveRequest{Dataset: "island", R: r})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("solve r=%d: status %d: %s", r, resp.StatusCode, body)
		}
	}

	statuses := sloStatuses(t, ts.URL)
	if len(statuses) != 3 {
		t.Fatalf("default objectives = %d, want 3 (solve, mutate, scrape)", len(statuses))
	}
	exp := scrapeProm(t, ts.URL)
	for _, s := range statuses {
		series := func(fam string) float64 {
			v, ok := exp.Value(fam + `{objective="` + s.Name + `"}`)
			if !ok {
				t.Fatalf("scrape missing %s for objective %s", fam, s.Name)
			}
			return v
		}
		for fam, want := range map[string]float64{
			"rrmd_slo_target":                 s.Target,
			"rrmd_slo_compliance":             s.Compliance,
			"rrmd_slo_error_budget_remaining": s.ErrorBudgetRemaining,
			"rrmd_slo_burn_rate_fast":         s.BurnRateFast,
			"rrmd_slo_burn_rate_slow":         s.BurnRateSlow,
		} {
			if got := series(fam); math.Abs(got-want) > 1e-9 {
				t.Errorf("objective %s: %s = %v on /metrics, %v on /v1/slo", s.Name, fam, got, want)
			}
		}
		wantAlarm := 0.0
		if s.FastBurnAlarm {
			wantAlarm = 1
		}
		if got := series("rrmd_slo_fast_burn_alarm"); got != wantAlarm {
			t.Errorf("objective %s: alarm gauge %v, JSON %v", s.Name, got, s.FastBurnAlarm)
		}
	}
	// The solve objective actually saw the traffic.
	for _, s := range statuses {
		if s.Source == "solve" && s.Windows[0].Total == 0 {
			t.Errorf("solve objective saw no events: %+v", s)
		}
	}

	// /healthz carries the same engine's summary.
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var hz struct {
		SLO struct {
			OK         bool `json:"ok"`
			Objectives []struct {
				Name string `json:"name"`
			} `json:"objectives"`
		} `json:"slo"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&hz); err != nil {
		t.Fatal(err)
	}
	if !hz.SLO.OK || len(hz.SLO.Objectives) != 3 {
		t.Errorf("healthz slo = %+v, want ok with 3 objectives", hz.SLO)
	}
}

// TestFastBurnTripsIncidentCapture is the end-to-end anomaly path: a burst of
// deterministically slow solves against a 1ms objective must raise the
// fast-burn alarm on the next evaluation, and the flight recorder must retain
// a retrievable bundle carrying a trace, a goroutine profile, and a metrics
// snapshot — plus the on-disk JSON dump.
func TestFastBurnTripsIncidentCapture(t *testing.T) {
	dir := t.TempDir()
	_, ts := newTestServerWith(t, Config{
		Logger:      quiet,
		IncidentDir: dir,
		SLOSpecs:    []string{"solve:p99<1ms@99"},
		SLO:         slo.Config{MinEvents: 5},
	})

	// Ten 20ms solves: every event lands far past the 1ms threshold, so the
	// burn rate is 100x the budget — alarm territory in any window. MaxSamples
	// varies so no request short-circuits through the solution cache.
	for i := 0; i < 10; i++ {
		resp, body := postJSON(t, ts.URL+"/v1/solve",
			solveRequest{Dataset: "island", R: 4, Algorithm: "test-slow", MaxSamples: 100 + i})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("slow solve %d: status %d: %s", i, resp.StatusCode, body)
		}
	}

	var solveStatus slo.Status
	for _, s := range sloStatuses(t, ts.URL) {
		if s.Source == "solve" {
			solveStatus = s
		}
	}
	if !solveStatus.FastBurnAlarm {
		t.Fatalf("fast-burn alarm not raised: %+v", solveStatus)
	}
	if exp := scrapeProm(t, ts.URL); true {
		if v, ok := exp.Value(`rrmd_slo_fast_burn_alarm{objective="solve_p99"}`); !ok || v != 1 {
			t.Fatalf("alarm gauge = %v %v, want 1", v, ok)
		}
	}

	// The alarm capture is retained and retrievable with its full payload.
	resp, err := http.Get(ts.URL + "/v1/incidents")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var list struct {
		Incidents []struct {
			ID      string `json:"id"`
			Trigger string `json:"trigger"`
		} `json:"incidents"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	var incID string
	for _, inc := range list.Incidents {
		if inc.Trigger == "slo_fast_burn" {
			incID = inc.ID
		}
	}
	if incID == "" {
		t.Fatalf("no slo_fast_burn incident retained: %+v", list.Incidents)
	}
	iResp, err := http.Get(ts.URL + "/v1/incidents/" + incID)
	if err != nil {
		t.Fatal(err)
	}
	defer iResp.Body.Close()
	var inc obs.Incident
	if err := json.NewDecoder(iResp.Body).Decode(&inc); err != nil {
		t.Fatal(err)
	}
	if inc.Trace == nil || inc.RequestID == "" {
		t.Errorf("incident carries no request trace: %+v", inc)
	}
	if !strings.Contains(inc.Goroutines, "goroutine profile:") {
		t.Errorf("incident carries no goroutine profile")
	}
	if !strings.Contains(inc.Metrics, "rrmd_slo_burn_rate_fast") {
		t.Errorf("incident metrics snapshot missing SLO gauges")
	}
	if _, err := os.Stat(dir + "/" + incID + ".json"); err != nil {
		t.Errorf("incident bundle not dumped to -incident-dir: %v", err)
	}
}

// syncBuf is a mutex-guarded buffer for log output written from handler
// goroutines.
type syncBuf struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuf) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuf) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestSlowRequestLogsCarryRequestID is the regression test for the anomaly
// correlation bugfix: under a seeded load burst with a zero slow-trace
// threshold, every "slow request" record in the structured JSON log stream
// must carry a non-empty request_id.
func TestSlowRequestLogsCarryRequestID(t *testing.T) {
	var out syncBuf
	ring := obs.NewLogRing(512)
	_, ts := newTestServerWith(t, Config{
		TraceSlow: time.Nanosecond, // every traced request logs as slow
		Logger:    obs.NewLogger(&out, "json", slog.LevelInfo, ring),
		LogRing:   ring,
	})

	tr := servingTrace(t, loadConfig{
		Scenario:  scenarioBurst,
		Seed:      7,
		Duration:  time.Second,
		Rate:      40,
		BurstRate: 120,
		Mix:       loadMix{Solve: 1},
	})
	rep, err := runLoad(context.Background(), tr, loadRunConfig{
		BaseURL:        ts.URL,
		RequestTimeout: 10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK == 0 {
		t.Fatalf("burst completed nothing: %+v", rep)
	}
	// Close blocks until in-flight handlers (and their middleware logging)
	// return, so reading the buffer below does not race the server.
	ts.Close()

	slow := 0
	for _, line := range strings.Split(strings.TrimSpace(out.String()), "\n") {
		if line == "" {
			continue
		}
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("log line is not JSON: %v\n%s", err, line)
		}
		if rec["msg"] != "rrmd: slow request" {
			continue
		}
		slow++
		if id, _ := rec["request_id"].(string); id == "" {
			t.Errorf("slow-request record without request_id: %s", line)
		}
	}
	if slow == 0 {
		t.Fatal("burst produced no slow-request records at a zero threshold")
	}
}
