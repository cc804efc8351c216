package main

import (
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"github.com/rankregret/rankregret/internal/xrand"
)

func TestGenerateDeterministic(t *testing.T) {
	cfg := loadConfig{
		Scenario: scenarioSteady,
		Seed:     42,
		Duration: 5 * time.Second,
		Rate:     80,
		Datasets: []string{"a", "b", "c"},
	}
	t1, err := generateTrace(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t2, err := generateTrace(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(t1, t2) {
		t.Fatal("same config generated different traces")
	}
	cfg.Seed = 43
	t3, err := generateTrace(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(t1.Events, t3.Events) {
		t.Fatal("different seeds generated identical event streams")
	}
}

func TestGenerateShape(t *testing.T) {
	tr, err := generateTrace(loadConfig{
		Scenario: scenarioSteady,
		Seed:     7,
		Duration: 10 * time.Second,
		Rate:     100,
		Datasets: []string{"x", "y"},
		RMax:     5,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Mean 1000 events; Poisson sd ~32, so ±20% is a >6-sigma bound.
	if n := len(tr.Events); n < 800 || n > 1200 {
		t.Fatalf("steady 100rps x 10s generated %d events, want ~1000", n)
	}
	kinds := map[reqKind]int{}
	last := -1.0
	for _, ev := range tr.Events {
		if ev.AtMS < last {
			t.Fatalf("events out of order: %v after %v", ev.AtMS, last)
		}
		last = ev.AtMS
		if ev.AtMS < 0 || ev.AtMS >= tr.DurationMS {
			t.Fatalf("event offset %v outside [0, %v)", ev.AtMS, tr.DurationMS)
		}
		if ev.Dataset != "x" && ev.Dataset != "y" {
			t.Fatalf("event targets unknown dataset %q", ev.Dataset)
		}
		kinds[ev.Kind]++
		switch ev.Kind {
		case kindSolve, kindPinned:
			if ev.R < 2 || ev.R > 5 {
				t.Fatalf("%s event has r=%d outside [2, 5]", ev.Kind, ev.R)
			}
		case kindSweep:
			if ev.Width < 1 {
				t.Fatalf("sweep event has width %d", ev.Width)
			}
		case kindMutate:
			if ev.Rows < 1 || ev.Seed == 0 {
				t.Fatalf("mutate event malformed: %+v", ev)
			}
		}
	}
	// The default mix includes all four kinds; at ~1000 events each should
	// appear (P(missing a 10% kind) ~ 1e-46).
	for _, k := range []reqKind{kindSolve, kindSweep, kindMutate, kindPinned} {
		if kinds[k] == 0 {
			t.Fatalf("kind %s absent from %d events: %v", k, len(tr.Events), kinds)
		}
	}
}

func TestGenerateValidation(t *testing.T) {
	if _, err := generateTrace(loadConfig{Scenario: "nope", Datasets: []string{"a"}}); err == nil {
		t.Fatal("unknown scenario accepted")
	}
	if _, err := generateTrace(loadConfig{Scenario: scenarioSteady}); err == nil {
		t.Fatal("empty dataset list accepted")
	}
	if _, err := generateTrace(loadConfig{Scenario: scenarioSteady, Datasets: []string{"a"}, Mix: loadMix{Solve: -1}}); err == nil {
		t.Fatal("negative mix weight accepted")
	}
}

func TestBurstArrivalsModulate(t *testing.T) {
	rng := xrand.New(11)
	// 1s bursts at 200rps every 5s, calm at 20rps, for 20s: 4 full periods.
	offsets := burstArrivals(rng, 20, 200, 5*time.Second, time.Second, 20*time.Second)
	inBurst, inCalm := 0, 0
	for _, at := range offsets {
		if math.Mod(at, 5000) < 1000 {
			inBurst++
		} else {
			inCalm++
		}
	}
	// Expectation: 4x1s x 200rps = 800 burst, 4x4s x 20rps = 320 calm. The
	// per-second burst rate must clearly exceed the calm rate.
	burstRate := float64(inBurst) / 4
	calmRate := float64(inCalm) / 16
	if burstRate < 3*calmRate {
		t.Fatalf("burst rate %.1f/s not clearly above calm rate %.1f/s", burstRate, calmRate)
	}
}

func TestPercentile(t *testing.T) {
	hundred := make([]float64, 100)
	for i := range hundred {
		hundred[i] = float64(100 - i) // descending: p99 must sort first
	}
	cases := []struct {
		ms   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{7}, 7},
		{[]float64{3, 1, 2}, 3},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 10},
		{hundred, 99},
	}
	for _, c := range cases {
		if got := p99(c.ms); got != c.want {
			t.Errorf("p99 over %d samples = %v, want %v", len(c.ms), got, c.want)
		}
	}
}

func TestMutationRowsDeterministic(t *testing.T) {
	a := mutationRows(77, 4, 3)
	b := mutationRows(77, 4, 3)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different mutation rows")
	}
	if len(a) != 4 || len(a[0]) != 3 {
		t.Fatalf("rows shape %dx%d, want 4x3", len(a), len(a[0]))
	}
	for _, row := range a {
		for _, v := range row {
			if v < 0 || v >= 1 {
				t.Fatalf("row value %v outside [0,1)", v)
			}
		}
	}
}

// TestSweepItemOutcomes fires one sweep at a fake daemon whose HTTP-200
// batch response holds one solved, one shed and one failed item: each lands
// in its own batch-item count, and only the solved one reaches OnResult.
func TestSweepItemOutcomes(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/datasets", func(w http.ResponseWriter, _ *http.Request) {
		json.NewEncoder(w).Encode(map[string]any{"datasets": []map[string]any{{"name": "d", "d": 2}}})
	})
	mux.HandleFunc("POST /v1/solve/batch", func(w http.ResponseWriter, _ *http.Request) {
		json.NewEncoder(w).Encode(map[string]any{"results": []map[string]any{
			{"index": 0, "ids": []int{1, 4}, "rank_regret": 3},
			{"index": 1, "rejected": true, "error": "queue full"},
			{"index": 2, "error": "context canceled"},
		}})
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()

	tr := &loadTrace{
		Datasets: []string{"d"},
		Events:   []traceEvent{{Kind: kindSweep, Dataset: "d", R: 2, Width: 3}},
	}
	var got []solveOutcome
	rep, err := runLoad(context.Background(), tr, loadRunConfig{
		BaseURL:  ts.URL,
		OnResult: func(o solveOutcome) { got = append(got, o) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK != 1 || rep.Errors != 0 {
		t.Fatalf("an HTTP-200 batch is one completed request: ok=%d errors=%d", rep.OK, rep.Errors)
	}
	if rep.BatchItemsAccepted != 1 || rep.BatchItemsRejected != 1 || rep.BatchItemsFailed != 1 {
		t.Fatalf("batch items accepted/rejected/failed = %d/%d/%d, want 1/1/1",
			rep.BatchItemsAccepted, rep.BatchItemsRejected, rep.BatchItemsFailed)
	}
	want := []solveOutcome{{Event: 0, Item: 0, Dataset: "d", IDs: []int{1, 4}, RankRegret: 3}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("OnResult got %+v, want %+v", got, want)
	}
}
