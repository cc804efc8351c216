package main

import (
	"context"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"
	"time"

	"github.com/rankregret/rankregret/internal/dataset"
	"github.com/rankregret/rankregret/internal/engine"
	"github.com/rankregret/rankregret/internal/loadgen"
	"github.com/rankregret/rankregret/internal/obs/obstest"
	"github.com/rankregret/rankregret/internal/store"
	"github.com/rankregret/rankregret/internal/xrand"
)

// newServingServer boots an in-process rrmd with two small datasets and the
// cache/pool/queue shape in cfg (MaxTimeout 30s), wrapped in an httptest
// listener.
func newServingServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	cfg.MaxTimeout = 30 * time.Second
	st, err := store.Open(store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv := newServerOver(t, st, cfg)
	if err := srv.AddDataset(t.Context(), "island", dataset.SimIsland(xrand.New(1), 200)); err != nil {
		t.Fatal(err)
	}
	if err := srv.AddDataset(t.Context(), "nba", dataset.SimNBA(xrand.New(1), 200)); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

// servingTrace generates a short deterministic trace across both datasets.
// RMin 5 covers SimNBA's dimensionality (the hdrrm family needs r >= the
// dataset's basis size, which can reach d = 5).
func servingTrace(t *testing.T, cfg loadgen.Config) *loadgen.Trace {
	t.Helper()
	cfg.Datasets = []string{"island", "nba"}
	cfg.RMin = 5
	if cfg.RMax == 0 {
		cfg.RMax = 7
	}
	tr, err := loadgen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// TestServingSteadySmoke drives a short steady scenario — the full request
// mix, mutations included — against a default-shaped server and checks the
// run is healthy: work completed, and nothing but deliberate sheds failed,
// down to the individual sweep items.
func TestServingSteadySmoke(t *testing.T) {
	_, ts := newServingServer(t, Config{})
	tr := servingTrace(t, loadgen.Config{
		Scenario: loadgen.ScenarioSteady,
		Seed:     11,
		Duration: 2 * time.Second,
		Rate:     40,
	})
	rep, err := loadgen.Run(context.Background(), tr, loadgen.RunConfig{
		BaseURL: ts.URL,
		Logf:    t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK == 0 || rep.ThroughputRPS <= 0 {
		t.Fatalf("steady run completed nothing: %+v", rep)
	}
	if rep.Errors > 0 {
		t.Fatalf("steady run at low rate had %d errors (first kinds: %+v)", rep.Errors, rep.PerKind)
	}
	if rep.Unexpected5xx != 0 {
		t.Fatalf("unexpected 5xx responses: %d", rep.Unexpected5xx)
	}
	if rep.BatchItemsFailed != 0 {
		t.Fatalf("steady run at low rate had %d failed sweep items", rep.BatchItemsFailed)
	}
	if rep.PerKind[string(loadgen.KindMutate)].OK == 0 || rep.PerKind[string(loadgen.KindPinned)].OK == 0 {
		t.Fatalf("mix did not exercise mutate/pinned paths: %+v", rep.PerKind)
	}
}

// TestServingOverloadBurst is the overload regression test: a burst far over
// capacity against a deliberately tiny pool (1 worker, queue of 2, caches
// off so every solve costs real work) must shed with prompt 429s while the
// accepted requests stay bounded, no unexpected 5xx appears, and the process
// returns to its baseline goroutine count when the storm passes.
func TestServingOverloadBurst(t *testing.T) {
	obstest.ExpectNoGoroutineLeak(t, 3)
	srv, ts := newServingServer(t, Config{CacheSize: -1, Workers: 1, QueueCap: 2, QueueWait: 250 * time.Millisecond})

	tr := servingTrace(t, loadgen.Config{
		Scenario:  loadgen.ScenarioBurst,
		Seed:      13,
		Duration:  2 * time.Second,
		Rate:      30,
		BurstRate: 300, // far beyond what 1 uncached worker can absorb
		// Solve-only pressure: every event competes for the same queue.
		Mix: loadgen.Mix{Solve: 1},
	})
	rep, err := loadgen.Run(context.Background(), tr, loadgen.RunConfig{
		BaseURL:        ts.URL,
		RequestTimeout: 10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Rejected == 0 {
		t.Fatalf("burst at 10x capacity shed nothing: %+v", rep)
	}
	if rep.OK == 0 {
		t.Fatalf("burst run completed nothing: %+v", rep)
	}
	if rep.Unexpected5xx != 0 {
		t.Fatalf("unexpected 5xx responses under overload: %d", rep.Unexpected5xx)
	}
	// Sheds must be prompt: a 429 is the server refusing work, not queuing
	// it. The bound is generous for CI noise; the real p99 is milliseconds.
	if rep.RejectLatencyP99MS > 2000 {
		t.Fatalf("reject p99 = %.1fms; overload rejections must be fast", rep.RejectLatencyP99MS)
	}
	// Accepted requests are bounded by queue-wait + run budget, not by the
	// whole storm's length.
	if rep.LatencyP99MS > 25000 {
		t.Fatalf("accepted p99 = %.1fms; queued work must keep its bounded budget", rep.LatencyP99MS)
	}

	// Drain; the obstest leak check at the top of the test verifies (after
	// the cleanups close the server) that the storm's goroutines wind down.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("post-storm drain: %v", err)
	}
	ts.Close()
}

// TestServingPolicyEquivalence replays one solve/sweep/pinned trace (no
// mutations, so both servers hold identical data throughout) against a
// default server and a cache-disabled one below capacity. The default
// server's warm-first dequeue may reorder queue service and answers repeats
// from its caches; the cache-disabled server has no warm state, so it
// dequeues in arrival order and solves every request cold. Every request
// must return the identical solution on both.
func TestServingPolicyEquivalence(t *testing.T) {
	tr := servingTrace(t, loadgen.Config{
		Scenario: loadgen.ScenarioSteady,
		Seed:     17,
		Duration: 1500 * time.Millisecond,
		Rate:     40,
		Mix:      loadgen.Mix{Solve: 0.6, Sweep: 0.2, Pinned: 0.2},
	})
	type key struct {
		Event, Item int
	}
	collect := func(cacheSize int) map[key]loadgen.SolveOutcome {
		var mu sync.Mutex
		got := map[key]loadgen.SolveOutcome{}
		_, ts := newServingServer(t, Config{CacheSize: cacheSize, Workers: 2, QueueCap: 64})
		rep, err := loadgen.Run(context.Background(), tr, loadgen.RunConfig{
			BaseURL: ts.URL,
			Logf:    t.Logf,
			OnResult: func(o loadgen.SolveOutcome) {
				mu.Lock()
				got[key{o.Event, o.Item}] = o
				mu.Unlock()
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Rejected != 0 || rep.Errors != 0 || rep.BatchItemsFailed != 0 {
			t.Fatalf("below-capacity run shed or failed work (%d rejected, %d errors, %d failed sweep items); equivalence needs full completion",
				rep.Rejected, rep.Errors, rep.BatchItemsFailed)
		}
		return got
	}
	cold := collect(-1)
	warm := collect(0)
	if len(cold) == 0 {
		t.Fatal("no results captured")
	}
	if len(cold) != len(warm) {
		t.Fatalf("result counts differ: cache-disabled %d, default %d", len(cold), len(warm))
	}
	for k, c := range cold {
		w, ok := warm[k]
		if !ok {
			t.Fatalf("default run missing result for event %d item %d", k.Event, k.Item)
		}
		if !reflect.DeepEqual(c, w) {
			t.Fatalf("results diverge at event %d item %d:\n  cache-disabled %+v\n  default        %+v", k.Event, k.Item, c, w)
		}
	}
}

// gate is a registered blocking solver the serving tests use to wedge the
// worker pool deterministically over HTTP.
var gate = struct {
	started chan struct{}
	release chan struct{}
}{started: make(chan struct{}, 16), release: make(chan struct{})}

type gateSolver struct{}

func (gateSolver) Name() string { return "test-gate" }

func (gateSolver) Solve(ctx context.Context, ds *dataset.Dataset, r int, opts engine.Options) (*engine.Solution, error) {
	select {
	case gate.started <- struct{}{}:
	default:
	}
	select {
	case <-gate.release:
		return &engine.Solution{IDs: []int{0}, Algorithm: "test-gate"}, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

func init() { engine.Register(gateSolver{}) }

// TestServingQueueWaitBudget pins the serving-layer overload semantics of
// the split budget, deterministically wedging the worker with a blocking
// solver: a full queue is refused 429 immediately, and a solve whose
// queue-wait budget lapses while the worker is busy is rejected 429 shortly
// after the worker frees — never held for the full 30s solve ceiling.
func TestServingQueueWaitBudget(t *testing.T) {
	_, ts := newServingServer(t, Config{CacheSize: -1, Workers: 1, QueueCap: 1, QueueWait: 100 * time.Millisecond})

	// Wedge the worker, then fill the single queue slot.
	for _, path := range []string{"/v1/jobs", "/v1/jobs"} {
		resp, body := postJSON(t, ts.URL+path, map[string]any{"dataset": "island", "r": 4, "algorithm": "test-gate"})
		if resp.StatusCode != 202 {
			t.Fatalf("gate job submit = HTTP %d (%s), want 202", resp.StatusCode, body)
		}
	}
	<-gate.started // the worker is now inside the first gate solve

	// Queue full: the synchronous path refuses instantly with 429.
	start := time.Now()
	resp, body := postJSON(t, ts.URL+"/v1/solve", map[string]any{"dataset": "island", "r": 4})
	if resp.StatusCode != 429 {
		t.Fatalf("solve against a full queue = HTTP %d (%s), want 429", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("queue-full 429 missing Retry-After")
	}
	if e := time.Since(start); e > 2*time.Second {
		t.Fatalf("queue-full 429 took %v, want immediate", e)
	}

	// Queue-wait expiry: release the gate 400ms in — well past the 100ms
	// queue-wait budget — on a second server with queue room. The rejected
	// solve must come back 429 promptly after the worker frees, not after
	// the 30s solve ceiling.
	_, ts2 := newServingServer(t, Config{CacheSize: -1, Workers: 1, QueueCap: 8, QueueWait: 100 * time.Millisecond})
	resp, body = postJSON(t, ts2.URL+"/v1/jobs", map[string]any{"dataset": "island", "r": 4, "algorithm": "test-gate"})
	if resp.StatusCode != 202 {
		t.Fatalf("gate job submit = HTTP %d (%s), want 202", resp.StatusCode, body)
	}
	<-gate.started
	go func() {
		time.Sleep(400 * time.Millisecond)
		close(gate.release)
	}()
	start = time.Now()
	resp, body = postJSON(t, ts2.URL+"/v1/solve", map[string]any{"dataset": "island", "r": 4})
	elapsed := time.Since(start)
	if resp.StatusCode != 429 {
		t.Fatalf("solve with lapsed queue-wait = HTTP %d (%s), want 429", resp.StatusCode, body)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("queue-wait 429 took %v; it must arrive when the worker frees, not at the solve ceiling", elapsed)
	}
	t.Logf("queue-wait 429 after %v", elapsed)
}
