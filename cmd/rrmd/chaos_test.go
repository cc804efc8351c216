package main

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"syscall"
	"testing"
	"time"

	"github.com/rankregret/rankregret/internal/dataset"
	"github.com/rankregret/rankregret/internal/faultfs"
	"github.com/rankregret/rankregret/internal/loadgen"
	"github.com/rankregret/rankregret/internal/obs/obstest"
	"github.com/rankregret/rankregret/internal/store"
	"github.com/rankregret/rankregret/internal/xrand"
)

// newChaosServer boots an in-process rrmd over a durable store whose disk
// operations route through fs (normally a faultfs.Injector, armed by the
// test after this setup traffic has passed). Heal backoff is tightened so
// recovery happens on test timescales, and retention is generous so heavy
// chaos mutation never ages out the versions pinned-read events are about to
// solve against.
func newChaosServer(t *testing.T, dir string, fs faultfs.FS) (*Server, *httptest.Server, *store.Store) {
	t.Helper()
	srv, ts, st := newDurableServer(t, chaosStoreOptions(t, dir, fs))
	if err := srv.AddDataset(t.Context(), "island", dataset.SimIsland(xrand.New(1), 200)); err != nil {
		t.Fatal(err)
	}
	if err := srv.AddDataset(t.Context(), "nba", dataset.SimNBA(xrand.New(1), 200)); err != nil {
		t.Fatal(err)
	}
	return srv, ts, st
}

// chaosStoreOptions is the store configuration of a chaos server over dir.
func chaosStoreOptions(t *testing.T, dir string, fs faultfs.FS) store.Options {
	return store.Options{
		Dir:            dir,
		Sync:           store.SyncAlways,
		FS:             fs,
		HealBackoff:    5 * time.Millisecond,
		HealMaxBackoff: 50 * time.Millisecond,
		Logger:         obstest.Logger(t),
		Retain:         64,
	}
}

// waitStoreHealthy blocks until the store's self-healing loop reports
// healthy, or fails the test.
func waitStoreHealthy(t *testing.T, st *store.Store) store.Health {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		h := st.Health()
		if h.State == store.HealthHealthy {
			return h
		}
		if time.Now().After(deadline) {
			t.Fatalf("store never healed: %+v", h)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// getHealthz fetches /healthz without treating 503 as a transport error.
func getHealthz(t *testing.T, ts *httptest.Server) (int, map[string]any) {
	t.Helper()
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

// TestChaosMidLoadFaultServesAndHeals is the fault-injection acceptance run:
// open-loop load (solves, pinned reads, mutations) plays against an
// in-process daemon while every WAL fsync fails for the first ~600ms of the
// window, then the fault clears mid-run. The bar:
//
//   - zero unexpected 5xx — mutations refused while degraded come back as
//     classified 503 sheds, never 500s;
//   - reads keep completing throughout (the solve path never rejects or
//     errors);
//   - the store converges back to healthy once the fault clears, with the
//     self-heal counters showing it did the work;
//   - and a clean restart over the same directory reproduces the surviving
//     state exactly — nothing acked was lost.
func TestChaosMidLoadFaultServesAndHeals(t *testing.T) {
	dir := t.TempDir()
	inj := faultfs.New(faultfs.Disk, 1)
	srv, ts, st := newChaosServer(t, dir, inj)

	tr := servingTrace(t, loadgen.Config{
		Scenario: loadgen.ScenarioSteady,
		Seed:     23,
		Duration: 2 * time.Second,
		Rate:     50,
		Mix:      loadgen.Mix{Solve: 0.5, Mutate: 0.4, Pinned: 0.1},
	})

	// Every WAL fsync fails until the fault "clears" mid-load. The healer
	// keeps retrying against the same broken disk (each reopened segment
	// wedges again on its next sync), so the store spends a solid slice of
	// the run degraded while solve traffic flows.
	inj.Arm(faultfs.Rule{Op: faultfs.OpSync, Path: "wal-", Err: syscall.EIO})
	cleared := make(chan struct{})
	go func() {
		defer close(cleared)
		time.Sleep(600 * time.Millisecond)
		inj.Clear()
	}()

	rep, err := loadgen.Run(context.Background(), tr, loadgen.RunConfig{
		BaseURL: ts.URL,
		Logf:    t.Logf,
	})
	<-cleared
	if err != nil {
		t.Fatal(err)
	}
	if rep.Unexpected5xx != 0 {
		t.Fatalf("chaos run produced %d unexpected 5xx responses: %+v", rep.Unexpected5xx, rep.PerKind)
	}
	if rep.OK == 0 {
		t.Fatalf("chaos run completed nothing: %+v", rep)
	}
	for _, kind := range []string{string(loadgen.KindSolve), string(loadgen.KindPinned)} {
		kr := rep.PerKind[kind]
		if kr.Errors != 0 || kr.Rejected != 0 {
			t.Fatalf("%s traffic suffered during degradation (errors=%d rejected=%d); reads must keep serving", kind, kr.Errors, kr.Rejected)
		}
		if kr.OK == 0 {
			t.Fatalf("no %s request completed: %+v", kind, rep.PerKind)
		}
	}
	if rep.RejectedDegraded == 0 {
		t.Fatalf("no mutation was refused as degraded during a 600ms fault window: %+v", rep)
	}
	if got := rep.PerKind[string(loadgen.KindMutate)]; got.RejectedDegraded != rep.RejectedDegraded {
		t.Fatalf("degraded rejections leaked outside the mutate kind: %+v", rep.PerKind)
	}
	if rep.PerKind[string(loadgen.KindMutate)].OK == 0 {
		t.Fatalf("no mutation succeeded after the fault cleared: %+v", rep.PerKind)
	}

	h := waitStoreHealthy(t, st)
	if h.HealSuccesses == 0 || h.HealAttempts == 0 {
		t.Fatalf("store healthy but heal counters empty: %+v", h)
	}
	t.Logf("chaos: offered=%d ok=%d degraded-rejects=%d heals=%d/%d",
		rep.Offered, rep.OK, rep.RejectedDegraded, h.HealSuccesses, h.HealAttempts)

	// Post-heal the store accepts writes again.
	resp, body := postJSON(t, ts.URL+"/v1/datasets/nba/rows", map[string]any{
		"rows": [][]float64{{0.5, 0.5, 0.5, 0.5, 0.5}},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-heal append: status %d: %s", resp.StatusCode, body)
	}

	// Restart over the same directory: every version the healed store
	// acknowledged must come back byte-identical.
	wantNBA := getVersions(t, ts, "nba")
	wantIsland := getVersions(t, ts, "island")
	ts.Close()
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	// Reopen without re-registering: startup loads would durably replace the
	// recovered histories (the daemon's skipRecovered guard exists for the
	// same reason).
	_, ts2, st2 := newDurableServer(t, chaosStoreOptions(t, dir, nil))
	if rec := st2.Recovery(); rec.Datasets != 2 || rec.TornTail {
		t.Fatalf("post-chaos recovery: %+v", rec)
	}
	if got := getVersions(t, ts2, "nba"); !reflect.DeepEqual(got, wantNBA) {
		t.Fatalf("nba versions diverged after restart:\ngot  %+v\nwant %+v", got, wantNBA)
	}
	if got := getVersions(t, ts2, "island"); !reflect.DeepEqual(got, wantIsland) {
		t.Fatalf("island versions diverged after restart:\ngot  %+v\nwant %+v", got, wantIsland)
	}
}

// TestChaosDegradedEndpoints pins the wire shape of degraded mode with a
// fault that never clears on its own: mutations 503 with a machine-readable
// reason and Retry-After, solves stay 200, and /healthz, /v1/metrics, and
// /v1/store/status all report the degraded state. Clearing the fault brings
// everything back without a restart.
func TestChaosDegradedEndpoints(t *testing.T) {
	inj := faultfs.New(faultfs.Disk, 1)
	srv, ts, st := newChaosServer(t, t.TempDir(), inj)
	_ = srv
	inj.Arm(faultfs.Rule{Op: faultfs.OpWrite, Path: "wal-", Err: syscall.ENOSPC})

	appendRow := func() (*http.Response, []byte) {
		return postJSON(t, ts.URL+"/v1/datasets/island/rows", map[string]any{
			"rows": [][]float64{{0.4, 0.6}},
		})
	}
	// First failing mutation trips the fault; it and every subsequent one
	// must 503 with reason "degraded" and a Retry-After hint.
	for i := 0; i < 2; i++ {
		resp, body := appendRow()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("mutation %d on faulted store: status %d (%s), want 503", i, resp.StatusCode, body)
		}
		if resp.Header.Get("Retry-After") == "" {
			t.Fatalf("degraded 503 %d missing Retry-After", i)
		}
		if !strings.Contains(string(body), `"reason":"degraded"`) {
			t.Fatalf("degraded 503 %d body lacks machine-readable reason: %s", i, body)
		}
	}

	// Reads keep serving out of memory.
	resp, body := postJSON(t, ts.URL+"/v1/solve", map[string]any{"dataset": "island", "r": 4})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("solve while degraded: status %d: %s", resp.StatusCode, body)
	}

	// /healthz flips to 503 with the state machine's reason.
	status, hz := getHealthz(t, ts)
	if status != http.StatusServiceUnavailable || hz["state"] != "degraded" || hz["reason"] != store.ReasonWALFailed {
		t.Fatalf("degraded healthz = %d %+v", status, hz)
	}
	if hz["ok"] != false {
		t.Fatalf("degraded healthz ok = %v", hz["ok"])
	}

	// The degraded state and heal counters surface in metrics and status.
	var metrics struct {
		Store store.Summary `json:"store"`
	}
	resp, body = doJSON(t, http.MethodGet, ts.URL+"/v1/metrics", nil)
	if err := json.Unmarshal(body, &metrics); err != nil {
		t.Fatalf("metrics decode: %v (%s)", err, body)
	}
	if metrics.Store.State != store.HealthDegraded || metrics.Store.Reason != store.ReasonWALFailed {
		t.Fatalf("metrics store summary = %+v, want degraded/wal_failed", metrics.Store)
	}
	var ss struct {
		Store struct {
			Health store.Health `json:"health"`
		} `json:"store"`
	}
	resp, body = doJSON(t, http.MethodGet, ts.URL+"/v1/store/status", nil)
	if err := json.Unmarshal(body, &ss); err != nil {
		t.Fatalf("store status decode: %v (%s)", err, body)
	}
	if ss.Store.Health.State != store.HealthDegraded || ss.Store.Health.Detail == "" {
		t.Fatalf("store status health = %+v, want degraded with detail", ss.Store.Health)
	}

	// Fault clears: the healer restores service, no restart needed.
	inj.Clear()
	h := waitStoreHealthy(t, st)
	if h.HealSuccesses == 0 {
		t.Fatalf("healthy without a recorded heal: %+v", h)
	}
	if resp, body := appendRow(); resp.StatusCode != http.StatusOK {
		t.Fatalf("post-heal append: status %d: %s", resp.StatusCode, body)
	}
	if status, hz := getHealthz(t, ts); status != http.StatusOK || hz["ok"] != true || hz["state"] != "healthy" {
		t.Fatalf("post-heal healthz = %d %+v", status, hz)
	}
}

// TestHealthzDrainingState covers the scheduler half of /healthz: a server
// whose scheduler has begun draining (store still fine) reports 503
// {"state":"draining"} so load balancers stop routing to it during shutdown.
func TestHealthzDrainingState(t *testing.T) {
	srv, ts := newServingServer(t, Config{})
	if err := srv.sched.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	status, hz := getHealthz(t, ts)
	if status != http.StatusServiceUnavailable || hz["state"] != "draining" || hz["ok"] != false {
		t.Fatalf("draining healthz = %d %+v", status, hz)
	}
	if hz["reason"] == nil || hz["reason"] == "" {
		t.Fatalf("draining healthz missing reason: %+v", hz)
	}
}
