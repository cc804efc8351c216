package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/rankregret/rankregret/internal/dataset"
	"github.com/rankregret/rankregret/internal/store"
	"github.com/rankregret/rankregret/internal/xrand"
)

// newDurableServer opens a store with so and serves it.
func newDurableServer(t *testing.T, so store.Options) (*Server, *httptest.Server, *store.Store) {
	t.Helper()
	st, err := store.Open(so)
	if err != nil {
		t.Fatal(err)
	}
	srv := newServerOver(t, st, Config{MaxTimeout: 30 * time.Second})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts, st
}

type versionsResponse struct {
	Dataset  string        `json:"dataset"`
	Retain   int           `json:"retain"`
	Versions []versionInfo `json:"versions"`
}

func getVersions(t *testing.T, ts *httptest.Server, name string) versionsResponse {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/datasets/" + name + "/versions")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out versionsResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out
}

func mutateWorkload(t *testing.T, ts *httptest.Server) {
	t.Helper()
	for i := 0; i < 3; i++ {
		resp, body := postJSON(t, ts.URL+"/v1/datasets/nba/rows", map[string]any{
			"rows": [][]float64{{0.1 * float64(i), 0.9, 0.5, 0.4, 0.3}},
		})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("append %d: status %d: %s", i, resp.StatusCode, body)
		}
	}
	resp, body := doJSON(t, http.MethodDelete, ts.URL+"/v1/datasets/nba/rows", map[string]any{"ids": []int{1, 5}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("delete: status %d: %s", resp.StatusCode, body)
	}
}

// TestPersistenceAcrossRestart is the tentpole acceptance path minus the
// kill -9 (covered by TestCrashImageRecovery and the CI smoke job): mutate
// through the HTTP API, restart the daemon over the same directory, and
// require (1) the retained version window back byte-identical — fingerprints
// asserted — with pinned-version solves still answered, (2) the warm-start
// hook to prime the VecSet tier so the first client solve after restart
// reuses instead of cold-building, and (3) that solve's answer to be
// byte-identical to the pre-restart one.
func TestPersistenceAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	srv1, ts1, _ := newDurableServer(t, store.Options{Dir: dir, Sync: store.SyncNever})
	if err := srv1.AddDataset(t.Context(), "nba", dataset.SimNBA(xrand.New(1), 400)); err != nil {
		t.Fatal(err)
	}
	mutateWorkload(t, ts1)
	wantVersions := getVersions(t, ts1, "nba")
	if len(wantVersions.Versions) != 5 {
		t.Fatalf("expected 5 retained versions, got %+v", wantVersions)
	}
	pinned := wantVersions.Versions[1].Version

	solveReq := solveRequest{Dataset: "nba", R: 6, Algorithm: "hdrrm", MaxSamples: 800}
	resp, body := postJSON(t, ts1.URL+"/v1/solve", solveReq)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pre-restart solve: status %d: %s", resp.StatusCode, body)
	}
	var want solveResponse
	if err := json.Unmarshal(body, &want); err != nil {
		t.Fatal(err)
	}
	ts1.Close()
	if err := srv1.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}

	// Restart.
	srv2, ts2, st2 := newDurableServer(t, store.Options{Dir: dir, Sync: store.SyncNever})
	if rec := st2.Recovery(); rec.Datasets != 1 || rec.TornTail {
		t.Fatalf("recovery: %+v", rec)
	}
	gotVersions := getVersions(t, ts2, "nba")
	if !reflect.DeepEqual(gotVersions, wantVersions) {
		t.Fatalf("recovered versions diverged:\ngot  %+v\nwant %+v", gotVersions, wantVersions)
	}

	// Warm-start (synchronously, so the assertion below is deterministic).
	srv2.WarmStart(st2.Names())
	stats := srv2.eng.VecSetStats()
	if stats.Builds != 1 {
		t.Fatalf("warm-start built %d vector sets, want 1 (%+v)", stats.Builds, stats)
	}
	ws := srv2.warmStatus()
	if !strings.HasPrefix(ws["nba"], "warm") {
		t.Fatalf("warm status = %+v", ws)
	}

	// First client solve after restart: must hit the warm VecSet path and
	// reproduce the pre-restart answer bit for bit.
	resp, body = postJSON(t, ts2.URL+"/v1/solve", solveReq)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-restart solve: status %d: %s", resp.StatusCode, body)
	}
	var got solveResponse
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.IDs, want.IDs) || got.RankRegret != want.RankRegret || got.Algorithm != want.Algorithm {
		t.Fatalf("post-restart solve diverged: got %+v want %+v", got.solveResult, want.solveResult)
	}
	stats = srv2.eng.VecSetStats()
	if stats.Builds != 1 {
		t.Fatalf("first post-restart solve cold-built a vector set (%+v)", stats)
	}
	if stats.Reuses+stats.Extensions == 0 {
		t.Fatalf("first post-restart solve missed the warm path (%+v)", stats)
	}

	// Version pinning survives the restart.
	resp, body = postJSON(t, ts2.URL+"/v1/solve", solveRequest{Dataset: "nba", R: 6, Version: pinned, Algorithm: "hdrrm", MaxSamples: 800})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pinned solve after restart: status %d: %s", resp.StatusCode, body)
	}
}

// TestRetainWindowOneSource pins the retained-version window to one source,
// the store's Options.Retain: a daemon over a store opened with Retain 3
// keeps 3 versions live after five appends, and recovers the same 3 after a
// restart.
func TestRetainWindowOneSource(t *testing.T) {
	dir := t.TempDir()
	opts := store.Options{Dir: dir, Sync: store.SyncAlways, Retain: 3}
	srv1, ts1, _ := newDurableServer(t, opts)
	if err := srv1.AddDataset(t.Context(), "nba", dataset.SimNBA(xrand.New(1), 200)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		resp, body := postJSON(t, ts1.URL+"/v1/datasets/nba/rows", map[string]any{
			"rows": [][]float64{{0.1 * float64(i), 0.9, 0.5, 0.4, 0.3}},
		})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("append %d: status %d: %s", i, resp.StatusCode, body)
		}
	}
	live := getVersions(t, ts1, "nba")
	if len(live.Versions) != 3 || live.Retain != 3 {
		t.Fatalf("live window: retain %d, %d versions, want 3 and 3: %+v", live.Retain, len(live.Versions), live)
	}
	ts1.Close()
	if err := srv1.Shutdown(t.Context()); err != nil {
		t.Fatal(err)
	}

	_, ts2, _ := newDurableServer(t, opts)
	if got := getVersions(t, ts2, "nba"); !reflect.DeepEqual(got, live) {
		t.Fatalf("recovered window diverged:\ngot  %+v\nwant %+v", got, live)
	}
}

// TestCrashImageRecovery simulates kill -9 in-process: with -fsync always,
// every acked mutation is durable, so a byte-for-byte copy of the data
// directory taken WITHOUT any shutdown — plus garbage appended to the live
// segment, as a crash mid-write would leave — must recover every retained
// version with identical fingerprints and discard the torn tail cleanly.
func TestCrashImageRecovery(t *testing.T) {
	dir := t.TempDir()
	srv1, ts1, st1 := newDurableServer(t, store.Options{Dir: dir, Sync: store.SyncAlways})
	if err := srv1.AddDataset(t.Context(), "nba", dataset.SimNBA(xrand.New(1), 300)); err != nil {
		t.Fatal(err)
	}
	mutateWorkload(t, ts1)
	want := getVersions(t, ts1, "nba")

	// Photograph the directory while the store is still open (no flush, no
	// snapshot, no close), then tear the live segment's tail.
	img := t.TempDir()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(img, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	segs := st1.Status().Segments
	tail := filepath.Join(img, fmt.Sprintf("wal-%016x.log", segs[len(segs)-1].Seq))
	f, err := os.OpenFile(tail, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{0xde, 0xad, 0xbe}) // half a record header
	f.Close()

	_, ts2, st2 := newDurableServer(t, store.Options{Dir: img, Sync: store.SyncNever})
	rec := st2.Recovery()
	if !rec.TornTail {
		t.Fatalf("torn tail not detected: %+v", rec)
	}
	if rec.RecordsSkipped != 0 {
		t.Fatalf("recovery skipped %d durable records", rec.RecordsSkipped)
	}
	got := getVersions(t, ts2, "nba")
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("crash-image recovery diverged:\ngot  %+v\nwant %+v", got, want)
	}
}

// TestCompactMode exercises the offline `rrmd -compact` entry point
// end to end: it must recover, write a verified snapshot, prune the WAL to
// a minimal footprint, and leave the data readable.
func TestCompactMode(t *testing.T) {
	dir := t.TempDir()
	srv1, ts1, _ := newDurableServer(t, store.Options{Dir: dir, Sync: store.SyncNever})
	if err := srv1.AddDataset(t.Context(), "nba", dataset.SimNBA(xrand.New(1), 200)); err != nil {
		t.Fatal(err)
	}
	mutateWorkload(t, ts1)
	want := getVersions(t, ts1, "nba")
	ts1.Close()
	srv1.Close()

	if err := run([]string{"-compact", "-data-dir", dir}); err != nil {
		t.Fatalf("rrmd -compact: %v", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	snaps, segs := 0, 0
	for _, e := range entries {
		switch {
		case strings.HasSuffix(e.Name(), ".snap"):
			snaps++
		case strings.HasSuffix(e.Name(), ".log"):
			segs++
		}
	}
	if snaps != 1 || segs != 1 {
		t.Fatalf("after compact: %d snapshots, %d segments, want 1 and 1", snaps, segs)
	}

	_, ts2, st2 := newDurableServer(t, store.Options{Dir: dir, Sync: store.SyncNever})
	if rec := st2.Recovery(); rec.RecordsReplayed != 0 {
		t.Fatalf("compacted store still replays %d records", rec.RecordsReplayed)
	}
	if got := getVersions(t, ts2, "nba"); !reflect.DeepEqual(got, want) {
		t.Fatalf("compacted registry diverged:\ngot  %+v\nwant %+v", got, want)
	}
	if err := run([]string{"-compact"}); err == nil {
		t.Fatal("-compact without -data-dir accepted")
	}
}

// TestRRMDChild is the subprocess body for the signal tests: it runs the
// real daemon main loop with flags taken from the environment. Skipped in
// normal runs.
func TestRRMDChild(t *testing.T) {
	if os.Getenv("RRMD_CHILD") != "1" {
		t.Skip("subprocess helper")
	}
	if err := run(strings.Split(os.Getenv("RRMD_ARGS"), "\n")); err != nil {
		fmt.Fprintln(os.Stderr, "child:", err)
		os.Exit(1)
	}
	os.Exit(0)
}

// freeAddr reserves a listen address for the child daemon.
func freeAddr(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	return addr
}

// writeCSV writes an n x d CSV the child can -load.
func writeCSV(t *testing.T, path string, n, d int) {
	t.Helper()
	var b strings.Builder
	rng := xrand.New(7)
	for i := 0; i < n; i++ {
		for j := 0; j < d; j++ {
			if j > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, "%.6f", rng.Float64())
		}
		b.WriteByte('\n')
	}
	if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
}

// startChild launches the daemon subprocess with the given flags and waits
// for it to serve. The returned function delivers SIGTERM and waits for a
// clean exit.
func startChild(t *testing.T, args []string) (base string, stop func()) {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run", "^TestRRMDChild$", "-test.v")
	cmd.Env = append(os.Environ(), "RRMD_CHILD=1", "RRMD_ARGS="+strings.Join(args, "\n"))
	var output strings.Builder
	cmd.Stdout = &output
	cmd.Stderr = &output
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cmd.Process.Kill() })
	base = "http://" + args[1] // args are ["-addr", addr, ...]
	deadline := time.Now().Add(20 * time.Second)
	for {
		if resp, err := http.Get(base + "/healthz"); err == nil {
			resp.Body.Close()
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("daemon never came up; output:\n%s", output.String())
		}
		time.Sleep(20 * time.Millisecond)
	}
	return base, func() {
		if err := cmd.Process.Signal(os.Interrupt); err != nil {
			t.Fatal(err)
		}
		if err := cmd.Wait(); err != nil {
			t.Fatalf("daemon exited non-zero: %v\noutput:\n%s", err, output.String())
		}
	}
}

// TestRestartWithSameFlagsKeepsHistory guards the restart contract: a
// daemon relaunched with its usual -load flags must NOT re-register the
// seed CSV over the recovered version history — acked mutations and the
// version window survive a systemd-style identical-command-line restart.
func TestRestartWithSameFlagsKeepsHistory(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess test")
	}
	dir := t.TempDir()
	csv := filepath.Join(dir, "data.csv")
	writeCSV(t, csv, 50, 3)
	addr := freeAddr(t)
	args := []string{
		"-addr", addr,
		"-data-dir", filepath.Join(dir, "store"),
		"-fsync", "always",
		"-load", "cars=" + csv,
	}

	base, stop := startChild(t, args)
	resp, body := postJSON(t, base+"/v1/datasets/cars/rows", map[string]any{"rows": [][]float64{{0.5, 0.5, 0.5}}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("append: status %d: %s", resp.StatusCode, body)
	}
	get := func(url string) string {
		t.Helper()
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var b strings.Builder
		buf := make([]byte, 4096)
		for {
			n, rerr := resp.Body.Read(buf)
			b.Write(buf[:n])
			if rerr != nil {
				return b.String()
			}
		}
	}
	want := get(base + "/v1/datasets/cars/versions")
	if !strings.Contains(want, `"n":51`) {
		t.Fatalf("mutated version missing before restart: %s", want)
	}
	stop()

	// Same command line, same data dir: the recovered history must win.
	base, stop = startChild(t, args)
	defer stop()
	if got := get(base + "/v1/datasets/cars/versions"); got != want {
		t.Fatalf("restart with identical flags clobbered the history:\ngot  %s\nwant %s", got, want)
	}
}

// TestGracefulShutdownSignal is the satellite regression test: SIGTERM while
// a solve is in flight must let the solve finish (the client still gets its
// 200), flush + snapshot the store, and exit 0. A fresh open of the data
// directory then recovers replay-free.
func TestGracefulShutdownSignal(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess test")
	}
	dir := t.TempDir()
	csv := filepath.Join(dir, "data.csv")
	// Sized so the cold solve comfortably outlasts the 150ms signal delay
	// yet stays far under the request ceiling even race-instrumented.
	writeCSV(t, csv, 2500, 5)
	addr := freeAddr(t)
	args := []string{
		"-addr", addr,
		"-data-dir", filepath.Join(dir, "store"),
		"-fsync", "always",
		"-load", "big=" + csv,
		"-timeout", "150s",
		"-drain-timeout", "150s",
	}
	cmd := exec.Command(os.Args[0], "-test.run", "^TestRRMDChild$", "-test.v")
	cmd.Env = append(os.Environ(), "RRMD_CHILD=1", "RRMD_ARGS="+strings.Join(args, "\n"))
	var output strings.Builder
	cmd.Stdout = &output
	cmd.Stderr = &output
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()

	base := "http://" + addr
	deadline := time.Now().Add(15 * time.Second)
	for {
		if resp, err := http.Get(base + "/healthz"); err == nil {
			resp.Body.Close()
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("daemon never came up; output:\n%s", output.String())
		}
		time.Sleep(20 * time.Millisecond)
	}

	// Launch a cold solve that takes long enough for the signal to land
	// mid-flight, then SIGTERM the daemon.
	type solveOut struct {
		status int
		body   string
		err    error
	}
	solveCh := make(chan solveOut, 1)
	go func() {
		resp, err := http.Post(base+"/v1/solve", "application/json",
			strings.NewReader(`{"dataset":"big","r":8,"algorithm":"hdrrm","max_samples":4000}`))
		if err != nil {
			solveCh <- solveOut{err: err}
			return
		}
		defer resp.Body.Close()
		var b strings.Builder
		buf := make([]byte, 4096)
		for {
			n, rerr := resp.Body.Read(buf)
			b.Write(buf[:n])
			if rerr != nil {
				break
			}
		}
		solveCh <- solveOut{status: resp.StatusCode, body: b.String()}
	}()
	time.Sleep(150 * time.Millisecond)
	if err := cmd.Process.Signal(os.Interrupt); err != nil {
		t.Fatal(err)
	}

	select {
	case out := <-solveCh:
		if out.err != nil {
			t.Fatalf("in-flight solve dropped during shutdown: %v\ndaemon output:\n%s", out.err, output.String())
		}
		if out.status != http.StatusOK {
			t.Fatalf("in-flight solve got status %d: %s", out.status, out.body)
		}
	case <-time.After(160 * time.Second):
		t.Fatal("in-flight solve never completed")
	}
	if err := cmd.Wait(); err != nil {
		t.Fatalf("daemon exited non-zero after SIGTERM: %v\noutput:\n%s", err, output.String())
	}

	// A graceful exit snapshots: reopening replays nothing and has the data.
	st, err := store.Open(store.Options{Dir: filepath.Join(dir, "store"), Sync: store.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if rec := st.Recovery(); rec.Datasets != 1 || rec.RecordsReplayed != 0 || rec.TornTail {
		t.Fatalf("post-SIGTERM recovery not clean: %+v\ndaemon output:\n%s", rec, output.String())
	}
}
