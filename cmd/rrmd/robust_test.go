package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/rankregret/rankregret/internal/dataset"
	"github.com/rankregret/rankregret/internal/engine"
	"github.com/rankregret/rankregret/internal/obs/obstest"
	"github.com/rankregret/rankregret/internal/store"
	"github.com/rankregret/rankregret/internal/xrand"
)

// panicSolver is a registered solver with a bug: every solve panics.
type panicSolver struct{}

func (panicSolver) Name() string { return "test-panic" }

func (panicSolver) Solve(context.Context, *dataset.Dataset, int, engine.Options) (*engine.Solution, error) {
	panic("test-panic: solver bug")
}

func init() { engine.Register(panicSolver{}) }

// newBoundedServer boots an in-process rrmd over the island dataset whose
// body reads are bounded by bodyTimeout, set before the listener serves.
func newBoundedServer(t *testing.T, cfg Config, bodyTimeout time.Duration) (*Server, *httptest.Server) {
	t.Helper()
	cfg.MaxTimeout = 30 * time.Second
	st, err := store.Open(store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv := newServerOver(t, st, cfg)
	srv.bodyTimeout = bodyTimeout
	if err := srv.AddDataset(t.Context(), "island", dataset.SimIsland(xrand.New(1), 200)); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

// TestSolverPanicFailsOneRequest runs a solver that panics through both
// scheduler paths on a single worker. The synchronous solve answers 500
// with its request id, the async job ends failed with the panic value, the
// panics are counted, the same worker then serves a normal solve, and no
// goroutine outlives the server.
func TestSolverPanicFailsOneRequest(t *testing.T) {
	obstest.ExpectNoGoroutineLeak(t, 3)
	_, ts := newBoundedServer(t, Config{CacheSize: -1, Workers: 1}, bodyReadTimeout)
	panicReq := map[string]any{"dataset": "island", "r": 4, "algorithm": "test-panic"}

	resp, body := postJSON(t, ts.URL+"/v1/solve", panicReq)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("panicking solve = HTTP %d (%s), want 500", resp.StatusCode, body)
	}
	var e struct {
		Error     string `json:"error"`
		RequestID string `json:"request_id"`
	}
	if err := json.Unmarshal(body, &e); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(e.Error, "test-panic: solver bug") {
		t.Errorf("error %q does not carry the panic value", e.Error)
	}
	if e.RequestID == "" || e.RequestID != resp.Header.Get("X-Request-Id") {
		t.Errorf("body request_id %q, X-Request-Id %q: want the same non-empty id", e.RequestID, resp.Header.Get("X-Request-Id"))
	}

	resp, body = postJSON(t, ts.URL+"/v1/jobs", panicReq)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("job submit = HTTP %d (%s), want 202", resp.StatusCode, body)
	}
	var st jobStatusResponse
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for st.State != engine.JobFailed {
		if st.State == engine.JobDone || time.Now().After(deadline) {
			t.Fatalf("panicking job ended %+v, want failed", st)
		}
		time.Sleep(10 * time.Millisecond)
		resp, body = doJSON(t, http.MethodGet, ts.URL+"/v1/jobs/"+st.ID, nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("job get = HTTP %d (%s)", resp.StatusCode, body)
		}
		if err := json.Unmarshal(body, &st); err != nil {
			t.Fatal(err)
		}
	}
	if !strings.Contains(st.Error, "test-panic: solver bug") {
		t.Errorf("job error %q does not carry the panic value", st.Error)
	}

	resp, body = postJSON(t, ts.URL+"/v1/solve", map[string]any{"dataset": "island", "r": 4})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("solve after the panics = HTTP %d (%s), want 200", resp.StatusCode, body)
	}
	if v, ok := scrapeProm(t, ts.URL).Value("rrmd_solver_panics_total"); !ok || v != 2 {
		t.Errorf("rrmd_solver_panics_total = %v (present %v), want 2", v, ok)
	}
}

// TestTricklingBodyCutOff sends request headers and then one body byte
// every 20ms, far slower than the declared length needs: the JSON and the
// CSV upload path must both answer 408 once the body-read bound passes,
// not wait for the rest of the body.
func TestTricklingBodyCutOff(t *testing.T) {
	const bound = 300 * time.Millisecond
	_, ts := newBoundedServer(t, Config{}, bound)
	for _, path := range []string{"/v1/solve", "/v1/datasets?name=slow&header=1"} {
		t.Run(path, func(t *testing.T) {
			conn, err := net.Dial("tcp", ts.Listener.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			start := time.Now()
			if _, err := fmt.Fprintf(conn, "POST %s HTTP/1.1\r\nHost: rrmd\r\nContent-Length: 100000\r\n\r\n", path); err != nil {
				t.Fatal(err)
			}
			stop := make(chan struct{})
			defer close(stop)
			go func() {
				tick := time.NewTicker(20 * time.Millisecond)
				defer tick.Stop()
				for {
					select {
					case <-stop:
						return
					case <-tick.C:
						if _, err := conn.Write([]byte{'1'}); err != nil {
							return
						}
					}
				}
			}()
			if err := conn.SetReadDeadline(time.Now().Add(10 * time.Second)); err != nil {
				t.Fatal(err)
			}
			resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
			if err != nil {
				t.Fatalf("no response to a trickled body: %v", err)
			}
			resp.Body.Close()
			elapsed := time.Since(start)
			if resp.StatusCode != http.StatusRequestTimeout {
				t.Errorf("trickled body = HTTP %d, want 408", resp.StatusCode)
			}
			if elapsed < bound || elapsed > bound+2*time.Second {
				t.Errorf("cut off after %v, want just past the %v bound", elapsed, bound)
			}
		})
	}
}

// TestSolveOutlivesBodyDeadline holds a solve well past the body-read
// bound: the bound covers reading the body, not the solve, so the request
// is not cancelled and answers 200.
func TestSolveOutlivesBodyDeadline(t *testing.T) {
	const bound = 100 * time.Millisecond
	g := newGate()
	_, ts := newBoundedServer(t, Config{CacheSize: -1, Workers: 1}, bound)
	type result struct {
		status int
		body   []byte
	}
	done := make(chan result, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/solve", "application/json", strings.NewReader(`{"dataset":"island","r":4,"algorithm":"test-gate"}`))
		if err != nil {
			done <- result{body: []byte(err.Error())}
			return
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		done <- result{resp.StatusCode, b}
	}()
	<-g.started
	time.Sleep(5 * bound)
	close(g.release)
	if r := <-done; r.status != http.StatusOK {
		t.Fatalf("solve held past the body bound = HTTP %d (%s), want 200", r.status, r.body)
	}
}
