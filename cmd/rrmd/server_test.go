package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/rankregret/rankregret"
	"github.com/rankregret/rankregret/internal/dataset"
	"github.com/rankregret/rankregret/internal/engine"
	"github.com/rankregret/rankregret/internal/store"
	"github.com/rankregret/rankregret/internal/xrand"
)

// newTestServer serves the island and nba test datasets from an in-memory
// server with a 30s timeout ceiling and defaults otherwise.
func newTestServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	return newTestServerWith(t, Config{})
}

// newTestServerWith is newTestServer with cfg (MaxTimeout 30s when unset).
func newTestServerWith(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	return newTestServerOn(t, store.Options{}, cfg)
}

// newTestServerOn is newTestServerWith over a store opened with so.
func newTestServerOn(t *testing.T, so store.Options, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.MaxTimeout == 0 {
		cfg.MaxTimeout = 30 * time.Second
	}
	st, err := store.Open(so)
	if err != nil {
		t.Fatal(err)
	}
	srv := newServerOver(t, st, cfg)
	if err := srv.AddDataset(t.Context(), "island", dataset.SimIsland(xrand.New(1), 400)); err != nil {
		t.Fatal(err)
	}
	if err := srv.AddDataset(t.Context(), "nba", dataset.SimNBA(xrand.New(1), 800)); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

// newServerOver builds a server over st; the server (and with it st) is
// closed when the test ends.
func newServerOver(t *testing.T, st *store.Store, cfg Config) *Server {
	t.Helper()
	srv, err := NewServer(st, cfg)
	if err != nil {
		st.Close()
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	return srv
}

// cacheHits reads the solution-cache hit counter from GET /v1/metrics.
func cacheHits(t *testing.T, baseURL string) uint64 {
	t.Helper()
	resp, err := http.Get(baseURL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m serverMetrics
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	return m.Engine.Solutions.Hits
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	return doJSON(t, http.MethodPost, url, body)
}

func TestSolveMatchesLibrary(t *testing.T) {
	_, ts := newTestServer(t)
	resp, body := postJSON(t, ts.URL+"/v1/solve", solveRequest{Dataset: "island", R: 5})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var got solveResponse
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	want, err := rankregret.Solve(t.Context(), dataset.SimIsland(xrand.New(1), 400), 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.IDs, want.IDs) || got.RankRegret != want.RankRegret || !got.Exact {
		t.Errorf("daemon solve = %+v, library solve = %+v", got, want)
	}
	if got.Algorithm != "2drrm" {
		t.Errorf("auto algorithm = %q, want 2drrm", got.Algorithm)
	}
}

// Solves at different parallelism settings must return identical answers —
// and must share one cache entry, since parallelism is not part of the key.
func TestSolveParallelismIdenticalAndCacheShared(t *testing.T) {
	// 2 is the server default; the explicit fields override it.
	_, ts := newTestServerWith(t, Config{SolveParallelism: 2})
	hits := cacheHits(t, ts.URL)
	var answers []solveResponse
	for ci, par := range []*int{nil, intp(0), intp(1), intp(8)} {
		resp, body := postJSON(t, ts.URL+"/v1/solve", solveRequest{Dataset: "nba", R: 7, Parallelism: par})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("parallelism case %d: status %d: %s", ci, resp.StatusCode, body)
		}
		var got solveResponse
		if err := json.Unmarshal(body, &got); err != nil {
			t.Fatal(err)
		}
		answers = append(answers, got)
	}
	for _, got := range answers[1:] {
		if !reflect.DeepEqual(got.IDs, answers[0].IDs) || got.RankRegret != answers[0].RankRegret {
			t.Errorf("parallelism changed the answer: %+v vs %+v", got, answers[0])
		}
	}
	if got := cacheHits(t, ts.URL) - hits; got < 3 {
		t.Errorf("cache hits = %d, want >= 3 (parallelism must not fragment the cache key)", got)
	}
}

func intp(i int) *int { return &i }

// TestConcurrentSolves hammers /v1/solve from 40 goroutines — beyond the
// acceptance bar of 32 — mixing cache-identical and distinct requests, and
// checks every response against the library answer computed directly.
func TestConcurrentSolves(t *testing.T) {
	_, ts := newTestServer(t)
	ds := dataset.SimIsland(xrand.New(1), 400)
	want := make(map[int][]int)
	for r := 2; r <= 6; r++ {
		sol, err := rankregret.Solve(t.Context(), ds, r, nil)
		if err != nil {
			t.Fatal(err)
		}
		want[r] = sol.IDs
	}

	const workers = 40
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for i := 0; i < workers; i++ {
		r := 2 + i%5
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf, _ := json.Marshal(solveRequest{Dataset: "island", R: r})
			resp, err := http.Post(ts.URL+"/v1/solve", "application/json", bytes.NewReader(buf))
			if err != nil {
				errs <- err
				return
			}
			defer resp.Body.Close()
			var got solveResponse
			if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
				errs <- err
				return
			}
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("status %d", resp.StatusCode)
				return
			}
			if !reflect.DeepEqual(got.IDs, want[r]) {
				errs <- fmt.Errorf("r=%d: ids %v, want %v", r, got.IDs, want[r])
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestSolveCache verifies a re-solve with identical parameters is answered
// from the engine cache: the hit counter moves and the IDs are identical.
func TestSolveCache(t *testing.T) {
	_, ts := newTestServer(t)
	req := solveRequest{Dataset: "nba", R: 8, Algorithm: "hdrrm", MaxSamples: 2000}

	resp1, body1 := postJSON(t, ts.URL+"/v1/solve", req)
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("first solve: status %d: %s", resp1.StatusCode, body1)
	}
	var first solveResponse
	if err := json.Unmarshal(body1, &first); err != nil {
		t.Fatal(err)
	}
	hits := cacheHits(t, ts.URL)

	resp2, body2 := postJSON(t, ts.URL+"/v1/solve", req)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("second solve: status %d: %s", resp2.StatusCode, body2)
	}
	var second solveResponse
	if err := json.Unmarshal(body2, &second); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first.IDs, second.IDs) {
		t.Errorf("cached re-solve ids %v != %v", second.IDs, first.IDs)
	}
	if got := cacheHits(t, ts.URL); got <= hits {
		t.Errorf("cache hits did not increase across the re-solve: %d -> %d", hits, got)
	}
}

// TestSolveTimeout asserts a tiny per-request timeout aborts a large HDRRM
// solve long before it could complete.
func TestSolveTimeout(t *testing.T) {
	srv, ts := newTestServer(t)
	if err := srv.AddDataset(t.Context(), "weather", dataset.SimWeather(xrand.New(1), 120000)); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	resp, body := postJSON(t, ts.URL+"/v1/solve", solveRequest{
		Dataset: "weather", R: 10, Algorithm: "hdrrm", TimeoutMS: 50,
	})
	elapsed := time.Since(start)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d (%s), want 504", resp.StatusCode, body)
	}
	if elapsed > 10*time.Second {
		t.Errorf("timed-out solve took %v, want well under the full solve time", elapsed)
	}
}

func TestUploadListEvaluate(t *testing.T) {
	_, ts := newTestServer(t)
	const csvData = "a,b\n1,9\n9,1\n6,7\n2,2\n"
	resp, err := http.Post(ts.URL+"/v1/datasets?name=tiny&header=1", "text/csv", strings.NewReader(csvData))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("upload status %d", resp.StatusCode)
	}

	listResp, err := http.Get(ts.URL + "/v1/datasets")
	if err != nil {
		t.Fatal(err)
	}
	defer listResp.Body.Close()
	var list struct {
		Datasets []datasetInfo `json:"datasets"`
	}
	if err := json.NewDecoder(listResp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	names := make([]string, len(list.Datasets))
	for i, d := range list.Datasets {
		names[i] = d.Name
	}
	if !reflect.DeepEqual(names, []string{"island", "nba", "tiny"}) {
		t.Errorf("dataset names = %v", names)
	}

	sResp, sBody := postJSON(t, ts.URL+"/v1/solve", solveRequest{Dataset: "tiny", R: 2, EvalSamples: 2000})
	if sResp.StatusCode != http.StatusOK {
		t.Fatalf("solve status %d: %s", sResp.StatusCode, sBody)
	}
	var sol solveResponse
	if err := json.Unmarshal(sBody, &sol); err != nil {
		t.Fatal(err)
	}
	if sol.Estimated == nil {
		t.Fatal("eval_samples > 0 should include an estimate")
	}

	eResp, eBody := postJSON(t, ts.URL+"/v1/evaluate", evaluateRequest{Dataset: "tiny", IDs: sol.IDs, Samples: 2000})
	if eResp.StatusCode != http.StatusOK {
		t.Fatalf("evaluate status %d: %s", eResp.StatusCode, eBody)
	}
	var ev struct {
		RankRegret int `json:"rank_regret"`
	}
	if err := json.Unmarshal(eBody, &ev); err != nil {
		t.Fatal(err)
	}
	if ev.RankRegret < 1 || ev.RankRegret > 4 {
		t.Errorf("evaluated rank-regret %d out of range", ev.RankRegret)
	}
}

func TestRequestValidation(t *testing.T) {
	_, ts := newTestServer(t)
	cases := []struct {
		name   string
		req    solveRequest
		status int
	}{
		{"both r and k", solveRequest{Dataset: "island", R: 5, K: 5}, http.StatusBadRequest},
		{"neither r nor k", solveRequest{Dataset: "island"}, http.StatusBadRequest},
		{"unknown dataset", solveRequest{Dataset: "nope", R: 5}, http.StatusNotFound},
		{"bad space", solveRequest{Dataset: "island", R: 5, Space: "sphere:1"}, http.StatusBadRequest},
		{"unknown algorithm", solveRequest{Dataset: "island", R: 5, Algorithm: "quantum"}, http.StatusUnprocessableEntity},
		{"2d-only on 5d", solveRequest{Dataset: "nba", R: 5, Algorithm: "2drrm"}, http.StatusUnprocessableEntity},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, body := postJSON(t, ts.URL+"/v1/solve", tc.req)
			if resp.StatusCode != tc.status {
				t.Errorf("status %d, want %d (%s)", resp.StatusCode, tc.status, body)
			}
		})
	}
}

// requireJSONError fails unless body is a JSON object with a non-empty
// "error" field: every 4xx rrmd sends tells the client what was wrong.
func requireJSONError(t *testing.T, resp *http.Response, body []byte) {
	t.Helper()
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("error response Content-Type %q, want application/json (%s)", ct, body)
	}
	var e struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
		t.Errorf("error response is not a JSON error body (%v): %s", err, body)
	}
}

// TestEndpointNegativePaths sends each endpoint a request it must refuse —
// unknown ids and names, empty and oversize batches, an unparsable CSV —
// and checks the 4xx status and the JSON error body. Cases other tests
// already check (malformed and oversize JSON bodies, solve and mutation
// validation, unknown traces) are left to them.
func TestEndpointNegativePaths(t *testing.T) {
	_, ts := newTestServer(t)
	item := `{"dataset":"island","r":3}`
	overBatch := `{"requests":[` + strings.Repeat(item+",", maxBatchSize) + item + `]}`
	cases := []struct {
		name, method, path, contentType, body string
		status                                int
	}{
		{"batch-empty", http.MethodPost, "/v1/solve/batch", "application/json", `{"requests":[]}`, http.StatusBadRequest},
		{"batch-over-limit", http.MethodPost, "/v1/solve/batch", "application/json", overBatch, http.StatusBadRequest},
		{"job-get-unknown", http.MethodGet, "/v1/jobs/nope", "", "", http.StatusNotFound},
		{"job-cancel-unknown", http.MethodDelete, "/v1/jobs/nope", "", "", http.StatusNotFound},
		{"incident-unknown", http.MethodGet, "/v1/incidents/nope", "", "", http.StatusNotFound},
		{"evaluate-unknown-dataset", http.MethodPost, "/v1/evaluate", "application/json", `{"dataset":"nope","ids":[0]}`, http.StatusNotFound},
		{"dataset-get-unknown", http.MethodGet, "/v1/datasets/nope", "", "", http.StatusNotFound},
		{"dataset-drop-unknown", http.MethodDelete, "/v1/datasets/nope", "", "", http.StatusNotFound},
		{"upload-non-numeric", http.MethodPost, "/v1/datasets?name=words&header=1", "text/csv", "a,b\n1,2\nthree,4\n", http.StatusBadRequest},
		{"upload-no-name", http.MethodPost, "/v1/datasets", "text/csv", "a,b\n1,2\n", http.StatusBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req, err := http.NewRequest(tc.method, ts.URL+tc.path, strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			if tc.contentType != "" {
				req.Header.Set("Content-Type", tc.contentType)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			var body bytes.Buffer
			body.ReadFrom(resp.Body)
			if resp.StatusCode != tc.status {
				t.Fatalf("status %d, want %d (%s)", resp.StatusCode, tc.status, body.Bytes())
			}
			requireJSONError(t, resp, body.Bytes())
		})
	}
	// None of the refused uploads registered a dataset.
	resp, body := doJSON(t, http.MethodGet, ts.URL+"/v1/datasets", nil)
	if resp.StatusCode != http.StatusOK || strings.Count(string(body), `"name"`) != 2 {
		t.Fatalf("refused uploads changed the registry: %d %s", resp.StatusCode, body)
	}
}

// TestJSONBodyLimits sends every JSON endpoint an oversize body and a
// malformed one: the first must be cut off at MaxUploadBytes with 413, the
// second rejected with 400, and neither may reach the handler's logic.
func TestJSONBodyLimits(t *testing.T) {
	srv, ts := newTestServerWith(t, Config{MaxUploadBytes: 512})
	// Valid JSON up to the cap, so only the size can fail the decode.
	oversize := `{"pad":"` + strings.Repeat("a", 4096) + `"}`
	endpoints := []struct{ method, path string }{
		{http.MethodPost, "/v1/datasets/island/rows"},
		{http.MethodDelete, "/v1/datasets/island/rows"},
		{http.MethodPost, "/v1/solve"},
		{http.MethodPost, "/v1/solve/batch"},
		{http.MethodPost, "/v1/jobs"},
		{http.MethodPost, "/v1/evaluate"},
	}
	bodies := []struct {
		name   string
		body   string
		status int
	}{
		{"oversize", oversize, http.StatusRequestEntityTooLarge},
		{"malformed", `{"dataset": "island", "r": `, http.StatusBadRequest},
	}
	for _, ep := range endpoints {
		for _, b := range bodies {
			t.Run(ep.method+" "+ep.path+"/"+b.name, func(t *testing.T) {
				req, err := http.NewRequest(ep.method, ts.URL+ep.path, strings.NewReader(b.body))
				if err != nil {
					t.Fatal(err)
				}
				req.Header.Set("Content-Type", "application/json")
				resp, err := http.DefaultClient.Do(req)
				if err != nil {
					t.Fatal(err)
				}
				defer resp.Body.Close()
				var out bytes.Buffer
				out.ReadFrom(resp.Body)
				if resp.StatusCode != b.status {
					t.Errorf("status %d, want %d (%s)", resp.StatusCode, b.status, out.Bytes())
				}
				requireJSONError(t, resp, out.Bytes())
			})
		}
	}
	// No rejected append or delete reached the store.
	nd, _ := srv.store.Get("island")
	if n := nd.Current().N(); n != 400 {
		t.Errorf("island has %d rows after rejected mutations, want 400", n)
	}
}

// canonicalResult reduces any solve-shaped JSON (a /v1/solve response, a
// batch item, or a job result) to the marshaled stable solveResult subset,
// so results from different endpoints can be compared byte-for-byte.
func canonicalResult(t *testing.T, raw []byte) []byte {
	t.Helper()
	var res solveResult
	if err := json.Unmarshal(raw, &res); err != nil {
		t.Fatalf("unmarshal result: %v (%s)", err, raw)
	}
	out, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// goldenRequests is the mixed workload the batch/jobs equivalence tests
// replay: both datasets, both problem modes, auto and explicit algorithms.
func goldenRequests() []solveRequest {
	return []solveRequest{
		{Dataset: "island", R: 5},
		{Dataset: "island", R: 7},
		{Dataset: "nba", R: 6, Algorithm: "hdrrm", MaxSamples: 800},
		{Dataset: "nba", R: 8, Algorithm: "hdrrm", MaxSamples: 800},
		{Dataset: "nba", K: 25, Algorithm: "hdrrm", MaxSamples: 800},
		{Dataset: "island", K: 3},
	}
}

// sequentialGolden answers each request through plain /v1/solve and returns
// the canonical result bytes.
func sequentialGolden(t *testing.T, url string, reqs []solveRequest) [][]byte {
	t.Helper()
	out := make([][]byte, len(reqs))
	for i, sr := range reqs {
		resp, body := postJSON(t, url+"/v1/solve", sr)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("sequential solve %d: status %d: %s", i, resp.StatusCode, body)
		}
		out[i] = canonicalResult(t, body)
	}
	return out
}

// TestBatchMatchesSequentialSolve is the golden equivalence check for
// POST /v1/solve/batch: every batch item must be byte-identical (on the
// stable result subset) to the corresponding sequential /v1/solve call.
func TestBatchMatchesSequentialSolve(t *testing.T) {
	_, ts := newTestServer(t)
	reqs := goldenRequests()
	want := sequentialGolden(t, ts.URL, reqs)

	resp, body := postJSON(t, ts.URL+"/v1/solve/batch", map[string]any{"requests": reqs})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status %d: %s", resp.StatusCode, body)
	}
	var batch struct {
		Count   int               `json:"count"`
		Results []json.RawMessage `json:"results"`
	}
	if err := json.Unmarshal(body, &batch); err != nil {
		t.Fatal(err)
	}
	if batch.Count != len(reqs) || len(batch.Results) != len(reqs) {
		t.Fatalf("batch answered %d/%d items, want %d", batch.Count, len(batch.Results), len(reqs))
	}
	for i, raw := range batch.Results {
		var item struct {
			Index int    `json:"index"`
			Error string `json:"error"`
		}
		if err := json.Unmarshal(raw, &item); err != nil {
			t.Fatal(err)
		}
		if item.Error != "" {
			t.Fatalf("batch item %d failed: %s", i, item.Error)
		}
		if item.Index != i {
			t.Errorf("batch item %d carries index %d", i, item.Index)
		}
		if got := canonicalResult(t, raw); !bytes.Equal(got, want[i]) {
			t.Errorf("batch item %d = %s, sequential = %s", i, got, want[i])
		}
	}
}

// waitForJob polls GET /v1/jobs/{id} until the job leaves the queued and
// running states.
func waitForJob(t *testing.T, url, id string) jobStatusResponse {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(url + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var st jobStatusResponse
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if st.State == engine.JobDone || st.State == engine.JobFailed {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s still %s after 30s", id, st.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestJobsMatchSequentialSolve is the golden equivalence check for the
// async path: POST /v1/jobs + GET /v1/jobs/{id} must produce results
// byte-identical to sequential /v1/solve calls.
func TestJobsMatchSequentialSolve(t *testing.T) {
	_, ts := newTestServer(t)
	reqs := goldenRequests()
	want := sequentialGolden(t, ts.URL, reqs)

	ids := make([]string, len(reqs))
	for i, sr := range reqs {
		resp, body := postJSON(t, ts.URL+"/v1/jobs", sr)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("job submit %d: status %d: %s", i, resp.StatusCode, body)
		}
		var st jobStatusResponse
		if err := json.Unmarshal(body, &st); err != nil {
			t.Fatal(err)
		}
		if st.ID == "" || (st.State != engine.JobQueued && st.State != engine.JobRunning) {
			t.Fatalf("job submit %d returned %+v", i, st)
		}
		ids[i] = st.ID
	}
	for i, id := range ids {
		st := waitForJob(t, ts.URL, id)
		if st.State != engine.JobDone || st.Result == nil {
			t.Fatalf("job %s = %+v, want done with a result", id, st)
		}
		raw, err := json.Marshal(st.Result)
		if err != nil {
			t.Fatal(err)
		}
		if got := canonicalResult(t, raw); !bytes.Equal(got, want[i]) {
			t.Errorf("job %d result = %s, sequential = %s", i, got, want[i])
		}
	}
}

// TestJobCancelEndpoint cancels an expensive job through DELETE and checks
// it lands in the failed state with a cancellation error.
func TestJobCancelEndpoint(t *testing.T) {
	srv, ts := newTestServer(t)
	// A dataset large enough that the solve cannot finish before the
	// cancellation lands.
	if err := srv.AddDataset(t.Context(), "weather", dataset.SimWeather(xrand.New(1), 4000)); err != nil {
		t.Fatal(err)
	}
	resp, body := postJSON(t, ts.URL+"/v1/jobs", solveRequest{Dataset: "weather", R: 10, Algorithm: "hdrrm"})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d: %s", resp.StatusCode, body)
	}
	var st jobStatusResponse
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	delReq, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+st.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	delResp, err := http.DefaultClient.Do(delReq)
	if err != nil {
		t.Fatal(err)
	}
	delResp.Body.Close()
	if delResp.StatusCode != http.StatusOK {
		t.Fatalf("cancel status %d", delResp.StatusCode)
	}
	final := waitForJob(t, ts.URL, st.ID)
	if final.State != engine.JobFailed || !strings.Contains(final.Error, "cancel") {
		t.Errorf("cancelled job = %+v, want failed with a cancellation error", final)
	}
}

// TestMetricsEndpoint checks GET /v1/metrics surfaces both cache tiers and
// the scheduler, and that an r-sweep over one dataset registers as a single
// VecSet build.
func TestMetricsEndpoint(t *testing.T) {
	_, ts := newTestServer(t)
	for _, r := range []int{6, 7, 8} {
		resp, body := postJSON(t, ts.URL+"/v1/solve", solveRequest{Dataset: "nba", R: r, Algorithm: "hdrrm", MaxSamples: 800})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("solve r=%d: status %d: %s", r, resp.StatusCode, body)
		}
	}
	resp, err := http.Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var metrics struct {
		Engine    engine.Metrics        `json:"engine"`
		Scheduler engine.SchedulerStats `json:"scheduler"`
		Datasets  int                   `json:"datasets"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&metrics); err != nil {
		t.Fatal(err)
	}
	if metrics.Engine.VecSets.Builds != 1 {
		t.Errorf("r-sweep built %d vector sets, want 1 (stats: %+v)", metrics.Engine.VecSets.Builds, metrics.Engine.VecSets)
	}
	if metrics.Engine.VecSets.Reuses < 2 {
		t.Errorf("r-sweep reuses = %d, want >= 2", metrics.Engine.VecSets.Reuses)
	}
	if metrics.Engine.Solutions.Misses != 3 {
		t.Errorf("solution misses = %d, want 3", metrics.Engine.Solutions.Misses)
	}
	if metrics.Scheduler.Workers < 1 || metrics.Scheduler.QueueCap < 1 {
		t.Errorf("scheduler stats not populated: %+v", metrics.Scheduler)
	}
	if metrics.Datasets != 2 {
		t.Errorf("datasets = %d, want 2", metrics.Datasets)
	}
}

// TestBatchPartialValidation checks that invalid batch items are answered
// inline without sinking the valid ones.
func TestBatchPartialValidation(t *testing.T) {
	_, ts := newTestServer(t)
	reqs := []solveRequest{
		{Dataset: "nosuch", R: 5},
		{Dataset: "island", R: 4},
		{Dataset: "island"}, // neither r nor k
	}
	resp, body := postJSON(t, ts.URL+"/v1/solve/batch", map[string]any{"requests": reqs})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status %d: %s", resp.StatusCode, body)
	}
	var batch struct {
		Results []struct {
			Index int    `json:"index"`
			IDs   []int  `json:"ids"`
			Error string `json:"error"`
		} `json:"results"`
	}
	if err := json.Unmarshal(body, &batch); err != nil {
		t.Fatal(err)
	}
	if len(batch.Results) != 3 {
		t.Fatalf("got %d results, want 3", len(batch.Results))
	}
	if !strings.Contains(batch.Results[0].Error, "unknown dataset") {
		t.Errorf("item 0 error = %q, want unknown dataset", batch.Results[0].Error)
	}
	if batch.Results[1].Error != "" || len(batch.Results[1].IDs) == 0 {
		t.Errorf("valid item 1 failed: %+v", batch.Results[1])
	}
	if !strings.Contains(batch.Results[2].Error, "exactly one of r and k") {
		t.Errorf("item 2 error = %q, want r/k validation", batch.Results[2].Error)
	}
}

// TestEvaluateTimeout: /v1/evaluate runs the estimator on the request
// goroutine, and the estimator's own ctx checks end a timed-out request
// promptly with 504, long before a million samples could finish.
func TestEvaluateTimeout(t *testing.T) {
	_, ts := newTestServer(t)
	start := time.Now()
	resp, body := postJSON(t, ts.URL+"/v1/evaluate",
		evaluateRequest{Dataset: "nba", IDs: []int{0}, Samples: 1_000_000, TimeoutMS: 1})
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("evaluate past its deadline: status %d, want 504: %s", resp.StatusCode, body)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("timed-out evaluate took %v, want < 2s", elapsed)
	}
}
