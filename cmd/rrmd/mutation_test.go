package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"reflect"
	"sync"
	"testing"
	"time"

	"github.com/rankregret/rankregret/internal/dataset"
	"github.com/rankregret/rankregret/internal/store"
	"github.com/rankregret/rankregret/internal/xrand"
)

func doJSON(t *testing.T, method, url string, body any) (*http.Response, []byte) {
	t.Helper()
	var buf []byte
	if body != nil {
		var err error
		buf, err = json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
	}
	req, err := http.NewRequest(method, url, bytes.NewReader(buf))
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
	if _, err := out.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, out.Bytes()
}

func decode[T any](t *testing.T, body []byte) T {
	t.Helper()
	var v T
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatalf("decoding %s: %v", body, err)
	}
	return v
}

// TestMutationEndpointsGolden walks the mutation API through a scripted
// append/delete sequence, checking each response's shape and that solves on
// the evolving current version always match a freshly-registered dataset
// with the same content.
func TestMutationEndpointsGolden(t *testing.T) {
	srv, ts := newTestServer(t)

	// Baseline solve on the initial version.
	resp, body := postJSON(t, ts.URL+"/v1/solve", solveRequest{Dataset: "island", R: 5})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("baseline solve: %d %s", resp.StatusCode, body)
	}
	base := decode[solveResponse](t, body)

	ds0, _ := srv.dataset("island")
	v0 := ds0.Version()
	n0 := ds0.N()

	// Append two rows.
	rows := [][]float64{{0.91, 0.33}, {0.12, 0.86}}
	resp, body = doJSON(t, http.MethodPost, ts.URL+"/v1/datasets/island/rows", map[string]any{"rows": rows})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("append: %d %s", resp.StatusCode, body)
	}
	mr := decode[mutateResponse](t, body)
	if mr.N != n0+2 || mr.Appended != 2 || mr.Version != v0+2 {
		t.Fatalf("append response = %+v, want n=%d appended=2 version=%d", mr, n0+2, v0+2)
	}

	// The new rows are visible to solves and results match a fresh registry
	// entry with identical content.
	cur, _ := srv.dataset("island")
	if cur.N() != n0+2 {
		t.Fatalf("current n = %d", cur.N())
	}
	resp, body = postJSON(t, ts.URL+"/v1/solve", solveRequest{Dataset: "island", R: 5})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-append solve: %d %s", resp.StatusCode, body)
	}
	got := decode[solveResponse](t, body)
	srv2, ts2 := newTestServer(t)
	fresh := dataset.SimIsland(xrand.New(1), 400)
	fresh.Append(rows[0])
	fresh.Append(rows[1])
	if err := srv2.AddDataset(t.Context(), "island2", fresh); err != nil {
		t.Fatal(err)
	}
	resp, body = postJSON(t, ts2.URL+"/v1/solve", solveRequest{Dataset: "island2", R: 5})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fresh solve: %d %s", resp.StatusCode, body)
	}
	want := decode[solveResponse](t, body)
	if !reflect.DeepEqual(got.IDs, want.IDs) || got.RankRegret != want.RankRegret {
		t.Fatalf("post-append solve %+v != fresh-content solve %+v", got.solveResult, want.solveResult)
	}

	// Delete the two appended rows: content (and fingerprint) round-trips.
	resp, body = doJSON(t, http.MethodDelete, ts.URL+"/v1/datasets/island/rows", map[string]any{"ids": []int{n0, n0 + 1}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("delete: %d %s", resp.StatusCode, body)
	}
	mr = decode[mutateResponse](t, body)
	if mr.N != n0 || mr.Deleted != 2 || mr.Version != v0+3 {
		t.Fatalf("delete response = %+v, want n=%d deleted=2 version=%d", mr, n0, v0+3)
	}
	cur, _ = srv.dataset("island")
	if cur.Fingerprint() != ds0.Fingerprint() {
		t.Fatal("append+delete round trip changed the fingerprint")
	}
	resp, body = postJSON(t, ts.URL+"/v1/solve", solveRequest{Dataset: "island", R: 5})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("round-trip solve: %d %s", resp.StatusCode, body)
	}
	rt := decode[solveResponse](t, body)
	if !reflect.DeepEqual(rt.IDs, base.IDs) || rt.RankRegret != base.RankRegret {
		t.Fatalf("round-trip solve %+v != baseline %+v", rt.solveResult, base.solveResult)
	}

	// Versions list shows the retained history, newest marked current.
	resp, body = doJSON(t, http.MethodGet, ts.URL+"/v1/datasets/island/versions", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("versions: %d %s", resp.StatusCode, body)
	}
	vl := decode[struct {
		Dataset  string        `json:"dataset"`
		Versions []versionInfo `json:"versions"`
	}](t, body)
	if vl.Dataset != "island" || len(vl.Versions) != 3 {
		t.Fatalf("versions = %+v, want 3 entries", vl)
	}
	wantVersions := []uint64{v0, v0 + 2, v0 + 3}
	for i, vi := range vl.Versions {
		if vi.Version != wantVersions[i] || vi.Current != (i == 2) {
			t.Fatalf("version entry %d = %+v, want version %d", i, vi, wantVersions[i])
		}
	}

	// Pinned solve on the middle (appended) version equals the solve taken
	// when it was current.
	resp, body = postJSON(t, ts.URL+"/v1/solve", solveRequest{Dataset: "island", R: 5, Version: v0 + 2})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pinned solve: %d %s", resp.StatusCode, body)
	}
	pinned := decode[solveResponse](t, body)
	if !reflect.DeepEqual(pinned.IDs, got.IDs) || pinned.RankRegret != got.RankRegret {
		t.Fatalf("pinned solve %+v != original %+v", pinned.solveResult, got.solveResult)
	}
}

// TestMutationValidation covers the mutation endpoints' rejection paths.
func TestMutationValidation(t *testing.T) {
	_, ts := newTestServer(t)
	cases := []struct {
		name   string
		method string
		url    string
		body   any
		status int
	}{
		{"append-unknown-dataset", http.MethodPost, "/v1/datasets/nope/rows", map[string]any{"rows": [][]float64{{1, 2}}}, http.StatusNotFound},
		{"append-empty", http.MethodPost, "/v1/datasets/island/rows", map[string]any{"rows": [][]float64{}}, http.StatusBadRequest},
		{"append-bad-dim", http.MethodPost, "/v1/datasets/island/rows", map[string]any{"rows": [][]float64{{1, 2, 3}}}, http.StatusBadRequest},
		{"append-malformed-number", http.MethodPost, "/v1/datasets/island/rows", map[string]any{"rows": []any{[]any{"NaN", 1.0}}}, http.StatusBadRequest},
		{"delete-unknown-dataset", http.MethodDelete, "/v1/datasets/nope/rows", map[string]any{"ids": []int{0}}, http.StatusNotFound},
		{"delete-empty", http.MethodDelete, "/v1/datasets/island/rows", map[string]any{"ids": []int{}}, http.StatusBadRequest},
		{"delete-out-of-range", http.MethodDelete, "/v1/datasets/island/rows", map[string]any{"ids": []int{99999}}, http.StatusBadRequest},
		{"versions-unknown-dataset", http.MethodGet, "/v1/datasets/nope/versions", nil, http.StatusNotFound},
		{"solve-unretained-version", http.MethodPost, "/v1/solve", solveRequest{Dataset: "island", R: 3, Version: 12345}, http.StatusGone},
		{"evaluate-unretained-version", http.MethodPost, "/v1/evaluate", evaluateRequest{Dataset: "island", Version: 12345, IDs: []int{0}}, http.StatusGone},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, body := doJSON(t, tc.method, ts.URL+tc.url, tc.body)
			if resp.StatusCode != tc.status {
				t.Fatalf("status %d, want %d: %s", resp.StatusCode, tc.status, body)
			}
		})
	}

	// A failed mutation publishes nothing.
	resp, body := doJSON(t, http.MethodGet, ts.URL+"/v1/datasets/island/versions", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("versions: %d %s", resp.StatusCode, body)
	}
	vl := decode[struct {
		Versions []versionInfo `json:"versions"`
	}](t, body)
	if len(vl.Versions) != 1 {
		t.Fatalf("rejected mutations grew the history: %+v", vl.Versions)
	}
}

// TestVersionZeroDatasetsArePinnable registers a derived (version-0)
// dataset — 0 is the wire sentinel for "current", so the registry must
// re-materialize it with a real version number or its retained history
// entry could never be pinned.
func TestVersionZeroDatasetsArePinnable(t *testing.T) {
	srv, ts := newTestServer(t)
	derived := dataset.SimIsland(xrand.New(2), 300).Clone() // Clone: version 0
	if derived.Version() != 0 {
		t.Fatal("test premise: Clone should be at version 0")
	}
	if err := srv.AddDataset(t.Context(), "derived", derived); err != nil {
		t.Fatal(err)
	}
	cur, _ := srv.dataset("derived")
	v0 := cur.Version()
	if v0 == 0 {
		t.Fatal("registry kept an unpinnable version-0 dataset")
	}
	if cur.Fingerprint() != derived.Fingerprint() {
		t.Fatal("re-materialization changed the content fingerprint")
	}
	resp, body := doJSON(t, http.MethodPost, ts.URL+"/v1/datasets/derived/rows",
		map[string]any{"rows": [][]float64{{0.4, 0.6}}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("append: %d %s", resp.StatusCode, body)
	}
	resp, body = postJSON(t, ts.URL+"/v1/solve", solveRequest{Dataset: "derived", R: 3, Version: v0})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pinning the pre-mutation version: %d %s", resp.StatusCode, body)
	}
}

// TestVersionRetentionAgesOut mutates past the retention cap and checks old
// versions stop resolving with 410 while retained ones still solve.
func TestVersionRetentionAgesOut(t *testing.T) {
	srv, ts := newTestServerOn(t, store.Options{Retain: 3}, Config{})
	ds0, _ := srv.dataset("island")
	v0 := ds0.Version()
	for i := 0; i < 4; i++ {
		resp, body := doJSON(t, http.MethodPost, ts.URL+"/v1/datasets/island/rows",
			map[string]any{"rows": [][]float64{{0.5, 0.5}}})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("append %d: %d %s", i, resp.StatusCode, body)
		}
	}
	resp, body := doJSON(t, http.MethodGet, ts.URL+"/v1/datasets/island/versions", nil)
	vl := decode[struct {
		Versions []versionInfo `json:"versions"`
	}](t, body)
	if resp.StatusCode != http.StatusOK || len(vl.Versions) != 3 {
		t.Fatalf("versions after churn = %+v", vl.Versions)
	}
	// The initial version aged out.
	resp, body = postJSON(t, ts.URL+"/v1/solve", solveRequest{Dataset: "island", R: 3, Version: v0})
	if resp.StatusCode != http.StatusGone {
		t.Fatalf("aged-out version solve: %d %s", resp.StatusCode, body)
	}
	// The oldest retained version still solves.
	resp, body = postJSON(t, ts.URL+"/v1/solve", solveRequest{Dataset: "island", R: 3, Version: vl.Versions[0].Version})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("retained version solve: %d %s", resp.StatusCode, body)
	}
}

// TestConcurrentMutateWhileSolve hammers the daemon with concurrent
// mutations, current-version solves, pinned solves, and version listings.
// Every solve must return a solution consistent with SOME retained version's
// content — verified by re-solving the pinned version — and nothing may
// race (the -race CI job runs this test).
func TestConcurrentMutateWhileSolve(t *testing.T) {
	srv, ts := newTestServerOn(t, store.Options{Retain: 16}, Config{})

	const (
		mutators = 2
		solvers  = 4
		rounds   = 8
	)
	var wg sync.WaitGroup
	errs := make(chan error, mutators*rounds+solvers*rounds)

	for m := 0; m < mutators; m++ {
		wg.Add(1)
		go func(m int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				if i%3 == 2 {
					// Delete a low row id: always in range (n >= 400).
					resp, body := doJSON(t, http.MethodDelete, ts.URL+"/v1/datasets/nba/rows",
						map[string]any{"ids": []int{m*7 + i}})
					if resp.StatusCode != http.StatusOK {
						errs <- fmt.Errorf("mutator %d delete %d: %d %s", m, i, resp.StatusCode, body)
						return
					}
					continue
				}
				rows := [][]float64{{0.1 * float64(m+1), 0.2, 0.3, 0.4, 0.5}}
				resp, body := doJSON(t, http.MethodPost, ts.URL+"/v1/datasets/nba/rows",
					map[string]any{"rows": rows})
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("mutator %d append %d: %d %s", m, i, resp.StatusCode, body)
					return
				}
			}
		}(m)
	}

	for w := 0; w < solvers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				resp, body := postJSON(t, ts.URL+"/v1/solve", solveRequest{
					Dataset: "nba", R: 3 + w%3, Samples: 200, TimeoutMS: int64(20 * time.Second / time.Millisecond),
				})
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("solver %d round %d: %d %s", w, i, resp.StatusCode, body)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Every retained version must be internally consistent: a pinned solve
	// answers, and repeating it pinned to the same version is identical.
	_, body := doJSON(t, http.MethodGet, ts.URL+"/v1/datasets/nba/versions", nil)
	vl := decode[struct {
		Versions []versionInfo `json:"versions"`
	}](t, body)
	if len(vl.Versions) < 2 {
		t.Fatalf("expected mutation history, got %+v", vl.Versions)
	}
	for _, vi := range vl.Versions {
		req := solveRequest{Dataset: "nba", R: 4, Samples: 200, Version: vi.Version}
		resp, body := postJSON(t, ts.URL+"/v1/solve", req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("pinned solve v%d: %d %s", vi.Version, resp.StatusCode, body)
		}
		first := decode[solveResponse](t, body)
		resp, body = postJSON(t, ts.URL+"/v1/solve", req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("pinned re-solve v%d: %d %s", vi.Version, resp.StatusCode, body)
		}
		second := decode[solveResponse](t, body)
		if !reflect.DeepEqual(first.IDs, second.IDs) || first.RankRegret != second.RankRegret {
			t.Fatalf("pinned solves on v%d diverged: %+v vs %+v", vi.Version, first.solveResult, second.solveResult)
		}
	}
	// Deterministic repair check: the current version's VecSet entry is warm
	// from the loop above, so one more append must be served by incremental
	// repair, not a rebuild.
	before := srv.eng.VecSetStats()
	resp, body := doJSON(t, http.MethodPost, ts.URL+"/v1/datasets/nba/rows",
		map[string]any{"rows": [][]float64{{0.01, 0.01, 0.01, 0.01, 0.01}}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("final append: %d %s", resp.StatusCode, body)
	}
	resp, body = postJSON(t, ts.URL+"/v1/solve", solveRequest{Dataset: "nba", R: 4, Samples: 200})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("final solve: %d %s", resp.StatusCode, body)
	}
	after := srv.eng.VecSetStats()
	if after.Repairs != before.Repairs+1 || after.Builds != before.Builds {
		t.Fatalf("final append solve was not an incremental repair: %+v -> %+v", before, after)
	}
}
