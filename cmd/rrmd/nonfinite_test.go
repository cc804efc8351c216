package main

import (
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"strings"
	"testing"

	"github.com/rankregret/rankregret/internal/dataset"
)

func TestValidateRowsRejectsNonFinite(t *testing.T) {
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		err := validateRows([][]float64{{0.1, 0.2}, {0.3, v}}, 2)
		var nf *dataset.NonFiniteError
		if !errors.As(err, &nf) || nf.Row != 1 || nf.Col != 1 {
			t.Fatalf("value %v: err %v, want a NonFiniteError at row 1 attribute 1", v, err)
		}
	}
	if err := validateRows([][]float64{{0.1, 0.2}}, 2); err != nil {
		t.Fatalf("finite rows rejected: %v", err)
	}
}

// Non-finite numbers fail with a 4xx on every path where a client can send
// them, and publish nothing.
func TestNonFiniteInputRejected(t *testing.T) {
	_, ts := newTestServer(t)
	resp, body := doJSON(t, http.MethodPost, ts.URL+"/v1/datasets/island/rows",
		map[string]any{"rows": json.RawMessage(`[[1e999, 0.5]]`)})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("append of an out-of-range number: status %d, want 400: %s", resp.StatusCode, body)
	}
	for _, csv := range []string{"a,b\n1,2\nnan,3\n", "a,b\n1,+Inf\n", "a,b\n-infinity,2\n"} {
		resp, err := http.Post(ts.URL+"/v1/datasets?name=bad&header=1", "text/csv", strings.NewReader(csv))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("upload %q: status %d, want 400", csv, resp.StatusCode)
		}
	}
	resp, body = postJSON(t, ts.URL+"/v1/solve", solveRequest{Dataset: "island", R: 3, Space: "ball:NaN,0.5,0.5"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("NaN ball radius: status %d, want 400: %s", resp.StatusCode, body)
	}
	resp, body = doJSON(t, http.MethodGet, ts.URL+"/v1/datasets/island/versions", nil)
	if resp.StatusCode != http.StatusOK || strings.Count(string(body), `"version"`) != 1 {
		t.Fatalf("rejected input changed the history: %d %s", resp.StatusCode, body)
	}
}
