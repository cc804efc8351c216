package main

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"
)

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
