package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"github.com/rankregret/rankregret/internal/xrand"
)

// loadRunConfig parameterizes one open-loop run of a trace against a live
// rrmd.
type loadRunConfig struct {
	// BaseURL is the daemon root, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// RequestTimeout is the client-side guard on each request (0 = 30s).
	// It is a backstop; server-side budgets do the real bounding.
	RequestTimeout time.Duration
	// MaxSamples, when positive, is attached to every solve request as the
	// max_samples bound, capping the per-solve sampling cost. Use it to size
	// the workload to the machine: the serving smoke bounds it so the run
	// measures the serving path, not individual solve weight.
	MaxSamples int
	// OnResult, when set, receives every successful solve result (point
	// solves, pinned solves, and individual sweep items). It is called from
	// the firing goroutines concurrently; the callback must synchronize.
	// Equivalence tests use it to check that two servers given one trace
	// return identical solutions.
	OnResult func(solveOutcome)
	// Logf, when set, receives occasional progress lines.
	Logf func(format string, args ...any)
}

// solveOutcome is one captured solve result: which trace event (and, for
// sweep items, which batch index) produced which tuple set.
type solveOutcome struct {
	Event      int // index into loadTrace.Events
	Item       int // batch item index; -1 for point solves
	Dataset    string
	IDs        []int
	RankRegret int
	Exact      bool
}

// outcome is one fired event's result.
type outcome struct {
	kind     reqKind
	status   int
	latMS    float64
	rejected bool
	// degraded marks a 503 whose body carries reason "degraded": the store
	// refusing a mutation, as opposed to a full queue (429) or a draining
	// server (other 503s).
	degraded bool
	errText  string
	// batch item counts (sweep events only)
	itemsOK, itemsRejected, itemsFailed int
}

// loadRunner carries the shared state of one runLoad.
type loadRunner struct {
	cfg    loadRunConfig
	client *http.Client
	base   string
	dims   map[string]int // dataset -> dimensionality, for mutate rows

	mu       sync.Mutex
	outcomes []outcome
}

// runLoad fires the trace at the server open-loop — each event at its
// scheduled offset, never waiting for earlier events to complete — and
// reduces the outcomes to a loadReport. It returns once every in-flight
// request has finished (client-side timeouts bound the wait), leaving no
// goroutines behind. Cancelling ctx stops dispatching and cancels in-flight
// requests.
func runLoad(ctx context.Context, trace *loadTrace, cfg loadRunConfig) (*loadReport, error) {
	if trace == nil || len(trace.Events) == 0 {
		return nil, fmt.Errorf("loadgen: empty trace")
	}
	if cfg.BaseURL == "" {
		return nil, fmt.Errorf("loadgen: loadRunConfig.BaseURL is required")
	}
	if cfg.RequestTimeout <= 0 {
		cfg.RequestTimeout = 30 * time.Second
	}
	// The default transport keeps only two idle conns per host; an
	// open-loop burst would churn through ephemeral ports without this.
	tr := &http.Transport{
		MaxIdleConns:        256,
		MaxIdleConnsPerHost: 256,
	}
	// Drop the pool's idle connections (and their reader goroutines) when
	// the run ends instead of leaking them.
	defer tr.CloseIdleConnections()
	r := &loadRunner{cfg: cfg, client: &http.Client{Transport: tr}, base: cfg.BaseURL}

	if err := r.fetchDatasets(ctx, trace.Datasets); err != nil {
		return nil, err
	}

	// Open-loop dispatch: sleep to each event's offset, then fire it on its
	// own goroutine. Server slowness never delays the next event.
	start := time.Now()
	var wg sync.WaitGroup
	for i := range trace.Events {
		ev := &trace.Events[i]
		if d := time.Duration(ev.AtMS*float64(time.Millisecond)) - time.Since(start); d > 0 {
			select {
			case <-time.After(d):
			case <-ctx.Done():
			}
		}
		if ctx.Err() != nil {
			break
		}
		idx := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			r.fire(ctx, idx, ev)
		}()
	}
	wg.Wait()
	return r.report(time.Since(start)), nil
}

// listDatasets returns the name -> dimensionality map of every dataset the
// server at baseURL currently serves: the source of the r >= d floor a
// generated trace must respect.
func listDatasets(ctx context.Context, baseURL string) (map[string]int, error) {
	r := &loadRunner{client: http.DefaultClient, base: baseURL}
	var list struct {
		Datasets []datasetInfo `json:"datasets"`
	}
	status, err := r.getJSON(ctx, "/v1/datasets", &list)
	if err != nil {
		return nil, fmt.Errorf("loadgen: listing datasets at %s: %w", baseURL, err)
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("loadgen: listing datasets: HTTP %d", status)
	}
	dims := make(map[string]int, len(list.Datasets))
	for _, d := range list.Datasets {
		dims[d.Name] = d.D
	}
	return dims, nil
}

// fetchDatasets records the dimensionality of every dataset the trace
// targets, failing when the server lacks one.
func (r *loadRunner) fetchDatasets(ctx context.Context, want []string) error {
	dims, err := listDatasets(ctx, r.base)
	if err != nil {
		return err
	}
	r.dims = dims
	for _, name := range want {
		if _, ok := r.dims[name]; !ok {
			return fmt.Errorf("loadgen: server has no dataset %q (trace needs %v)", name, want)
		}
	}
	return nil
}

// fire executes one event and records its outcome.
func (r *loadRunner) fire(ctx context.Context, idx int, ev *traceEvent) {
	rctx, cancel := context.WithTimeout(ctx, r.cfg.RequestTimeout)
	defer cancel()
	o := outcome{kind: ev.Kind}
	start := time.Now()
	switch ev.Kind {
	case kindSolve:
		var res solveResult
		o.status, o.errText = r.postJSON(rctx, "/v1/solve", r.solveBody(ev.Dataset, ev.R, 0), &res)
		r.capture(idx, -1, ev, &res, o)
	case kindPinned:
		o.status, o.errText = r.firePinned(rctx, idx, ev)
	case kindSweep:
		o = r.fireSweep(rctx, idx, ev)
	case kindMutate:
		o.status, o.errText = r.postJSON(rctx, "/v1/datasets/"+ev.Dataset+"/rows", map[string]any{
			"rows": mutationRows(ev.Seed, ev.Rows, r.dims[ev.Dataset]),
		}, nil)
	default:
		o.errText = fmt.Sprintf("unknown event kind %q", ev.Kind)
	}
	o.latMS = float64(time.Since(start).Microseconds()) / 1000
	o.rejected = o.status == http.StatusTooManyRequests || o.status == http.StatusServiceUnavailable
	o.degraded = o.status == http.StatusServiceUnavailable && strings.Contains(o.errText, `"reason":"degraded"`)
	if o.errText != "" && !o.rejected && r.cfg.Logf != nil {
		r.cfg.Logf("event %d (%s %s): %s", idx, ev.Kind, ev.Dataset, o.errText)
	}
	r.mu.Lock()
	r.outcomes = append(r.outcomes, o)
	r.mu.Unlock()
}

// capture forwards a successful solve result to the OnResult hook.
func (r *loadRunner) capture(idx, item int, ev *traceEvent, res *solveResult, o outcome) {
	if r.cfg.OnResult == nil || o.errText != "" || o.status < 200 || o.status > 299 {
		return
	}
	r.cfg.OnResult(solveOutcome{
		Event:      idx,
		Item:       item,
		Dataset:    ev.Dataset,
		IDs:        res.IDs,
		RankRegret: res.RankRegret,
		Exact:      res.Exact,
	})
}

// firePinned resolves a retained version of the event's dataset and solves
// pinned to it — the request pattern of a client holding a version across
// mutations. The version lookup is part of the measured operation. It pins
// the second-newest retained version when there is one (a genuinely old
// snapshot that still cannot age out between the lookup and the solve), the
// current version otherwise.
func (r *loadRunner) firePinned(ctx context.Context, idx int, ev *traceEvent) (int, string) {
	var vl versionsResponse
	status, err := r.getJSON(ctx, "/v1/datasets/"+ev.Dataset+"/versions", &vl)
	if err != nil {
		return 0, err.Error()
	}
	if status != http.StatusOK || len(vl.Versions) == 0 {
		return status, fmt.Sprintf("versions lookup: HTTP %d", status)
	}
	pin := vl.Versions[0].Version
	if n := len(vl.Versions); n > 1 {
		pin = vl.Versions[n-2].Version
	}
	var res solveResult
	st, errText := r.postJSON(ctx, "/v1/solve", r.solveBody(ev.Dataset, ev.R, pin), &res)
	r.capture(idx, -1, ev, &res, outcome{status: st, errText: errText})
	return st, errText
}

func (r *loadRunner) fireSweep(ctx context.Context, idx int, ev *traceEvent) outcome {
	o := outcome{kind: ev.Kind}
	reqs := make([]map[string]any, 0, ev.Width)
	for i := 0; i < ev.Width; i++ {
		reqs = append(reqs, r.solveBody(ev.Dataset, ev.R+i, 0))
	}
	// batchItem's result is an embedded pointer to an unexported type,
	// which encoding/json cannot allocate, so items decode into a value.
	var batch struct {
		Results []struct {
			Index int `json:"index"`
			solveResult
			Error    string `json:"error"`
			Rejected bool   `json:"rejected"`
		} `json:"results"`
	}
	o.status, o.errText = r.postJSON(ctx, "/v1/solve/batch", map[string]any{"requests": reqs}, &batch)
	for _, it := range batch.Results {
		switch {
		case it.Rejected:
			o.itemsRejected++
		case it.Error != "":
			o.itemsFailed++
		case len(it.IDs) > 0:
			o.itemsOK++
			r.capture(idx, it.Index, ev, &it.solveResult, o)
		}
	}
	return o
}

// solveBody assembles one solve request, honoring the run-wide MaxSamples
// bound and an optional version pin (0 = current).
func (r *loadRunner) solveBody(ds string, rk int, version uint64) map[string]any {
	body := map[string]any{"dataset": ds, "r": rk}
	if version != 0 {
		body["version"] = version
	}
	if r.cfg.MaxSamples > 0 {
		body["max_samples"] = r.cfg.MaxSamples
	}
	return body
}

// mutationRows derives deterministic row content from the event seed, so
// every run of a trace appends byte-identical data. Values are uniform in
// [0,1] — the units of a normalized dataset.
func mutationRows(seed int64, rows, dim int) [][]float64 {
	rng := xrand.New(seed)
	out := make([][]float64, rows)
	for i := range out {
		row := make([]float64, dim)
		for j := range row {
			row[j] = rng.Float64()
		}
		out[i] = row
	}
	return out
}

// postJSON posts body and decodes a 2xx response into out (when non-nil).
// The returned string is an error description for transport failures or
// non-2xx statuses ("" on success); the int is the HTTP status (0 when the
// request never completed).
func (r *loadRunner) postJSON(ctx context.Context, path string, body any, out any) (int, string) {
	b, err := json.Marshal(body)
	if err != nil {
		return 0, err.Error()
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, r.base+path, bytes.NewReader(b))
	if err != nil {
		return 0, err.Error()
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := r.client.Do(req)
	if err != nil {
		return 0, err.Error()
	}
	defer resp.Body.Close()
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return resp.StatusCode, fmt.Sprintf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(msg))
	}
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			return resp.StatusCode, "decoding response: " + err.Error()
		}
	} else {
		io.Copy(io.Discard, resp.Body) // drain so the connection is reused
	}
	return resp.StatusCode, ""
}

func (r *loadRunner) getJSON(ctx context.Context, path string, out any) (int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, r.base+path, nil)
	if err != nil {
		return 0, err
	}
	resp, err := r.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusOK && out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			return resp.StatusCode, err
		}
	} else {
		io.Copy(io.Discard, resp.Body)
	}
	return resp.StatusCode, nil
}

// kindReport breaks the outcome counts down by request kind.
type kindReport struct {
	Offered          int `json:"offered"`
	OK               int `json:"ok"`
	Rejected         int `json:"rejected"`
	RejectedDegraded int `json:"rejected_degraded,omitempty"`
	Errors           int `json:"errors"`
}

// loadReport is one load run reduced to the serving numbers the tests and
// the serving smoke check. Rejected counts 429/503 sheds (the server
// protecting itself, by design), and RejectedDegraded the subset refused by
// a degraded store; Errors counts everything else non-2xx; Unexpected5xx is
// the subset of errors with a 5xx status other than 503 — the count that
// should be zero on a healthy server.
type loadReport struct {
	Offered          int     `json:"offered"`
	OK               int     `json:"ok"`
	Rejected         int     `json:"rejected"`
	RejectedDegraded int     `json:"rejected_degraded"`
	Errors           int     `json:"errors"`
	Unexpected5xx    int     `json:"unexpected_5xx"`
	ThroughputRPS    float64 `json:"throughput_rps"`
	ErrorRate        float64 `json:"error_rate"`

	// LatencyP99MS is the p99 time from send to reply of completed
	// requests; RejectLatencyP99MS is the same for sheds, and should stay
	// small — an overloaded server must say no quickly. Both are bounds for
	// overload tests, not benchmark figures: the clock starts at send, so
	// a late generator is not counted.
	LatencyP99MS       float64 `json:"latency_p99_ms"`
	RejectLatencyP99MS float64 `json:"reject_latency_p99_ms"`

	// BatchItems* count individual sweep items inside HTTP-200 batch
	// responses (per-item outcomes are invisible to the HTTP status).
	// Failed items carry an error without being shed: invalid requests, or
	// jobs that failed or were cancelled mid-flight.
	BatchItemsAccepted int `json:"batch_items_accepted"`
	BatchItemsRejected int `json:"batch_items_rejected"`
	BatchItemsFailed   int `json:"batch_items_failed"`

	PerKind map[reqKind]kindReport `json:"per_kind"`
}

// save writes the report as indented JSON to path.
func (r *loadReport) save(path string) error {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// report reduces the collected outcomes to the loadReport shape.
func (r *loadRunner) report(wall time.Duration) *loadReport {
	r.mu.Lock()
	defer r.mu.Unlock()
	rep := &loadReport{PerKind: map[reqKind]kindReport{}}
	var okLat, rejLat []float64
	for _, o := range r.outcomes {
		rep.Offered++
		kr := rep.PerKind[o.kind]
		kr.Offered++
		switch {
		case o.rejected:
			rep.Rejected++
			kr.Rejected++
			if o.degraded {
				rep.RejectedDegraded++
				kr.RejectedDegraded++
			}
			rejLat = append(rejLat, o.latMS)
		case o.errText != "":
			rep.Errors++
			kr.Errors++
			if o.status >= 500 && o.status != http.StatusServiceUnavailable {
				rep.Unexpected5xx++
			}
		default:
			rep.OK++
			kr.OK++
			okLat = append(okLat, o.latMS)
		}
		rep.BatchItemsAccepted += o.itemsOK
		rep.BatchItemsRejected += o.itemsRejected
		rep.BatchItemsFailed += o.itemsFailed
		rep.PerKind[o.kind] = kr
	}
	rep.LatencyP99MS = p99(okLat)
	rep.RejectLatencyP99MS = p99(rejLat)
	if secs := wall.Seconds(); secs > 0 {
		rep.ThroughputRPS = float64(rep.OK) / secs
	}
	if rep.Offered > 0 {
		rep.ErrorRate = float64(rep.Errors) / float64(rep.Offered)
	}
	return rep
}

// p99 returns the nearest-rank 99th percentile of ms: the smallest sample
// with at least 99% of the samples at or below it, or 0 for none. It sorts
// ms in place.
func p99(ms []float64) float64 {
	if len(ms) == 0 {
		return 0
	}
	sort.Float64s(ms)
	return ms[(99*len(ms)+99)/100-1]
}
