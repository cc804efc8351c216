package loadgen

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"github.com/rankregret/rankregret/internal/xrand"
)

// RunConfig parameterizes one open-loop run of a trace against a live rrmd.
type RunConfig struct {
	// BaseURL is the daemon root, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// RequestTimeout is the client-side guard on each request (0 = 30s).
	// It is a backstop; server-side budgets do the real bounding.
	RequestTimeout time.Duration
	// MaxSamples, when positive, is attached to every solve request as the
	// max_samples bound, capping the per-solve sampling cost. Use it to size
	// the workload to the machine: the smoke scripts bound it so the run
	// measures the serving path, not individual solve weight.
	MaxSamples int
	// OnResult, when set, receives every successful solve result (point
	// solves, pinned solves, and individual sweep items). It is called from
	// the firing goroutines concurrently; the callback must synchronize.
	// Equivalence tests use it to check that two servers given one trace
	// return identical solutions.
	OnResult func(SolveOutcome)
	// Logf, when set, receives occasional progress lines.
	Logf func(format string, args ...any)
}

// SolveOutcome is one captured solve result: which trace event (and, for
// sweep items, which batch index) produced which tuple set.
type SolveOutcome struct {
	Event      int // index into Trace.Events
	Item       int // batch item index; -1 for point solves
	Dataset    string
	IDs        []int
	RankRegret int
	Exact      bool
}

// outcome is one fired event's result.
type outcome struct {
	kind     Kind
	status   int
	latMS    float64
	rejected bool
	// reason classifies a rejection: "queue" (429 admission), "degraded"
	// (503 from the degraded store), or "drain" (other 503s).
	reason  string
	errText string
	// batch item counts (sweep events only)
	itemsOK, itemsRejected, itemsFailed int
}

// classifyReject names what refused a shed request. The server tags its
// 503 bodies with a machine-readable reason field; absent one (old servers,
// proxies), a 503 is attributed to draining.
func classifyReject(status int, errText string) string {
	switch {
	case status == http.StatusTooManyRequests:
		return "queue"
	case status != http.StatusServiceUnavailable:
		return ""
	case strings.Contains(errText, `"reason":"degraded"`):
		return "degraded"
	default:
		return "drain"
	}
}

// runner carries the shared state of one Run.
type runner struct {
	cfg    RunConfig
	client *http.Client
	base   string
	dims   map[string]int // dataset -> dimensionality, for mutate rows

	mu       sync.Mutex
	outcomes []outcome
}

// Run fires the trace at the server open-loop — each event at its scheduled
// offset, never waiting for earlier events to complete — and reduces the
// outcomes to a Report. It returns once every in-flight request has finished
// (client-side timeouts bound the wait), leaving no goroutines behind.
// Cancelling ctx stops dispatching and cancels in-flight requests.
func Run(ctx context.Context, trace *Trace, cfg RunConfig) (*Report, error) {
	if trace == nil || len(trace.Events) == 0 {
		return nil, fmt.Errorf("loadgen: empty trace")
	}
	if cfg.BaseURL == "" {
		return nil, fmt.Errorf("loadgen: RunConfig.BaseURL is required")
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
	r := &runner{cfg: cfg, client: &http.Client{Transport: tr}, base: cfg.BaseURL}

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
	return r.report(trace, time.Since(start)), nil
}

// wire shapes, mirrored locally so loadgen stays a pure HTTP client.
type wireDatasets struct {
	Datasets []struct {
		Name string `json:"name"`
		D    int    `json:"d"`
	} `json:"datasets"`
}

type wireVersions struct {
	Versions []struct {
		Version uint64 `json:"version"`
	} `json:"versions"`
}

type wireBatch struct {
	Results []struct {
		Index      int    `json:"index"`
		IDs        []int  `json:"ids"`
		RankRegret int    `json:"rank_regret"`
		Exact      bool   `json:"exact"`
		Error      string `json:"error,omitempty"`
		Rejected   bool   `json:"rejected,omitempty"`
	} `json:"results"`
}

// wireSolve is the subset of a solve response a result capture needs.
type wireSolve struct {
	IDs        []int `json:"ids"`
	RankRegret int   `json:"rank_regret"`
	Exact      bool  `json:"exact"`
}

// DiscoverDatasets returns the name -> dimensionality map of every dataset
// the server at baseURL currently serves: the discovery step behind "target
// every dataset" CLI defaults, and the source of the r >= d floor a
// generated trace must respect.
func DiscoverDatasets(ctx context.Context, baseURL string) (map[string]int, error) {
	r := &runner{client: http.DefaultClient, base: baseURL}
	var wd wireDatasets
	status, err := r.getJSON(ctx, "/v1/datasets", &wd)
	if err != nil {
		return nil, fmt.Errorf("loadgen: listing datasets at %s: %w", baseURL, err)
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("loadgen: listing datasets: HTTP %d", status)
	}
	dims := make(map[string]int, len(wd.Datasets))
	for _, d := range wd.Datasets {
		dims[d.Name] = d.D
	}
	return dims, nil
}

// fetchDatasets records the dimensionality of every dataset the trace
// targets, failing when the server lacks one.
func (r *runner) fetchDatasets(ctx context.Context, want []string) error {
	dims, err := DiscoverDatasets(ctx, r.base)
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
func (r *runner) fire(ctx context.Context, idx int, ev *Event) {
	rctx, cancel := context.WithTimeout(ctx, r.cfg.RequestTimeout)
	defer cancel()
	o := outcome{kind: ev.Kind}
	start := time.Now()
	switch ev.Kind {
	case KindSolve:
		var ws wireSolve
		o.status, o.errText = r.postJSON(rctx, "/v1/solve", r.solveBody(ev.Dataset, ev.R, 0), &ws)
		r.capture(idx, -1, ev, &ws, o)
	case KindPinned:
		o.status, o.errText = r.firePinned(rctx, idx, ev)
	case KindSweep:
		o = r.fireSweep(rctx, idx, ev)
	case KindMutate:
		o.status, o.errText = r.postJSON(rctx, "/v1/datasets/"+ev.Dataset+"/rows", map[string]any{
			"rows": mutationRows(ev.Seed, ev.Rows, r.dims[ev.Dataset]),
		}, nil)
	default:
		o.errText = fmt.Sprintf("unknown event kind %q", ev.Kind)
	}
	o.latMS = float64(time.Since(start).Microseconds()) / 1000
	o.rejected = o.status == http.StatusTooManyRequests || o.status == http.StatusServiceUnavailable
	if o.rejected {
		o.reason = classifyReject(o.status, o.errText)
	}
	if o.errText != "" && !o.rejected && r.cfg.Logf != nil {
		r.cfg.Logf("event %d (%s %s): %s", idx, ev.Kind, ev.Dataset, o.errText)
	}
	r.mu.Lock()
	r.outcomes = append(r.outcomes, o)
	r.mu.Unlock()
}

// capture forwards a successful solve result to the OnResult hook.
func (r *runner) capture(idx, item int, ev *Event, ws *wireSolve, o outcome) {
	if r.cfg.OnResult == nil || o.errText != "" || o.status < 200 || o.status > 299 {
		return
	}
	r.cfg.OnResult(SolveOutcome{
		Event:      idx,
		Item:       item,
		Dataset:    ev.Dataset,
		IDs:        ws.IDs,
		RankRegret: ws.RankRegret,
		Exact:      ws.Exact,
	})
}

// firePinned resolves a retained version of the event's dataset and solves
// pinned to it — the request pattern of a client holding a version across
// mutations. The version lookup is part of the measured operation. It pins
// the second-newest retained version when there is one (a genuinely old
// snapshot that still cannot age out between the lookup and the solve), the
// current version otherwise.
func (r *runner) firePinned(ctx context.Context, idx int, ev *Event) (int, string) {
	var wv wireVersions
	status, err := r.getJSON(ctx, "/v1/datasets/"+ev.Dataset+"/versions", &wv)
	if err != nil {
		return 0, err.Error()
	}
	if status != http.StatusOK || len(wv.Versions) == 0 {
		return status, fmt.Sprintf("versions lookup: HTTP %d", status)
	}
	pin := wv.Versions[0].Version
	if n := len(wv.Versions); n > 1 {
		pin = wv.Versions[n-2].Version
	}
	var ws wireSolve
	st, errText := r.postJSON(ctx, "/v1/solve", r.solveBody(ev.Dataset, ev.R, pin), &ws)
	r.capture(idx, -1, ev, &ws, outcome{status: st, errText: errText})
	return st, errText
}

func (r *runner) fireSweep(ctx context.Context, idx int, ev *Event) outcome {
	o := outcome{kind: ev.Kind}
	reqs := make([]map[string]any, 0, ev.Width)
	for i := 0; i < ev.Width; i++ {
		reqs = append(reqs, r.solveBody(ev.Dataset, ev.R+i, 0))
	}
	var wb wireBatch
	o.status, o.errText = r.postJSON(ctx, "/v1/solve/batch", map[string]any{"requests": reqs}, &wb)
	for _, it := range wb.Results {
		switch {
		case it.Rejected:
			o.itemsRejected++
		case it.Error != "":
			o.itemsFailed++
		case len(it.IDs) > 0:
			o.itemsOK++
			r.capture(idx, it.Index, ev, &wireSolve{IDs: it.IDs, RankRegret: it.RankRegret, Exact: it.Exact}, o)
		}
	}
	return o
}

// solveBody assembles one solve request, honoring the run-wide MaxSamples
// bound and an optional version pin (0 = current).
func (r *runner) solveBody(ds string, rk int, version uint64) map[string]any {
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
// every run of a trace appends byte-identical data. Values are uniform in [0,1] —
// the units of a normalized dataset.
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
func (r *runner) postJSON(ctx context.Context, path string, body any, out any) (int, string) {
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

func (r *runner) getJSON(ctx context.Context, path string, out any) (int, error) {
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

// report reduces the collected outcomes to the Report shape.
func (r *runner) report(trace *Trace, wall time.Duration) *Report {
	r.mu.Lock()
	defer r.mu.Unlock()
	rep := &Report{
		Schema:     ReportSchema,
		Scenario:   trace.Scenario,
		Seed:       trace.Seed,
		BaseURL:    r.base,
		DurationMS: float64(wall.Microseconds()) / 1000,
		PerKind:    map[string]KindReport{},
	}
	var okLat, rejLat []float64
	for _, o := range r.outcomes {
		rep.Offered++
		kr := rep.PerKind[string(o.kind)]
		kr.Offered++
		switch {
		case o.rejected:
			rep.Rejected++
			kr.Rejected++
			switch o.reason {
			case "queue":
				rep.RejectedQueue++
				kr.RejectedQueue++
			case "degraded":
				rep.RejectedDegraded++
				kr.RejectedDegraded++
			default:
				rep.RejectedDrain++
				kr.RejectedDrain++
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
		rep.PerKind[string(o.kind)] = kr
	}
	rep.LatencyP99MS = p99(okLat)
	rep.RejectLatencyP99MS = p99(rejLat)
	if secs := wall.Seconds(); secs > 0 {
		rep.ThroughputRPS = float64(rep.OK) / secs
	}
	if rep.Offered > 0 {
		rep.RejectRate = float64(rep.Rejected) / float64(rep.Offered)
		rep.ErrorRate = float64(rep.Errors) / float64(rep.Offered)
	}
	return rep
}
