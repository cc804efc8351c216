package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"strconv"
	"sync"
	"time"

	"github.com/rankregret/rankregret/internal/cliutil"
	"github.com/rankregret/rankregret/internal/dataset"
	"github.com/rankregret/rankregret/internal/engine"
	"github.com/rankregret/rankregret/internal/eval"
	"github.com/rankregret/rankregret/internal/funcspace"
	"github.com/rankregret/rankregret/internal/obs"
	"github.com/rankregret/rankregret/internal/obs/slo"
	"github.com/rankregret/rankregret/internal/store"
)

// Config is everything a Server is built from; NewServer reads it once.
// Zero values take the documented defaults.
type Config struct {
	// CacheSize is the engine's solution-cache capacity (0 = engine
	// default, negative = both cache tiers disabled).
	CacheSize int
	// MaxTimeout is the per-request timeout ceiling (0 = 60s).
	MaxTimeout time.Duration
	// Workers and QueueCap size the job scheduler (0 = GOMAXPROCS and 256).
	Workers, QueueCap int

	// MaxUploadBytes bounds the size of every request body: a POST
	// /v1/datasets CSV upload and each JSON request (0 = 64 MiB).
	MaxUploadBytes int64

	// SolveParallelism is the default worker-goroutine bound for the
	// HDRRM top-K scoring passes of each solve (0 = GOMAXPROCS); requests
	// override it with the "parallelism" field, where an explicit 0 asks
	// for GOMAXPROCS. Results are bit-identical at every setting — the
	// knob keeps one cold solve from monopolizing every core of a busy
	// daemon.
	SolveParallelism int

	// QueueWait is the queue-wait budget for synchronous solves: how long a
	// POST /v1/solve may sit in the scheduler queue before it is rejected
	// with 429 (0 = MaxTimeout). The requested timeout_ms is the run budget
	// and is anchored at dequeue, so a solve that waited in a saturated
	// queue still gets its full budget once it starts.
	QueueWait time.Duration

	// TraceSlow, when positive, logs the per-stage span breakdown of every
	// request slower than it and files it with the flight recorder.
	// Tracing itself is always on; this only controls logging.
	TraceSlow time.Duration

	// Logger is the daemon's structured logger (nil = slog.Default()).
	Logger *slog.Logger
	// LogRing is the ring Logger tees into (see obs.NewLogger); incident
	// bundles carry its tail. Optional.
	LogRing *obs.LogRing
	// TraceRing sizes the retained-trace ring (0 = DefaultTraceRing).
	TraceRing int
	// IncidentDir, when set, receives every incident bundle as JSON.
	IncidentDir string
	// SLOSpecs declares the objectives ("solve:p99<250ms@99.9"); nil = the
	// stock defaults for solve, mutate, and scrape.
	SLOSpecs []string
	// SLO tunes the SLO engine (windows, thresholds, clock); its Registry
	// and OnFastBurn are owned by the server and overwritten.
	SLO slo.Config
}

// withDefaults resolves Config's zero values.
func (c Config) withDefaults() Config {
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 60 * time.Second
	}
	if c.MaxUploadBytes <= 0 {
		c.MaxUploadBytes = 64 << 20
	}
	if c.QueueWait <= 0 {
		c.QueueWait = c.MaxTimeout
	}
	if c.Logger == nil {
		c.Logger = slog.Default()
	}
	if c.TraceRing <= 0 {
		c.TraceRing = DefaultTraceRing
	}
	return c
}

// retryAfterSeconds is the Retry-After hint sent with 429 (overload) and
// 503 (draining, degraded) rejections.
const retryAfterSeconds = 1

// Server is the rrmd serving core: a durable named-dataset registry (with
// retained version history and a mutation API, backed by internal/store's
// WAL + snapshots when a data directory is configured) in front of a solver
// engine and its job scheduler. It is safe for concurrent use; every
// handler may run on many goroutines at once.
type Server struct {
	eng   *engine.Engine
	sched *engine.Scheduler
	store *store.Store
	cfg   Config // defaults resolved

	// bodyTimeout bounds reading one request body (bodyReadTimeout; tests
	// shorten it).
	bodyTimeout time.Duration

	// obs is the server's one metrics registry: GET /metrics renders it as
	// Prometheus text, GET /v1/metrics serializes the same underlying
	// snapshots as JSON. traces retains recent request traces for
	// GET /v1/trace/{id}; solveDur/mutateDur/scrapeDur are the end-to-end
	// latency histograms the SLO engine evaluates.
	obs       *obs.Registry
	traces    *obs.TraceRing
	solveDur  *obs.Histogram
	mutateDur *obs.Histogram
	scrapeDur *obs.Histogram

	// recorder and sloEng are the flight recorder surface: slow requests,
	// SLO fast burns, and store health transitions file incidents.
	recorder *obs.Recorder
	sloEng   *slo.Engine

	// warm tracks the background warm-start per dataset name; warmCtx is
	// cancelled by Close/Shutdown so an abandoned warm stops mid-solve.
	warmMu     sync.Mutex
	warm       map[string]string
	warmCtx    context.Context
	warmCancel context.CancelFunc
}

// NewServer returns a Server over an opened store — the registry every
// dataset read and mutation goes through, which also fixes the retained
// version window (store.Options.Retain) — with its own engine, job
// scheduler, metrics registry, flight recorder, and SLO engine, all sized by
// cfg. It fails on a bad SLO spec or an uncreatable IncidentDir. Call Close
// (or Shutdown) when done with the server; both close the store.
func NewServer(st *store.Store, cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	eng := engine.New(cfg.CacheSize)
	warmCtx, warmCancel := context.WithCancel(context.Background())
	s := &Server{
		eng:        eng,
		sched:      engine.NewScheduler(eng, cfg.Workers, cfg.QueueCap),
		store:      st,
		cfg:        cfg,
		warm:       make(map[string]string),
		warmCtx:    warmCtx,
		warmCancel: warmCancel,

		bodyTimeout: bodyReadTimeout,
	}
	s.sched.SetLogger(cfg.Logger)
	if err := s.instrument(); err != nil {
		warmCancel()
		s.sched.Close()
		return nil, err
	}
	return s, nil
}

// Close stops the warm-start, the job scheduler (cancelling running jobs
// and failing queued ones), and the store. For the graceful variant that
// finishes in-flight work first, use Shutdown.
func (s *Server) Close() {
	s.warmCancel()
	s.sched.Close()
	if err := s.store.Close(); err != nil {
		s.cfg.Logger.Error("rrmd: closing store failed", "err", err)
	}
}

// Shutdown drains the server gracefully: no new jobs are accepted, queued
// and running jobs finish (until ctx expires, after which they are
// cancelled), the WAL is flushed, and a final snapshot is written so the
// next start recovers replay-free. HTTP listener shutdown is the caller's
// concern (do it first, so no new requests arrive mid-drain).
func (s *Server) Shutdown(ctx context.Context) error {
	s.warmCancel()
	err := s.sched.Drain(ctx)
	if cerr := s.store.Close(); err == nil {
		err = cerr
	}
	return err
}

// AddDataset registers ds under name, replacing any previous dataset (and
// its whole version history) with that name. When ctx carries a trace, the
// store stage is recorded on it.
func (s *Server) AddDataset(ctx context.Context, name string, ds *dataset.Dataset) error {
	if name == "" {
		return errors.New("rrmd: dataset name must be non-empty")
	}
	if ds == nil || ds.N() == 0 {
		return errors.New("rrmd: dataset is empty")
	}
	if ds.Version() == 0 {
		// Derived datasets (Clone, Subset, Head, Project) arrive at version
		// 0, which is the wire sentinel for "current" and would make the
		// retained entry unpinnable. Re-materialize so every version number
		// the registry ever lists is non-zero; content and fingerprint are
		// unchanged.
		fresh := dataset.New(ds.Dim())
		if err := fresh.SetAttrs(ds.Attrs()); err != nil {
			return err
		}
		for i := 0; i < ds.N(); i++ {
			fresh.Append(ds.Row(i))
		}
		ds = fresh
	}
	return s.store.RegisterCtx(ctx, name, ds, 0)
}

func (s *Server) dataset(name string) (*dataset.Dataset, bool) {
	nd, ok := s.store.Get(name)
	if !ok {
		return nil, false
	}
	return nd.Current(), true
}

// WarmStart primes the engine's cache tiers for the given datasets (every
// registered one when names is nil), sequentially, honoring the server's
// warm context: after a restart the caches are empty, so warming each
// recovered dataset in the background pays the cold-solve cliff proactively
// and the first client solve hits the VecSet reuse path. It blocks; run it
// in a goroutine for background warming. Per-dataset progress is surfaced
// in GET /v1/store/status.
func (s *Server) WarmStart(names []string) {
	if names == nil {
		names = s.store.Names()
	}
	for _, name := range names {
		s.setWarm(name, "pending")
	}
	for _, name := range names {
		if s.warmCtx.Err() != nil {
			s.setWarm(name, "cancelled")
			continue
		}
		nd, ok := s.store.Get(name)
		if !ok {
			s.setWarm(name, "dropped")
			continue
		}
		s.setWarm(name, "warming")
		start := time.Now()
		// Defaults mirror engineRequest: same salt, seed, and parallelism,
		// so the warmed entries are the ones default client solves look up.
		err := s.eng.Warm(s.warmCtx, nd.Current(), 0, engine.Options{
			CacheSalt:   name,
			Seed:        1,
			Parallelism: s.cfg.SolveParallelism,
		})
		switch {
		case err == nil:
			// Two decimals so a sub-millisecond warm (a tiny or
			// already-cached dataset) reads "warm (0.42ms)", not "warm (0ms)".
			s.setWarm(name, fmt.Sprintf("warm (%.2fms)", float64(time.Since(start).Microseconds())/1000))
		case s.warmCtx.Err() != nil:
			s.setWarm(name, "cancelled")
		default:
			s.setWarm(name, "failed: "+err.Error())
		}
	}
}

func (s *Server) setWarm(name, state string) {
	s.warmMu.Lock()
	defer s.warmMu.Unlock()
	s.warm[name] = state
}

func (s *Server) warmStatus() map[string]string {
	s.warmMu.Lock()
	defer s.warmMu.Unlock()
	out := make(map[string]string, len(s.warm))
	for k, v := range s.warm {
		out[k] = v
	}
	return out
}

// Handler returns the daemon's HTTP routing table.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("GET /v1/algorithms", s.handleAlgorithms)
	mux.HandleFunc("GET /v1/datasets", s.handleListDatasets)
	mux.HandleFunc("POST /v1/datasets", s.handleUploadDataset)
	mux.HandleFunc("GET /v1/datasets/{name}", s.handleGetDataset)
	mux.HandleFunc("DELETE /v1/datasets/{name}", s.handleDropDataset)
	mux.HandleFunc("POST /v1/datasets/{name}/rows", s.handleAppendRows)
	mux.HandleFunc("DELETE /v1/datasets/{name}/rows", s.handleDeleteRows)
	mux.HandleFunc("GET /v1/datasets/{name}/versions", s.handleVersions)
	mux.HandleFunc("POST /v1/solve", s.handleSolve)
	mux.HandleFunc("POST /v1/solve/batch", s.handleSolveBatch)
	mux.HandleFunc("POST /v1/jobs", s.handleJobSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleJobsList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJobGet)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleJobCancel)
	mux.HandleFunc("GET /v1/metrics", s.handleMetrics)
	mux.HandleFunc("GET /metrics", s.handlePrometheus)
	mux.HandleFunc("GET /v1/slo", s.handleSLO)
	mux.HandleFunc("GET /v1/incidents", s.handleIncidents)
	mux.HandleFunc("GET /v1/incidents/{id}", s.handleIncident)
	mux.HandleFunc("GET /v1/trace/{id}", s.handleTrace)
	mux.HandleFunc("GET /v1/traces", s.handleTraces)
	mux.HandleFunc("GET /v1/store/status", s.handleStoreStatus)
	mux.HandleFunc("POST /v1/evaluate", s.handleEvaluate)
	return s.withObs(mux)
}

// storeErrStatus maps store mutation failures to HTTP statuses: a degraded
// store, a wedged WAL, or a closed store is a server-side durability fault
// (503, so clients retry elsewhere and alerting keyed on 5xx fires), not a
// bad request.
func storeErrStatus(err error) int {
	switch {
	case errors.Is(err, store.ErrUnknownDataset):
		return http.StatusNotFound
	case errors.Is(err, store.ErrDegraded), errors.Is(err, store.ErrWALFailed), errors.Is(err, store.ErrClosed):
		return http.StatusServiceUnavailable
	default:
		return http.StatusBadRequest
	}
}

// writeStoreErr answers a failed store mutation. Durability faults come back
// as 503 with a Retry-After hint and a machine-readable reason ("degraded"
// while the self-healing loop works the fault), so load generators and
// proxies can distinguish a degraded store from a draining scheduler without
// parsing prose.
func (s *Server) writeStoreErr(w http.ResponseWriter, err error) {
	status := storeErrStatus(err)
	if status != http.StatusServiceUnavailable {
		writeErr(w, status, err)
		return
	}
	// The mutation that trips the fault surfaces ErrWALFailed directly;
	// every later one gets ErrDegraded. Both are the same condition to a
	// client: the store is degraded and healing.
	reason := "store_unavailable"
	if errors.Is(err, store.ErrDegraded) || errors.Is(err, store.ErrWALFailed) {
		reason = "degraded"
	}
	hintRetry(w)
	writeErrReason(w, status, err, reason)
}

// hintRetry sets the Retry-After header every overload/unavailable rejection
// carries — the one place the hint is computed, so the 429 and the three
// flavors of 503 cannot drift apart.
func hintRetry(w http.ResponseWriter) {
	w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds))
}

func writeErr(w http.ResponseWriter, status int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}

// writeErrReason is writeErr plus a machine-readable reason field, used by
// the rejection paths (degraded store, draining scheduler) whose 503s load
// clients need to tell apart.
func writeErrReason(w http.ResponseWriter, status int, err error, reason string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]string{"error": err.Error(), "reason": reason})
}

// bodyReadTimeout bounds how long reading one request body may take, so a
// client trickling a body cannot hold a handler goroutine indefinitely. It
// is a per-read connection deadline rather than http.Server.ReadTimeout,
// which would be one deadline for the whole request read, headers
// included, left armed while the handler runs.
const bodyReadTimeout = 30 * time.Second

// readBody runs read over r's body, capped at Config.MaxUploadBytes, with
// the connection's read deadline set s.bodyTimeout ahead. A timed-out read
// leaves the expired deadline in place and closes the connection after the
// reply, so nothing waits on the rest of the body; otherwise the deadline
// is cleared, so it bounds the body read and nothing after it.
func (s *Server) readBody(w http.ResponseWriter, r *http.Request, read func(io.Reader) error) error {
	rc := http.NewResponseController(w)
	// The error is http.ErrNotSupported for writers with no connection
	// (handler tests); their bodies are in memory and need no deadline.
	_ = rc.SetReadDeadline(time.Now().Add(s.bodyTimeout))
	err := read(http.MaxBytesReader(w, r.Body, s.cfg.MaxUploadBytes))
	if errors.Is(err, os.ErrDeadlineExceeded) {
		w.Header().Set("Connection", "close")
		return err
	}
	_ = rc.SetReadDeadline(time.Time{})
	return err
}

// bodyErrStatus maps a failed body read to its status: 413 for an oversize
// body, 408 for one that did not arrive within the read deadline, 400
// otherwise.
func bodyErrStatus(err error) int {
	var tooBig *http.MaxBytesError
	switch {
	case errors.As(err, &tooBig):
		return http.StatusRequestEntityTooLarge
	case errors.Is(err, os.ErrDeadlineExceeded):
		return http.StatusRequestTimeout
	default:
		return http.StatusBadRequest
	}
}

// decodeJSON decodes r's JSON body into dst (see readBody). On failure it
// answers with bodyErrStatus's status and returns false.
func (s *Server) decodeJSON(w http.ResponseWriter, r *http.Request, dst any) bool {
	err := s.readBody(w, r, func(body io.Reader) error { return json.NewDecoder(body).Decode(dst) })
	if err == nil {
		return true
	}
	writeErr(w, bodyErrStatus(err), fmt.Errorf("bad request body: %w", err))
	return false
}

func writeOK(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// handleHealth is the liveness/readiness probe. A healthy server answers
// 200; a degraded store or a draining scheduler answers 503 with a
// machine-readable state and reason, so orchestrators stop routing new
// traffic while reads keep being served on the open connections.
func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	// One metrics snapshot serves the whole probe: the state decision and
	// the metrics body both read it, so the probe never reports a state that
	// disagrees with the stats beside it (and the scheduler/store locks are
	// taken once, not twice).
	m := s.metrics()
	state, reason := "healthy", ""
	switch {
	case m.Store.State != store.HealthHealthy:
		state, reason = string(m.Store.State), m.Store.Reason
	case m.Scheduler.Draining:
		state, reason = "draining", "scheduler draining for shutdown"
	}
	body := map[string]any{
		"ok":      state == "healthy",
		"state":   state,
		"metrics": m,
	}
	if reason != "" {
		body["reason"] = reason
	}
	// The probe's SLO section is the same Eval the /v1/slo endpoint and the
	// Prometheus gauges come from, so the three views cannot drift.
	statuses := s.sloEng.Eval()
	sloOK := true
	summary := make([]map[string]any, 0, len(statuses))
	for _, st := range statuses {
		if st.FastBurnAlarm {
			sloOK = false
		}
		summary = append(summary, map[string]any{
			"name":            st.Name,
			"compliance":      st.Compliance,
			"burn_rate_fast":  st.BurnRateFast,
			"fast_burn_alarm": st.FastBurnAlarm,
		})
	}
	body["slo"] = map[string]any{"ok": sloOK, "objectives": summary}
	status := http.StatusOK
	if state != "healthy" {
		status = http.StatusServiceUnavailable
		hintRetry(w)
	}
	writeOK(w, status, body)
}

func (s *Server) handleAlgorithms(w http.ResponseWriter, r *http.Request) {
	writeOK(w, http.StatusOK, map[string]any{"algorithms": engine.Algorithms()})
}

// datasetInfo is the wire shape of one registry entry (one version of it).
type datasetInfo struct {
	Name        string   `json:"name"`
	N           int      `json:"n"`
	D           int      `json:"d"`
	Attrs       []string `json:"attrs"`
	Fingerprint string   `json:"fingerprint"`
	Version     uint64   `json:"version"`
}

func info(name string, ds *dataset.Dataset) datasetInfo {
	return datasetInfo{
		Name:        name,
		N:           ds.N(),
		D:           ds.Dim(),
		Attrs:       ds.Attrs(),
		Fingerprint: fmt.Sprintf("%016x", ds.Fingerprint()),
		Version:     ds.Version(),
	}
}

func (s *Server) handleListDatasets(w http.ResponseWriter, r *http.Request) {
	names := s.store.Names()
	out := make([]datasetInfo, 0, len(names))
	for _, name := range names {
		if nd, ok := s.store.Get(name); ok {
			out = append(out, info(name, nd.Current()))
		}
	}
	writeOK(w, http.StatusOK, map[string]any{"datasets": out})
}

func (s *Server) handleGetDataset(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	ds, ok := s.dataset(name)
	if !ok {
		writeErr(w, http.StatusNotFound, fmt.Errorf("unknown dataset %q", name))
		return
	}
	writeOK(w, http.StatusOK, info(name, ds))
}

// handleUploadDataset registers a CSV posted as the request body:
//
//	POST /v1/datasets?name=cars&header=1&negate=0,2&normalize=1
func (s *Server) handleUploadDataset(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	name := q.Get("name")
	if name == "" {
		writeErr(w, http.StatusBadRequest, errors.New("missing name query parameter"))
		return
	}
	neg, err := cliutil.ParseNegate(q.Get("negate"))
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	header := q.Get("header") == "1" || q.Get("header") == "true"
	normalize := true
	if v := q.Get("normalize"); v == "0" || v == "false" {
		normalize = false
	}
	var ds *dataset.Dataset
	err = s.readBody(w, r, func(body io.Reader) (err error) {
		ds, err = cliutil.LoadCSV(body, header, neg, normalize)
		return err
	})
	if err != nil {
		writeErr(w, bodyErrStatus(err), err)
		return
	}
	obs.TraceFrom(r.Context()).Annotate("dataset", name)
	start := time.Now()
	if err := s.AddDataset(r.Context(), name, ds); err != nil {
		s.writeStoreErr(w, err)
		return
	}
	s.mutateDur.ObserveSince(start)
	writeOK(w, http.StatusCreated, info(name, ds))
}

// mutateResponse is the wire shape of a successful mutation: the new current
// version's info plus what the mutation did.
type mutateResponse struct {
	datasetInfo
	Appended int `json:"appended,omitempty"`
	Deleted  int `json:"deleted,omitempty"`
}

// handleAppendRows appends rows to a dataset, publishing a new version:
//
//	POST /v1/datasets/{name}/rows {"rows": [[0.1, 0.9], [0.4, 0.4]]}
//
// Rows are taken as-is (no re-normalization — a rewrite would invalidate
// every cached artifact), so callers of normalized datasets must supply
// values in the normalized units. The store is the one validator: an
// unknown dataset is 404, and an empty, ragged or non-finite row set is 400
// before any value matrix is copied. Solves already in flight keep the
// version they started with; new solves see the appended rows.
func (s *Server) handleAppendRows(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	var req struct {
		Rows [][]float64 `json:"rows"`
	}
	if !s.decodeJSON(w, r, &req) {
		return
	}
	// The append hits the WAL (per the fsync policy) before the new version
	// becomes visible; an error means nothing was published.
	obs.TraceFrom(r.Context()).Annotate("dataset", name)
	start := time.Now()
	next, err := s.store.AppendRowsCtx(r.Context(), name, req.Rows, 0)
	if err != nil {
		s.writeStoreErr(w, err)
		return
	}
	s.mutateDur.ObserveSince(start)
	writeOK(w, http.StatusOK, mutateResponse{datasetInfo: info(name, next), Appended: len(req.Rows)})
}

// handleDeleteRows removes rows by id from a dataset, publishing a new
// version:
//
//	DELETE /v1/datasets/{name}/rows {"ids": [3, 17]}
//
// Ids refer to the current version's indexing; rows above a deleted id shift
// down, exactly as Dataset.Delete documents. The store validates the ids
// against the version it mutates: an unknown dataset is 404, and empty or
// out-of-range ids, or a delete of every row (the registry never serves an
// empty dataset), are 400.
func (s *Server) handleDeleteRows(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	var req struct {
		IDs []int `json:"ids"`
	}
	if !s.decodeJSON(w, r, &req) {
		return
	}
	obs.TraceFrom(r.Context()).Annotate("dataset", name)
	start := time.Now()
	next, err := s.store.DeleteRowsCtx(r.Context(), name, req.IDs, 0)
	if err != nil {
		s.writeStoreErr(w, err)
		return
	}
	s.mutateDur.ObserveSince(start)
	// The deleted count is the number of unique ids (duplicates delete once).
	uniq := make(map[int]struct{}, len(req.IDs))
	for _, id := range req.IDs {
		uniq[id] = struct{}{}
	}
	writeOK(w, http.StatusOK, mutateResponse{datasetInfo: info(name, next), Deleted: len(uniq)})
}

// versionInfo is one entry of GET /v1/datasets/{name}/versions.
type versionInfo struct {
	Version     uint64 `json:"version"`
	N           int    `json:"n"`
	Fingerprint string `json:"fingerprint"`
	Current     bool   `json:"current"`
}

// handleVersions lists the retained (solvable) versions, oldest first.
// Solves pin to one with the request's "version" field.
func (s *Server) handleVersions(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	nd, ok := s.store.Get(name)
	if !ok {
		writeErr(w, http.StatusNotFound, fmt.Errorf("unknown dataset %q", name))
		return
	}
	versions := nd.List()
	out := make([]versionInfo, len(versions))
	for i, ds := range versions {
		out[i] = versionInfo{
			Version:     ds.Version(),
			N:           ds.N(),
			Fingerprint: fmt.Sprintf("%016x", ds.Fingerprint()),
			Current:     i == len(versions)-1,
		}
	}
	writeOK(w, http.StatusOK, map[string]any{
		"dataset":  name,
		"retain":   s.store.Summary().Retain,
		"versions": out,
	})
}

// solveRequest is the wire shape of POST /v1/solve. Exactly one of R
// (primal RRM: at most r tuples, minimum rank-regret) and K (dual RRR:
// minimum tuples, rank-regret at most k) must be positive.
type solveRequest struct {
	Dataset string `json:"dataset"`
	// Version pins the solve to a retained dataset version (0 = current).
	// In-flight solves always keep the version they started with; the pin
	// lets sweeps and retries stay on one version across mutations.
	Version    uint64  `json:"version,omitempty"`
	R          int     `json:"r,omitempty"`
	K          int     `json:"k,omitempty"`
	Algorithm  string  `json:"algorithm,omitempty"`
	Space      string  `json:"space,omitempty"`
	Gamma      int     `json:"gamma,omitempty"`
	Delta      float64 `json:"delta,omitempty"`
	Samples    int     `json:"samples,omitempty"`
	MaxSamples int     `json:"max_samples,omitempty"`
	Seed       int64   `json:"seed,omitempty"`
	// Parallelism overrides the server's -solve-parallelism default when
	// present; an explicit 0 (or negative) asks for GOMAXPROCS. A pointer
	// distinguishes "absent" from that explicit 0.
	Parallelism *int `json:"parallelism,omitempty"`
	// EvalSamples, when positive, adds a sampled rank-regret estimate of
	// the answer (eval.RankRegretCtx, seeded seed+7). The estimate is the
	// same at every core count; for a given seed it differs from earlier
	// releases.
	EvalSamples int   `json:"eval_samples,omitempty"`
	TimeoutMS   int64 `json:"timeout_ms,omitempty"`
}

// solveResult is the stable core of every solve answer. The same shape is
// embedded in /v1/solve responses, /v1/solve/batch items, and finished
// /v1/jobs statuses, so results from the three paths are directly
// comparable.
type solveResult struct {
	Dataset    string `json:"dataset"`
	Algorithm  string `json:"algorithm"`
	IDs        []int  `json:"ids"`
	RankRegret int    `json:"rank_regret"`
	Exact      bool   `json:"exact"`
}

func resultOf(name string, sol *engine.Solution) solveResult {
	return solveResult{
		Dataset:    name,
		Algorithm:  sol.Algorithm,
		IDs:        sol.IDs,
		RankRegret: sol.RankRegret,
		Exact:      sol.Exact,
	}
}

// solveResponse is the wire shape of a successful solve. It carries only
// what concerns this request; server-wide counters live at /v1/metrics.
type solveResponse struct {
	solveResult
	Estimated *int     `json:"estimated_rank_regret,omitempty"`
	Percent   *float64 `json:"estimated_percent,omitempty"`
	ElapsedMS float64  `json:"elapsed_ms"`
}

// resolve looks up the dataset (pinned to a retained version when version
// is non-zero), parses the space spec, and clamps the requested timeout to
// the server ceiling — the validation every dataset-touching endpoint
// shares. The returned int is the HTTP status to use when err is non-nil.
func (s *Server) resolve(name, spec string, timeoutMS int64, version uint64) (*dataset.Dataset, funcspace.Space, time.Duration, int, error) {
	nd, ok := s.store.Get(name)
	if !ok {
		return nil, nil, 0, http.StatusNotFound, fmt.Errorf("unknown dataset %q", name)
	}
	ds, ok := nd.At(version)
	if !ok {
		return nil, nil, 0, http.StatusGone, fmt.Errorf("version %d of dataset %q is not retained (see GET /v1/datasets/%s/versions)", version, name, name)
	}
	var sp funcspace.Space
	if spec != "" {
		var err error
		sp, err = cliutil.ParseSpace(spec, ds.Dim())
		if err != nil {
			return nil, nil, 0, http.StatusBadRequest, err
		}
	}
	timeout := s.cfg.MaxTimeout
	if timeoutMS > 0 {
		if d := time.Duration(timeoutMS) * time.Millisecond; d < timeout {
			timeout = d
		}
	}
	return ds, sp, timeout, 0, nil
}

func statusOf(err error) int {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		return 499 // client closed request (nginx convention)
	default:
		return http.StatusUnprocessableEntity
	}
}

// writeSolveErr answers a solve that ran and failed with statusOf's
// status. A solver panic is a server fault: 500, with the request id under
// which the scheduler logged the stack.
func writeSolveErr(w http.ResponseWriter, err error) {
	var pe *engine.PanicError
	if !errors.As(err, &pe) {
		writeErr(w, statusOf(err), err)
		return
	}
	writeOK(w, http.StatusInternalServerError, map[string]string{"error": err.Error(), "request_id": w.Header().Get("X-Request-Id")})
}

// writeOverload maps scheduler admission failures to the unified overload
// statuses — 429 when the queue is full or the queue-wait budget expired,
// 503 when the scheduler is draining for shutdown — with a Retry-After hint,
// and reports whether it recognized (and answered) the error. Every
// endpoint that touches the scheduler routes rejections through here so the
// statuses cannot drift apart again.
func (s *Server) writeOverload(w http.ResponseWriter, err error) bool {
	var status int
	reason := "queue"
	switch {
	case errors.Is(err, engine.ErrQueueFull), errors.Is(err, engine.ErrQueueTimeout):
		status = http.StatusTooManyRequests
	case errors.Is(err, engine.ErrSchedulerClosed):
		status = http.StatusServiceUnavailable
		reason = "draining"
	default:
		return false
	}
	hintRetry(w)
	writeErrReason(w, status, err, reason)
	return true
}

func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request) {
	var req solveRequest
	if !s.decodeJSON(w, r, &req) {
		return
	}
	er, status, err := s.engineRequest(req)
	if err != nil {
		writeErr(w, status, err)
		return
	}
	obs.TraceFrom(r.Context()).Annotate("dataset", req.Dataset)
	start := time.Now()
	// Warm hits are answered inline: a cached solution costs microseconds,
	// so it never waits for (or gets shed by) scheduler admission. Everything
	// else goes through the scheduler — the one bounded worker pool — so
	// synchronous solves obey the same admission control, queue policy, and
	// overload semantics as batch and async jobs. The run budget (timeout_ms)
	// is anchored at dequeue inside the scheduler; the queue wait has its own
	// budget, so a solve that sat in a saturated queue is either rejected
	// promptly (429) or runs with its full budget intact.
	sol, ok := s.eng.SolveCached(r.Context(), er)
	if !ok {
		er.QueueTimeout = s.cfg.QueueWait
		ctx, cancel := context.WithTimeout(r.Context(), er.QueueTimeout+er.Timeout)
		defer cancel()
		sol, err = s.sched.Do(ctx, er)
		if err != nil {
			if !s.writeOverload(w, err) {
				writeSolveErr(w, err)
			}
			return
		}
	}
	s.solveDur.ObserveSince(start)
	var est *int
	if req.EvalSamples > 0 {
		// The estimator checks ctx, and gets the same budget the solve had.
		ectx, cancel := context.WithTimeout(r.Context(), er.Timeout)
		e, err := eval.RankRegretCtx(ectx, er.Dataset, sol.IDs, evalSpace(er), clampSamples(req.EvalSamples), er.Opts.Seed+7)
		cancel()
		if err != nil {
			writeErr(w, statusOf(err), err)
			return
		}
		est = &e
	}
	resp := solveResponse{
		solveResult: resultOf(req.Dataset, sol),
		ElapsedMS:   float64(time.Since(start).Microseconds()) / 1000,
	}
	if est != nil {
		pct := 100 * float64(*est) / float64(er.Dataset.N())
		resp.Estimated = est
		resp.Percent = &pct
	}
	writeOK(w, http.StatusOK, resp)
}

// evalSpace is the utility space the sampling estimator evaluates in: the
// request's restricted space, or the full orthant.
func evalSpace(er engine.Request) funcspace.Space {
	if er.Opts.Space != nil {
		return er.Opts.Space
	}
	return funcspace.NewFull(er.Dataset.Dim())
}

// maxEvalSamples caps client-supplied sampling budgets so a single request
// cannot pin a CPU for hours.
const maxEvalSamples = 1_000_000

func clampSamples(n int) int {
	if n > maxEvalSamples {
		return maxEvalSamples
	}
	return n
}

// engineRequest validates a wire solveRequest and converts it into an
// engine request: the single conversion point shared by /v1/solve, the
// batch endpoint, and the jobs endpoint, so the three paths cannot drift.
// The returned int is the HTTP status to use when err is non-nil.
func (s *Server) engineRequest(req solveRequest) (engine.Request, int, error) {
	if (req.R > 0) == (req.K > 0) {
		return engine.Request{}, http.StatusBadRequest, errors.New("exactly one of r and k must be positive")
	}
	ds, sp, timeout, status, err := s.resolve(req.Dataset, req.Space, req.TimeoutMS, req.Version)
	if err != nil {
		return engine.Request{}, status, err
	}
	seed := req.Seed
	if seed == 0 {
		seed = 1
	}
	par := s.cfg.SolveParallelism
	if req.Parallelism != nil {
		if par = *req.Parallelism; par < 0 {
			par = 0
		}
	}
	er := engine.Request{
		Dataset:   ds,
		Label:     req.Dataset,
		Mode:      engine.ModeRRM,
		RK:        req.R,
		Algorithm: req.Algorithm,
		Timeout:   timeout,
		Opts: engine.Options{
			Space:       sp,
			CacheSalt:   req.Dataset,
			Gamma:       req.Gamma,
			Delta:       req.Delta,
			Samples:     req.Samples,
			MaxSamples:  req.MaxSamples,
			Seed:        seed,
			Parallelism: par,
		},
	}
	if req.K > 0 {
		er.Mode = engine.ModeRRR
		er.RK = req.K
	}
	return er, 0, nil
}

// batchRequest is the wire shape of POST /v1/solve/batch: a list of solve
// requests fanned out over the scheduler's worker pool. TimeoutMS bounds
// the whole batch (capped by the server ceiling); per-item timeout_ms
// bounds individual solves once they start.
type batchRequest struct {
	Requests  []solveRequest `json:"requests"`
	TimeoutMS int64          `json:"timeout_ms,omitempty"`
}

// batchItem is one answer of a batch response, in request order. Exactly
// one of the embedded result and Error is present; Rejected marks items the
// scheduler never admitted (overload or drain), which are safe to retry
// as-is after the response's Retry-After hint.
type batchItem struct {
	Index int `json:"index"`
	*solveResult
	Error    string `json:"error,omitempty"`
	Rejected bool   `json:"rejected,omitempty"`
}

// maxBatchSize bounds how many solves one batch request may carry.
const maxBatchSize = 256

func (s *Server) handleSolveBatch(w http.ResponseWriter, r *http.Request) {
	var req batchRequest
	if !s.decodeJSON(w, r, &req) {
		return
	}
	if len(req.Requests) == 0 {
		writeErr(w, http.StatusBadRequest, errors.New("requests must be non-empty"))
		return
	}
	if len(req.Requests) > maxBatchSize {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("batch of %d exceeds the limit of %d", len(req.Requests), maxBatchSize))
		return
	}
	timeout := s.cfg.MaxTimeout
	if req.TimeoutMS > 0 {
		if d := time.Duration(req.TimeoutMS) * time.Millisecond; d < timeout {
			timeout = d
		}
	}
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()

	// Invalid items are answered inline; only the valid ones are scheduled,
	// so one bad request does not sink the batch.
	items := make([]batchItem, len(req.Requests))
	var engReqs []engine.Request
	var engIdx []int
	for i, sr := range req.Requests {
		items[i].Index = i
		er, _, err := scheduledRequest(s, sr)
		if err != nil {
			items[i].Error = err.Error()
			continue
		}
		engReqs = append(engReqs, er)
		engIdx = append(engIdx, i)
	}
	start := time.Now()
	// BatchPartial never fails wholesale: items the scheduler could not
	// admit before the batch budget ran out (or because it is draining)
	// come back rejected, items cancelled mid-flight report their error,
	// and everything that finished keeps its result.
	statuses := s.sched.BatchPartial(ctx, engReqs)
	accepted, rejected, draining := 0, 0, 0
	for bi, st := range statuses {
		i := engIdx[bi]
		switch {
		case st.State == engine.JobRejected:
			items[i].Rejected = true
			items[i].Error = st.Error
			rejected++
			if st.Error == engine.ErrSchedulerClosed.Error() {
				draining++
			}
		case st.Error != "":
			items[i].Error = st.Error
			accepted++
		default:
			res := resultOf(st.Label, st.Solution)
			items[i].solveResult = &res
			accepted++
		}
	}
	// A batch the draining scheduler rejected in full is a server-level
	// condition, not a per-item one: answer 503 so clients retry elsewhere.
	if draining > 0 && draining == len(statuses) {
		s.writeOverload(w, engine.ErrSchedulerClosed)
		return
	}
	if rejected > 0 {
		// Partial rejection still hints backoff: some items were shed, so
		// the client's re-submit of them should wait like a full 429 would.
		hintRetry(w)
	}
	writeOK(w, http.StatusOK, map[string]any{
		"count":      len(items),
		"accepted":   accepted,
		"rejected":   rejected,
		"elapsed_ms": float64(time.Since(start).Microseconds()) / 1000,
		"results":    items,
	})
}

// scheduledRequest is engineRequest plus the scheduler-only restriction:
// the sampling estimator is a /v1/solve feature, asynchronous callers
// evaluate results via /v1/evaluate instead.
func scheduledRequest(s *Server, req solveRequest) (engine.Request, int, error) {
	if req.EvalSamples > 0 {
		return engine.Request{}, http.StatusBadRequest, errors.New("eval_samples is not supported for scheduled solves; call /v1/evaluate on the result")
	}
	return s.engineRequest(req)
}

// jobStatusResponse is the wire shape of one scheduled job.
type jobStatusResponse struct {
	ID         string          `json:"id"`
	State      engine.JobState `json:"state"`
	Dataset    string          `json:"dataset,omitempty"`
	Mode       engine.Mode     `json:"mode"`
	RK         int             `json:"rk"`
	Algorithm  string          `json:"algorithm,omitempty"`
	Result     *solveResult    `json:"result,omitempty"`
	Error      string          `json:"error,omitempty"`
	EnqueuedAt time.Time       `json:"enqueued_at"`
	StartedAt  time.Time       `json:"started_at,omitzero"`
	FinishedAt time.Time       `json:"finished_at,omitzero"`
	ElapsedMS  float64         `json:"elapsed_ms,omitempty"`
}

func wireStatus(st engine.JobStatus) jobStatusResponse {
	out := jobStatusResponse{
		ID:         st.ID,
		State:      st.State,
		Dataset:    st.Label,
		Mode:       st.Mode,
		RK:         st.RK,
		Algorithm:  st.Algorithm,
		Error:      st.Error,
		EnqueuedAt: st.EnqueuedAt,
		StartedAt:  st.StartedAt,
		FinishedAt: st.FinishedAt,
		ElapsedMS:  st.ElapsedMS,
	}
	if st.Solution != nil {
		res := resultOf(st.Label, st.Solution)
		out.Result = &res
	}
	return out
}

// handleJobSubmit enqueues an asynchronous solve:
//
//	POST /v1/jobs {"dataset":"cars","r":5}  ->  202 {"id":"job-000001",...}
func (s *Server) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	var req solveRequest
	if !s.decodeJSON(w, r, &req) {
		return
	}
	er, status, err := scheduledRequest(s, req)
	if err != nil {
		writeErr(w, status, err)
		return
	}
	st, err := s.sched.Submit(er)
	if err != nil {
		// Queue full -> 429, draining -> 503, both with Retry-After: the
		// same overload statuses /v1/solve and /v1/solve/batch use.
		if !s.writeOverload(w, err) {
			writeErr(w, http.StatusInternalServerError, err)
		}
		return
	}
	writeOK(w, http.StatusAccepted, wireStatus(st))
}

func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	st, ok := s.sched.Get(id)
	if !ok {
		writeErr(w, http.StatusNotFound, fmt.Errorf("unknown job %q", id))
		return
	}
	writeOK(w, http.StatusOK, wireStatus(st))
}

func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	st, ok := s.sched.Cancel(id)
	if !ok {
		writeErr(w, http.StatusNotFound, fmt.Errorf("unknown job %q", id))
		return
	}
	writeOK(w, http.StatusOK, wireStatus(st))
}

func (s *Server) handleJobsList(w http.ResponseWriter, r *http.Request) {
	statuses := s.sched.Jobs()
	out := make([]jobStatusResponse, len(statuses))
	for i, st := range statuses {
		out[i] = wireStatus(st)
	}
	writeOK(w, http.StatusOK, map[string]any{"jobs": out})
}

// serverMetrics is the one metrics shape every surface reports: both engine
// cache tiers (including the VecSet repairs counter), the scheduler state
// (including queue depth), the registry size, and the store's durability
// summary. /v1/metrics and /healthz both serialize this struct, so neither
// surface can drift into reporting partial stats.
//
// Each block is an internally coherent snapshot — its subsystem reads every
// counter under one lock — so a scraper can never observe a torn state such
// as jobs done exceeding jobs submitted, no matter how hard the server is
// being driven. Blocks are taken in one pass but not atomically with respect
// to each other (cross-subsystem coherence would require stopping the
// world), so only compare counters within a block.
type serverMetrics struct {
	Engine    engine.Metrics        `json:"engine"`
	Scheduler engine.SchedulerStats `json:"scheduler"`
	Datasets  int                   `json:"datasets"`
	// Store is the in-memory durability digest (store.Summary); the full
	// per-segment picture lives at GET /v1/store/status.
	Store store.Summary `json:"store"`
}

func (s *Server) metrics() serverMetrics {
	// Summary, not Status: metrics runs on every health probe and must not
	// do filesystem walks under the store lock.
	return serverMetrics{
		Engine:    s.eng.Metrics(),
		Scheduler: s.sched.Stats(),
		Datasets:  s.store.Len(),
		Store:     s.store.Summary(),
	}
}

// handleMetrics reports the unified server metrics.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	writeOK(w, http.StatusOK, s.metrics())
}

// handleDropDataset durably removes a dataset and its whole version
// history:
//
//	DELETE /v1/datasets/{name}
func (s *Server) handleDropDataset(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	obs.TraceFrom(r.Context()).Annotate("dataset", name)
	start := time.Now()
	if err := s.store.DropCtx(r.Context(), name); err != nil {
		s.writeStoreErr(w, err)
		return
	}
	s.mutateDur.ObserveSince(start)
	writeOK(w, http.StatusOK, map[string]any{"dropped": name})
}

// handleStoreStatus reports the durability layer's health — segments,
// snapshot lag, recovery shape — plus the warm-start progress:
//
//	GET /v1/store/status
func (s *Server) handleStoreStatus(w http.ResponseWriter, r *http.Request) {
	writeOK(w, http.StatusOK, map[string]any{
		"store":      s.store.Status(),
		"warm_start": s.warmStatus(),
	})
}

// evaluateRequest is the wire shape of POST /v1/evaluate: an independent
// sampled rank-regret estimate for a caller-chosen tuple set. The estimate
// is the same at every core count; for a given seed it differs from earlier
// releases.
type evaluateRequest struct {
	Dataset   string `json:"dataset"`
	Version   uint64 `json:"version,omitempty"`
	IDs       []int  `json:"ids"`
	Space     string `json:"space,omitempty"`
	Samples   int    `json:"samples,omitempty"`
	Seed      int64  `json:"seed,omitempty"`
	TimeoutMS int64  `json:"timeout_ms,omitempty"`
}

func (s *Server) handleEvaluate(w http.ResponseWriter, r *http.Request) {
	var req evaluateRequest
	if !s.decodeJSON(w, r, &req) {
		return
	}
	if len(req.IDs) == 0 {
		writeErr(w, http.StatusBadRequest, errors.New("ids must be non-empty"))
		return
	}
	ds, sp, timeout, status, err := s.resolve(req.Dataset, req.Space, req.TimeoutMS, req.Version)
	if err != nil {
		writeErr(w, status, err)
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()
	for _, id := range req.IDs {
		if id < 0 || id >= ds.N() {
			writeErr(w, http.StatusBadRequest, fmt.Errorf("tuple id %d out of range [0, %d)", id, ds.N()))
			return
		}
	}
	samples := req.Samples
	if samples <= 0 {
		samples = 20000
	}
	samples = clampSamples(samples)
	seed := req.Seed
	if seed == 0 {
		seed = 1
	}
	space := sp
	if space == nil {
		space = funcspace.NewFull(ds.Dim())
	}
	// The estimator checks ctx before every tile and every 64 samples, so a
	// timed-out request returns promptly with the ctx error.
	est, err := eval.RankRegretCtx(ctx, ds, req.IDs, space, samples, seed)
	if err != nil {
		writeErr(w, statusOf(err), err)
		return
	}
	writeOK(w, http.StatusOK, map[string]any{
		"dataset":     req.Dataset,
		"rank_regret": est,
		"percent":     100 * float64(est) / float64(ds.N()),
		"samples":     samples,
	})
}
