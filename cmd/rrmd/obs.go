package main

import (
	"fmt"
	"net/http"
	"os"
	"strconv"
	"time"

	"github.com/rankregret/rankregret/internal/obs"
	"github.com/rankregret/rankregret/internal/obs/slo"
	"github.com/rankregret/rankregret/internal/store"
)

// DefaultTraceRing is how many recent traced requests the daemon retains for
// GET /v1/trace/{id} and GET /v1/traces (the -trace-ring flag overrides).
const DefaultTraceRing = 256

// instrument wires the server's observability: the one metrics registry
// (latency histograms recorded by the engine, scheduler, and store, plus
// scrape-time collectors over the exact same subsystem snapshots
// /v1/metrics serializes — one source of truth, two renderings), the trace
// ring, the SLO engine over the latency histograms, and the anomaly flight
// recorder (slow requests, SLO fast burns, store health transitions).
// Called once by NewServer, before the server serves traffic — the fields
// it sets are read without locks on request paths.
func (s *Server) instrument() error {
	reg := obs.NewRegistry()
	s.obs = reg
	s.traces = obs.NewTraceRing(s.cfg.TraceRing)
	s.eng.Instrument(reg)
	s.sched.Instrument(reg)
	s.store.Instrument(reg)
	s.solveDur = reg.Histogram("rrmd_solve_duration_seconds",
		"End-to-end successful /v1/solve latency, cache hits included.", nil)
	s.mutateDur = reg.Histogram("rrmd_mutate_duration_seconds",
		"End-to-end successful mutation latency (upload, append, delete, drop), WAL fsync included.", nil)
	s.scrapeDur = reg.Histogram("rrmd_scrape_duration_seconds",
		"GET /metrics render latency.", nil)
	obs.RegisterRuntime(reg)

	// Engine cache tiers (engine.Metrics in the JSON surface).
	reg.CounterFunc("rrmd_cache_hits_total", "Solution-cache hits.",
		func() float64 { return float64(s.eng.CacheStats().Hits) })
	reg.CounterFunc("rrmd_cache_misses_total", "Solution-cache misses.",
		func() float64 { return float64(s.eng.CacheStats().Misses) })
	reg.GaugeFunc("rrmd_cache_entries", "Solution-cache occupancy.",
		func() float64 { return float64(s.eng.CacheStats().Len) })
	reg.GaugeFunc("rrmd_cache_capacity", "Solution-cache capacity.",
		func() float64 { return float64(s.eng.CacheStats().Cap) })
	reg.CounterFunc("rrmd_vecset_builds_total", "VecSet-tier cold builds: vector sets and 2D sweep plans.",
		func() float64 { return float64(s.eng.VecSetStats().Builds) })
	reg.CounterFunc("rrmd_vecset_extensions_total", "VecSet-tier sample-stream extensions.",
		func() float64 { return float64(s.eng.VecSetStats().Extensions) })
	reg.CounterFunc("rrmd_vecset_reuses_total", "VecSet-tier pure reuses of a vector set or 2D sweep plan.",
		func() float64 { return float64(s.eng.VecSetStats().Reuses) })
	reg.CounterFunc("rrmd_vecset_repairs_total", "VecSet-tier incremental delta repairs: vector sets across appends and deletes, 2D sweep plans across appends.",
		func() float64 { return float64(s.eng.VecSetStats().Repairs) })
	reg.GaugeFunc("rrmd_vecset_entries", "VecSet-tier occupancy.",
		func() float64 { return float64(s.eng.VecSetStats().Len) })

	// Scheduler (engine.SchedulerStats in the JSON surface).
	reg.CounterFunc("rrmd_jobs_submitted_total", "Jobs admitted to the scheduler.",
		func() float64 { return float64(s.sched.Stats().Submitted) })
	reg.CounterFunc("rrmd_jobs_done_total", "Jobs finished successfully.",
		func() float64 { return float64(s.sched.Stats().Done) })
	reg.CounterFunc("rrmd_jobs_failed_total", "Jobs finished with an error.",
		func() float64 { return float64(s.sched.Stats().Failed) })
	reg.CounterFunc("rrmd_jobs_rejected_total", "Jobs refused at admission (queue full or draining).",
		func() float64 { return float64(s.sched.Stats().Rejected) })
	reg.CounterFunc("rrmd_solver_panics_total", "Solves that panicked; each failed only its own job.",
		func() float64 { return float64(s.sched.Stats().Panicked) })
	reg.GaugeFunc("rrmd_queue_depth", "Jobs waiting in the scheduler queue.",
		func() float64 { return float64(s.sched.Stats().QueueDepth) })
	reg.GaugeFunc("rrmd_queue_capacity", "Scheduler queue capacity.",
		func() float64 { return float64(s.sched.Stats().QueueCap) })
	reg.GaugeFunc("rrmd_jobs_running", "Jobs currently running.",
		func() float64 { return float64(s.sched.Stats().Running) })
	reg.GaugeFunc("rrmd_workers", "Scheduler worker count.",
		func() float64 { return float64(s.sched.Stats().Workers) })
	reg.GaugeFunc("rrmd_scheduler_draining", "1 while the scheduler is draining for shutdown.",
		func() float64 { return b2f(s.sched.Stats().Draining) })

	// Registry and durability layer (store.Summary in the JSON surface).
	reg.GaugeFunc("rrmd_datasets", "Registered datasets.",
		func() float64 { return float64(s.store.Len()) })
	reg.CounterFunc("rrmd_store_records_total", "WAL records appended since open.",
		func() float64 { return float64(s.store.Summary().Records) })
	reg.CounterFunc("rrmd_store_syncs_total", "WAL fsyncs completed since open.",
		func() float64 { return float64(s.store.Summary().Syncs) })
	reg.CounterFunc("rrmd_store_snapshots_total", "Snapshots persisted since open.",
		func() float64 { return float64(s.store.Summary().Snapshots) })
	reg.CounterFunc("rrmd_store_heal_attempts_total", "Self-heal attempts since open.",
		func() float64 { return float64(s.store.Summary().HealAttempts) })
	reg.CounterFunc("rrmd_store_heal_successes_total", "Completed self-heals since open.",
		func() float64 { return float64(s.store.Summary().HealSuccesses) })
	reg.GaugeFunc("rrmd_store_wal_bytes", "On-disk WAL size in bytes.",
		func() float64 { return float64(s.store.Summary().WALBytes) })
	reg.GaugeFunc("rrmd_store_snapshot_lag", "WAL records since the last snapshot cut.",
		func() float64 { return float64(s.store.Summary().SnapshotLag) })
	reg.GaugeFunc("rrmd_store_degraded", "1 while the store is degraded (mutations rejected, healer active).",
		func() float64 { return b2f(s.store.Summary().State == store.HealthDegraded) })

	// The SLO engine and the SLO-spec checks come before the recorder, so a
	// bad spec fails NewServer before the store's health hook points here.
	cfg := s.cfg.SLO
	cfg.Registry = reg
	cfg.OnFastBurn = func(st slo.Status) {
		s.cfg.Logger.Error("rrmd: SLO fast-burn alarm",
			"objective", st.Name, "burn_rate_fast", st.BurnRateFast,
			"burn_rate_slow", st.BurnRateSlow, "compliance", st.Compliance)
		// Attach the most recent retained trace: under a burn it is almost
		// certainly one of the offending requests.
		var tr *obs.Trace
		if recent := s.traces.Recent(1); len(recent) > 0 {
			tr = recent[0]
		}
		s.recorder.Capture("slo_fast_burn",
			fmt.Sprintf("objective %s burning at %.1fx budget", st.Name, st.BurnRateFast), tr)
	}
	s.sloEng = slo.New(cfg)
	s.sloEng.Register("solve", s.solveDur.Snapshot)
	s.sloEng.Register("mutate", s.mutateDur.Snapshot)
	s.sloEng.Register("scrape", s.scrapeDur.Snapshot)
	objectives := slo.DefaultObjectives()
	if len(s.cfg.SLOSpecs) > 0 {
		objectives = objectives[:0]
		for _, spec := range s.cfg.SLOSpecs {
			obj, err := slo.ParseObjective(spec)
			if err != nil {
				return err
			}
			objectives = append(objectives, obj)
		}
	}
	for _, obj := range objectives {
		if err := s.sloEng.Add(obj); err != nil {
			return err
		}
	}

	if s.cfg.IncidentDir != "" {
		if err := os.MkdirAll(s.cfg.IncidentDir, 0o755); err != nil {
			return fmt.Errorf("rrmd: creating -incident-dir: %w", err)
		}
	}
	s.recorder = obs.NewRecorder(obs.RecorderConfig{
		Dir:      s.cfg.IncidentDir,
		Registry: reg,
		LogRing:  s.cfg.LogRing,
		Logger:   s.cfg.Logger,
	})
	s.store.OnHealthChange(func(h store.HealthState) {
		s.recorder.Capture("store_health", "store transitioned to "+string(h), nil)
	})
	return nil
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// withObs is the edge middleware: it mints the request id (honoring an
// inbound X-Request-Id), opens the request trace, threads it down the stack
// via the request context, and on the way out retains the trace (when any
// stage recorded a span), logs the per-stage breakdown for requests slower
// than TraceSlow — every such anomaly record carries the request id and
// dataset — and hands slow requests to the flight recorder.
func (s *Server) withObs(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get("X-Request-Id")
		if id == "" {
			id = obs.NewRequestID()
		}
		tr := obs.NewTrace(id)
		w.Header().Set("X-Request-Id", id)
		next.ServeHTTP(w, r.WithContext(obs.WithTrace(r.Context(), tr)))
		total := tr.Finish()
		if tr.SpanCount() == 0 {
			// Untraced surface (metrics scrapes, listings): nothing to keep.
			return
		}
		s.traces.Put(tr)
		if slow := s.cfg.TraceSlow; slow > 0 && total >= slow {
			s.cfg.Logger.Warn("rrmd: slow request",
				"method", r.Method, "path", r.URL.Path, "request_id", id,
				"dataset", tr.Annotation("dataset"),
				"total_ms", float64(total)/float64(time.Millisecond),
				"breakdown", tr.Breakdown())
			s.recorder.Capture("slow_request",
				fmt.Sprintf("%s %s took %.2fms (threshold %s)",
					r.Method, r.URL.Path, float64(total)/float64(time.Millisecond), slow), tr)
		}
	})
}

// handlePrometheus serves the registry in Prometheus text exposition format:
//
//	GET /metrics
//
// The SLO engine is evaluated first, so the rrmd_slo_* gauges in every
// scrape reflect the histograms as of this scrape — and agree with a
// /v1/slo read once traffic quiesces.
func (s *Server) handlePrometheus(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	s.sloEng.Eval()
	w.Header().Set("Content-Type", obs.ExpositionContentType)
	if err := s.obs.WritePrometheus(w); err != nil {
		s.cfg.Logger.Warn("rrmd: writing /metrics failed", "err", err)
		return
	}
	s.scrapeDur.ObserveSince(start)
}

// handleSLO reports every declared objective's evaluated state:
//
//	GET /v1/slo
func (s *Server) handleSLO(w http.ResponseWriter, r *http.Request) {
	writeOK(w, http.StatusOK, map[string]any{"objectives": s.sloEng.Eval()})
}

// incidentSummary is the list-view shape of one incident: the heavy payloads
// (trace, goroutine profile, metrics, logs) are served by the per-id get.
type incidentSummary struct {
	ID        string    `json:"id"`
	Time      time.Time `json:"time"`
	Trigger   string    `json:"trigger"`
	Detail    string    `json:"detail"`
	RequestID string    `json:"request_id,omitempty"`
}

// handleIncidents lists retained incidents, newest first:
//
//	GET /v1/incidents?n=20
func (s *Server) handleIncidents(w http.ResponseWriter, r *http.Request) {
	n := 20
	if v := r.URL.Query().Get("n"); v != "" {
		p, err := strconv.Atoi(v)
		if err != nil || p < 1 {
			writeErr(w, http.StatusBadRequest, fmt.Errorf("bad n %q", v))
			return
		}
		n = p
	}
	recent := s.recorder.Recent(n)
	out := make([]incidentSummary, len(recent))
	for i, inc := range recent {
		out[i] = incidentSummary{ID: inc.ID, Time: inc.Time, Trigger: inc.Trigger, Detail: inc.Detail, RequestID: inc.RequestID}
	}
	writeOK(w, http.StatusOK, map[string]any{"incidents": out})
}

// handleIncident serves one full incident bundle:
//
//	GET /v1/incidents/{id}
func (s *Server) handleIncident(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	inc, ok := s.recorder.Get(id)
	if !ok {
		writeErr(w, http.StatusNotFound, fmt.Errorf("no incident %q (the ring keeps the last %d incidents)", id, s.recorder.Len()))
		return
	}
	writeOK(w, http.StatusOK, inc)
}

// handleTrace serves one retained request trace:
//
//	GET /v1/trace/{id}
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	tr, ok := s.traces.Get(id)
	if !ok {
		writeErr(w, http.StatusNotFound,
			fmt.Errorf("no trace for request id %q (the ring keeps the last %d traced requests)", id, s.traces.Cap()))
		return
	}
	writeOK(w, http.StatusOK, tr.Snapshot())
}

// handleTraces lists the most recent retained traces, newest first:
//
//	GET /v1/traces?n=20
func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	n := 20
	if v := r.URL.Query().Get("n"); v != "" {
		p, err := strconv.Atoi(v)
		if err != nil || p < 1 {
			writeErr(w, http.StatusBadRequest, fmt.Errorf("bad n %q", v))
			return
		}
		n = p
	}
	recent := s.traces.Recent(n)
	out := make([]obs.TraceSnapshot, len(recent))
	for i, tr := range recent {
		out[i] = tr.Snapshot()
	}
	writeOK(w, http.StatusOK, map[string]any{"traces": out})
}
