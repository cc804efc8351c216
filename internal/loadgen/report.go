package loadgen

import (
	"encoding/json"
	"math"
	"os"
	"sort"
)

// ReportSchema versions the BENCH_serving.json format.
const ReportSchema = 1

// LatencyMS summarizes a latency distribution in milliseconds. Percentiles
// use the nearest-rank method over the observed samples.
type LatencyMS struct {
	Count int     `json:"count"`
	Mean  float64 `json:"mean_ms"`
	P50   float64 `json:"p50_ms"`
	P95   float64 `json:"p95_ms"`
	P99   float64 `json:"p99_ms"`
	Max   float64 `json:"max_ms"`
}

// KindReport breaks the outcome counts and latency down by request kind.
// The Rejected* fields split sheds by what refused the request: a full
// scheduler queue (429), a degraded store refusing mutations (503 with
// reason "degraded"), or a draining server (other 503s).
type KindReport struct {
	Offered          int       `json:"offered"`
	OK               int       `json:"ok"`
	Rejected         int       `json:"rejected"`
	RejectedQueue    int       `json:"rejected_queue,omitempty"`
	RejectedDegraded int       `json:"rejected_degraded,omitempty"`
	RejectedDrain    int       `json:"rejected_drain,omitempty"`
	Errors           int       `json:"errors"`
	Latency          LatencyMS `json:"latency"`
}

// Sample is one point of the /v1/metrics timeline: queue pressure and cache
// effectiveness as the trace played.
type Sample struct {
	TMS          float64 `json:"t_ms"`
	QueueDepth   int     `json:"queue_depth"`
	Running      int64   `json:"running"`
	CacheHits    uint64  `json:"cache_hits"`
	CacheMisses  uint64  `json:"cache_misses"`
	VecSetReuses uint64  `json:"vecset_reuses"`
	VecSetBuilds uint64  `json:"vecset_builds"`
	Rejected     uint64  `json:"sched_rejected"`
	// SolveCount/SolveSumMS are the server-measured solve-latency totals
	// scraped from the Prometheus surface (rrmd_solve_duration_seconds),
	// placing server-side latency next to the client-side percentiles.
	// Zero against a daemon without GET /metrics.
	SolveCount uint64  `json:"prom_solve_count,omitempty"`
	SolveSumMS float64 `json:"prom_solve_sum_ms,omitempty"`
	// Goroutines and MaxBurnFast ride along from the same scrape: the Go
	// runtime gauge (rrmd_go_goroutines) and the worst fast-window SLO burn
	// rate across objectives (rrmd_slo_burn_rate_fast), so a load run's
	// timeline shows runtime pressure and budget burn next to queue depth.
	Goroutines  uint64  `json:"goroutines,omitempty"`
	MaxBurnFast float64 `json:"slo_max_burn_fast,omitempty"`
}

// Report is the BENCH_serving.json payload: one load run reduced to the
// serving numbers that matter. Rejected counts 429/503 sheds (the server
// protecting itself, by design); Errors counts everything else non-2xx;
// Unexpected5xx is the subset of errors with a 5xx status other than 503 —
// the count that should be zero on a healthy server and that CI asserts on.
type Report struct {
	Schema     int     `json:"schema"`
	Scenario   string  `json:"scenario"`
	Seed       int64   `json:"seed"`
	BaseURL    string  `json:"base_url"`
	DurationMS float64 `json:"duration_ms"`

	Offered  int `json:"offered"`
	OK       int `json:"ok"`
	Rejected int `json:"rejected"`
	// Rejected splits by rejecting subsystem: RejectedQueue is scheduler
	// admission (429), RejectedDegraded is the store refusing mutations
	// while degraded (503 + reason "degraded"), RejectedDrain is a
	// shutting-down server (other 503s).
	RejectedQueue    int     `json:"rejected_queue"`
	RejectedDegraded int     `json:"rejected_degraded"`
	RejectedDrain    int     `json:"rejected_drain"`
	Errors           int     `json:"errors"`
	Unexpected5xx    int     `json:"unexpected_5xx"`
	ThroughputRPS    float64 `json:"throughput_rps"`
	RejectRate       float64 `json:"reject_rate"`
	ErrorRate        float64 `json:"error_rate"`

	// Latency covers successful requests; RejectLatency covers sheds, and
	// should stay small — an overloaded server must say no quickly.
	Latency       LatencyMS `json:"latency"`
	RejectLatency LatencyMS `json:"reject_latency"`

	// BatchItems* count individual sweep items inside HTTP-200 batch
	// responses (per-item accept/reject is invisible to the HTTP status).
	BatchItemsAccepted int `json:"batch_items_accepted"`
	BatchItemsRejected int `json:"batch_items_rejected"`

	PerKind  map[string]KindReport `json:"per_kind"`
	Timeline []Sample              `json:"timeline,omitempty"`
}

// Save writes the report as indented JSON to path.
func (r *Report) Save(path string) error {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// latencyStats reduces a sample set to its summary. The input is not
// modified.
func latencyStats(ms []float64) LatencyMS {
	if len(ms) == 0 {
		return LatencyMS{}
	}
	sorted := append([]float64(nil), ms...)
	sort.Float64s(sorted)
	var sum float64
	for _, v := range sorted {
		sum += v
	}
	return LatencyMS{
		Count: len(sorted),
		Mean:  sum / float64(len(sorted)),
		P50:   percentile(sorted, 50),
		P95:   percentile(sorted, 95),
		P99:   percentile(sorted, 99),
		Max:   sorted[len(sorted)-1],
	}
}

// percentile returns the nearest-rank p-th percentile of sorted (ascending)
// samples: the smallest value with at least p% of the mass at or below it.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}
