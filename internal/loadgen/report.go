package loadgen

import (
	"encoding/json"
	"os"
	"sort"
)

// ReportSchema versions the BENCH_serving.json format.
const ReportSchema = 2

// KindReport breaks the outcome counts down by request kind.
// The Rejected* fields split sheds by what refused the request: a full
// scheduler queue (429), a degraded store refusing mutations (503 with
// reason "degraded"), or a draining server (other 503s).
type KindReport struct {
	Offered          int `json:"offered"`
	OK               int `json:"ok"`
	Rejected         int `json:"rejected"`
	RejectedQueue    int `json:"rejected_queue,omitempty"`
	RejectedDegraded int `json:"rejected_degraded,omitempty"`
	RejectedDrain    int `json:"rejected_drain,omitempty"`
	Errors           int `json:"errors"`
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

	PerKind map[string]KindReport `json:"per_kind"`
}

// Save writes the report as indented JSON to path.
func (r *Report) Save(path string) error {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
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
