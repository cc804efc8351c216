// Package loadgen is a seeded open-loop traffic generator for rrmd: it turns a
// scenario description into a deterministic request trace (solves,
// parameter sweeps, dataset mutations, and pinned-version solves over
// multiple named datasets, with Poisson or bursty arrival times), fires the
// trace at a live daemon over HTTP without waiting for completions — the
// open-loop discipline, so server slowdowns surface as mounting concurrency
// instead of silently throttling the offered load — and reduces the outcomes
// to a report of counts: completed, shed (by cause), failed, and per-item
// batch results, plus the p99 latency of completed and of shed requests.
//
// Generate is a pure function of its Config, so the same seed and settings
// reproduce the same trace; there is no trace file to ship. Latency is not
// this package's job: its clock starts at send, not when the request was
// due, so a late generator reads as a slow server. cmd/rrmladder is the
// latency benchmark.
package loadgen

// Kind names one request type of a trace event.
type Kind string

const (
	// KindSolve is a synchronous POST /v1/solve on the current version.
	KindSolve Kind = "solve"
	// KindSweep is a POST /v1/solve/batch sweeping r over a small range.
	KindSweep Kind = "sweep"
	// KindMutate appends rows via POST /v1/datasets/{name}/rows, publishing
	// a new dataset version.
	KindMutate Kind = "mutate"
	// KindPinned solves against an older retained version (looked up at
	// fire time), exercising the pinned-version path.
	KindPinned Kind = "pinned"
)

// Event is one scheduled request of an open-loop trace.
type Event struct {
	// AtMS is the firing offset from trace start, in milliseconds.
	AtMS float64
	Kind Kind
	// Dataset names the registry entry the request targets.
	Dataset string
	// R is the solve budget for solve/pinned events, and the first r of the
	// swept range for sweep events.
	R int
	// Width is how many consecutive r values a sweep covers.
	Width int
	// Rows is how many rows a mutate appends.
	Rows int
	// Seed salts the row content of a mutate, so every run of the trace
	// appends identical data.
	Seed int64
}

// Trace is a deterministic request schedule, ordered by AtMS.
type Trace struct {
	Scenario   string
	Seed       int64
	DurationMS float64
	Datasets   []string
	Events     []Event
}
