// Package obs is the observability core of the serving stack: a
// dependency-free metrics registry (read-time counters and gauges, settable
// gauges, and fixed-bucket latency histograms) with a Prometheus
// text-exposition writer, plus lightweight per-request tracing (request ids,
// per-stage span timelines, and a bounded recent-traces ring).
//
// The package deliberately depends on nothing but the standard library, so
// every layer of the stack — engine, scheduler, store, daemon — can record
// into one registry without import cycles. Instruments are cheap enough for
// hot paths: counters are read at scrape time from the counts a subsystem
// already keeps, and a histogram observation is one short mutex hold (the
// mutex is what makes a scrape's bucket/sum/count triple exactly coherent,
// which the exposition promises).
package obs

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// DefBuckets is the default latency histogram layout, in seconds: sub-ms
// through 10s, roughly logarithmic. It brackets everything the serving stack
// measures — cache probes (µs), WAL fsyncs (sub-ms to ms), cold solves
// (hundreds of ms), and queue waits under overload (seconds).
var DefBuckets = []float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// Gauge is a settable instantaneous value (float64 behind an atomic). Use
// GaugeFunc when a subsystem already owns the value; use a GaugeVec series
// when the metric is computed on a schedule (e.g. SLO evaluations) and must
// read the same between scrapes.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the stored value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram is a fixed-bucket latency histogram. Observations are guarded by
// a mutex (not per-bucket atomics) so a Snapshot — and therefore a Prometheus
// scrape — always sees a coherent triple: the +Inf bucket equals the count,
// and the sum includes every counted observation.
type Histogram struct {
	mu     sync.Mutex
	bounds []float64 // ascending upper bounds; +Inf is implicit
	counts []uint64  // per-bucket (non-cumulative); len = len(bounds)+1
	count  uint64
	sum    float64
}

func newHistogram(bounds []float64) *Histogram {
	b := append([]float64(nil), bounds...)
	sort.Float64s(b)
	return &Histogram{bounds: b, counts: make([]uint64, len(b)+1)}
}

// Observe records one value (seconds, for latency histograms).
func (h *Histogram) Observe(v float64) {
	h.mu.Lock()
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[i]++
	h.count++
	h.sum += v
	h.mu.Unlock()
}

// ObserveSince records the seconds elapsed since t0.
func (h *Histogram) ObserveSince(t0 time.Time) {
	h.Observe(time.Since(t0).Seconds())
}

// HistogramSnapshot is one coherent view of a histogram.
type HistogramSnapshot struct {
	Bounds     []float64 // ascending upper bounds; +Inf implicit
	Cumulative []uint64  // cumulative count per bound, then +Inf (== Count)
	Count      uint64
	Sum        float64
}

// Snapshot returns a coherent copy of the histogram state.
func (h *Histogram) Snapshot() HistogramSnapshot {
	h.mu.Lock()
	defer h.mu.Unlock()
	cum := make([]uint64, len(h.counts))
	var run uint64
	for i, c := range h.counts {
		run += c
		cum[i] = run
	}
	return HistogramSnapshot{
		Bounds:     append([]float64(nil), h.bounds...),
		Cumulative: cum,
		Count:      h.count,
		Sum:        h.sum,
	}
}

// metricType is the exposition TYPE of a family.
type metricType string

const (
	typeCounter   metricType = "counter"
	typeGauge     metricType = "gauge"
	typeHistogram metricType = "histogram"
)

// series is one sample stream of a family: an instrument or a read-time
// callback, with at most one label pair.
type series struct {
	labelValue string // "" when the family is unlabeled
	hist       *Histogram
	gauge      *Gauge
	fn         func() float64           // counterFunc / gaugeFunc callback
	histFn     func() HistogramSnapshot // histogramFunc callback
}

// family is one named metric with HELP/TYPE metadata and its series.
type family struct {
	name, help string
	typ        metricType
	labelName  string // "" when unlabeled
	bounds     []float64

	mu     sync.Mutex
	series []series
	byLbl  map[string]int
}

// Registry holds named metric families and renders them in Prometheus text
// exposition format. All methods are safe for concurrent use. Registering
// the same name twice with a different type, help, or label layout panics:
// that is a programming error, not a runtime condition.
type Registry struct {
	mu    sync.Mutex
	fams  map[string]*family
	order []string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{fams: make(map[string]*family)}
}

func validName(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_', r == ':':
		case r >= '0' && r <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// register installs (or fetches) the family named name, enforcing metadata
// consistency.
func (r *Registry) register(name, help string, typ metricType, labelName string, bounds []float64) *family {
	if !validName(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	if labelName != "" && !validName(labelName) {
		panic(fmt.Sprintf("obs: invalid label name %q", labelName))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.fams[name]; ok {
		if f.typ != typ || f.help != help || f.labelName != labelName {
			panic(fmt.Sprintf("obs: metric %q re-registered with different metadata", name))
		}
		return f
	}
	f := &family{name: name, help: help, typ: typ, labelName: labelName,
		bounds: append([]float64(nil), bounds...), byLbl: make(map[string]int)}
	r.fams[name] = f
	r.order = append(r.order, name)
	return f
}

// one returns the family's single unlabeled series, creating it via mk.
func (f *family) one(mk func() series) *series {
	f.mu.Lock()
	defer f.mu.Unlock()
	if len(f.series) == 0 {
		f.series = append(f.series, mk())
	}
	return &f.series[0]
}

// with returns the series for a label value, creating it via mk. Idempotent
// per value.
func (f *family) with(value string, mk func() series) *series {
	f.mu.Lock()
	defer f.mu.Unlock()
	if i, ok := f.byLbl[value]; ok {
		return &f.series[i]
	}
	s := mk()
	s.labelValue = value
	f.series = append(f.series, s)
	f.byLbl[value] = len(f.series) - 1
	return &f.series[len(f.series)-1]
}

// CounterFunc registers a counter whose value is read from fn at scrape
// time — the bridge for subsystems that already keep their own counters
// (cache hits, scheduler totals, WAL records), so the exposition and the
// JSON metrics surface read the same underlying state instead of double
// bookkeeping.
func (r *Registry) CounterFunc(name, help string, fn func() float64) {
	f := r.register(name, help, typeCounter, "", nil)
	f.one(func() series { return series{fn: fn} })
}

// GaugeFunc registers a gauge read from fn at scrape time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	f := r.register(name, help, typeGauge, "", nil)
	f.one(func() series { return series{fn: fn} })
}

// GaugeVec registers a settable gauge family with one label dimension.
func (r *Registry) GaugeVec(name, help, label string) *GaugeVec {
	return &GaugeVec{f: r.register(name, help, typeGauge, label, nil)}
}

// GaugeVec is a labeled settable gauge family.
type GaugeVec struct{ f *family }

// With returns the gauge for one label value, creating it on first use.
func (v *GaugeVec) With(value string) *Gauge {
	return v.f.with(value, func() series { return series{gauge: &Gauge{}} }).gauge
}

// HistogramFunc registers a histogram whose whole snapshot is produced by fn
// at scrape time — the bridge for histograms maintained outside the registry,
// such as the Go runtime's GC-pause and scheduler-latency distributions. The
// snapshot must satisfy the exposition invariants: ascending bounds,
// non-decreasing cumulative counts, and Cumulative values never exceeding
// Count.
func (r *Registry) HistogramFunc(name, help string, fn func() HistogramSnapshot) {
	f := r.register(name, help, typeHistogram, "", nil)
	f.one(func() series { return series{histFn: fn} })
}

// Histogram registers (or fetches) an unlabeled histogram with the given
// bucket upper bounds (nil = DefBuckets).
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	if bounds == nil {
		bounds = DefBuckets
	}
	f := r.register(name, help, typeHistogram, "", bounds)
	return f.one(func() series { return series{hist: newHistogram(f.bounds)} }).hist
}

// HistogramVec registers a histogram family with one label dimension.
func (r *Registry) HistogramVec(name, help, label string, bounds []float64) *HistogramVec {
	if bounds == nil {
		bounds = DefBuckets
	}
	return &HistogramVec{f: r.register(name, help, typeHistogram, label, bounds)}
}

// HistogramVec is a labeled histogram family.
type HistogramVec struct{ f *family }

// With returns the histogram for one label value, creating it on first use.
func (v *HistogramVec) With(value string) *Histogram {
	return v.f.with(value, func() series { return series{hist: newHistogram(v.f.bounds)} }).hist
}
