package main

import (
	"fmt"
	"math"
	"os"
	"slices"
	"strconv"
	"strings"
	"time"

	"github.com/rankregret/rankregret/internal/engine"
	"github.com/rankregret/rankregret/internal/obs"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) { m[name] = metric{v, unit} }

// merge copies src into m with prefix on each name, leaving out values JSON
// cannot carry (NaN from an empty sample, infinities).
func (m metrics) merge(prefix string, src metrics) {
	for k, v := range src {
		if !math.IsNaN(v.Value) && !math.IsInf(v.Value, 0) {
			m[prefix+k] = v
		}
	}
}

// mutateClass is the sample class of appends; solves are classed by dataset.
const mutateClass = "mutate"

// sample is one operation of a timed window.
type sample struct {
	class string
	lat   float64 // ms from the send to the reply
	ok    bool
	id    string // request id, traced serving windows only
}

// window is what one timed window measured.
type window struct {
	elapsed    time.Duration // without the host probe's slices
	paced      bool          // the serving client's schedule set the rate
	probe      []float64     // host probe slices run during the window, ms
	samples    []sample
	late       []float64 // ms each request went out after it was due
	wrong      []string  // oracle complaints about answers
	rss        []float64 // MiB, polled over the window: the benchmark in process, the daemon when serving
	hwm        float64   // MiB, the daemon's lifetime high-water mark; serving only
	allocBytes float64   // bytes allocated by the measured process over the window
	gcCycles   float64
	counters   engineCounters
	traces     []tracedOp
}

// tracedOp is one traced operation: the client-side latency beside the span
// timeline the program recorded for it.
type tracedOp struct {
	class  string
	client float64 // ms from the send to the reply
	snap   obs.TraceSnapshot
}

// engineCounters are the engine's cache-tier counters over a window.
type engineCounters struct {
	Hits, Misses                        uint64
	Builds, Extensions, Reuses, Repairs uint64
}

func countersOf(m engine.Metrics) engineCounters {
	return engineCounters{
		Hits: m.Solutions.Hits, Misses: m.Solutions.Misses,
		Builds: m.VecSets.Builds, Extensions: m.VecSets.Extensions,
		Reuses: m.VecSets.Reuses, Repairs: m.VecSets.Repairs,
	}
}

func (c engineCounters) plus(o engineCounters) engineCounters {
	return engineCounters{c.Hits + o.Hits, c.Misses + o.Misses,
		c.Builds + o.Builds, c.Extensions + o.Extensions, c.Reuses + o.Reuses, c.Repairs + o.Repairs}
}

func (c engineCounters) minus(o engineCounters) engineCounters {
	return engineCounters{c.Hits - o.Hits, c.Misses - o.Misses,
		c.Builds - o.Builds, c.Extensions - o.Extensions, c.Reuses - o.Reuses, c.Repairs - o.Repairs}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// lats returns the latencies of the successful samples of class ("" = every
// solve, leaving appends out).
func (w *window) lats(class string) []float64 {
	var out []float64
	for _, s := range w.samples {
		if s.ok && (s.class == class || class == "" && s.class != mutateClass) {
			out = append(out, s.lat)
		}
	}
	return out
}

// endToEnd is every end-to-end number of the window but setup_s;
// BENCHMARK.json selects which the run reports on its last line, the rest
// go to the result file. Latencies, and a closed loop's throughput, are
// scaled to the host probe's reference speed; each is also kept as
// measured, under "raw.".
func (w *window) endToEnd() (metrics, error) {
	k, err := probeScale(w.probe)
	if err != nil {
		return nil, err
	}
	m := metrics{}
	// timed records v as measured and scaled: a time times k, a rate ÷ k.
	timed := func(name string, v float64, unit string) {
		m.set("raw."+name, v, unit)
		if unit == "ms" {
			v *= k
		} else {
			v /= k
		}
		m.set(name, v, unit)
	}
	// The 90th percentile rather than the peak: a garbage collection landing
	// early or late in a window moved sweep's peak by up to 20%.
	m.set("rss_p90_mb", percentile(w.rss, 90), "MiB")
	m.set("peak_rss_mb", percentile(w.rss, 100), "MiB")
	if w.hwm > 0 {
		m.set("hwm_rss_mb", w.hwm, "MiB")
	}
	ok := 0
	for _, s := range w.samples {
		if s.ok {
			ok++
		}
	}
	m.set("ok_ratio", ratio(float64(ok), float64(len(w.samples))), "ratio")
	ops := ratio(float64(ok), w.elapsed.Seconds())
	if w.paced {
		// The schedule sets a paced client's rate, not the host.
		m.set("ops_per_s", ops, "ops/s")
	} else {
		timed("ops_per_s", ops, "ops/s")
	}
	for _, s := range specs {
		l := w.lats(s.name)
		timed("p50_ms."+s.name, median(l), "ms")
		m.set("n."+s.name, float64(len(l)), "count")
	}
	solves := w.lats("")
	timed("p50_ms", median(solves), "ms")
	timed("p95_ms", percentile(solves, 95), "ms")
	timed("p99_ms", percentile(solves, 99), "ms")
	if mut := w.lats(mutateClass); len(mut) > 0 {
		timed("p50_ms.mutate", median(mut), "ms")
		timed("p95_ms.mutate", percentile(mut, 95), "ms")
		m.set("n.mutate", float64(len(mut)), "count")
	}
	m.set("loadgen.late_p50_ms", median(w.late), "ms")
	m.set("loadgen.late_p99_ms", percentile(w.late, 99), "ms")
	m.set("host.probe_ms", median(w.probe), "ms")
	m.set("host.probe_slices", float64(len(w.probe)), "count")
	return m, nil
}

// layers derives the per-layer numbers of a workload from its untraced and
// traced windows: runtime and cache-tier counts from the untraced one (so
// tracing's own allocations stay out), span accounting from the traced one,
// and the tracing overhead from the two, each scaled by its own window's
// host probe. Every other layer number is as measured.
func layers(untraced, traced *window) (metrics, error) {
	ku, err := probeScale(untraced.probe)
	if err != nil {
		return nil, err
	}
	kt, err := probeScale(traced.probe)
	if err != nil {
		return nil, err
	}
	m := metrics{}
	n := float64(len(untraced.samples))
	m.set("runtime.alloc_bytes_per_op", ratio(untraced.allocBytes, n), "B")
	m.set("runtime.gc_per_op", ratio(untraced.gcCycles, n), "count")
	m.set("loadgen.late_p99_ms", percentile(untraced.late, 99), "ms")
	var over []float64
	for _, s := range specs {
		over = append(over, kt*median(traced.lats(s.name))/(ku*median(untraced.lats(s.name)))-1)
	}
	m.set("obs.trace_overhead_pct", 100*mean(over), "%")
	c := untraced.counters
	m.set("engine.solution_hit_ratio", ratio(float64(c.Hits), float64(c.Hits+c.Misses)), "ratio")
	m.set("engine.vecset.reuse_ratio", ratio(float64(c.Reuses), float64(c.Builds+c.Extensions+c.Reuses+c.Repairs)), "ratio")
	m.set("engine.vecset.builds", float64(c.Builds), "count")
	m.set("engine.vecset.repairs", float64(c.Repairs), "count")

	// Means, not medians: they add up exactly (op = client residue +
	// unspanned + every span's self time), and a workload mixing datasets
	// has no single typical operation for a median to find.
	var op, total, residue, unspanned, cache []float64
	for _, t := range traced.traces {
		self := selfSum(t.snap)
		op = append(op, t.client)
		total = append(total, t.snap.TotalMS)
		residue = append(residue, t.client-t.snap.TotalMS)
		unspanned = append(unspanned, t.snap.TotalMS-self)
		cache = append(cache, spanSelf(t.snap, "cache"))
	}
	m.set("trace.op_ms", mean(op), "ms")
	m.set("trace.server_total_ms", mean(total), "ms")
	m.set("trace.client_residue_ms", mean(residue), "ms")
	m.set("trace.unspanned_ms", mean(unspanned), "ms")
	m.set("trace.cache.self_ms", mean(cache), "ms")
	return m, nil
}

func spanSelf(snap obs.TraceSnapshot, name string) float64 {
	var s float64
	for _, sp := range snap.Spans {
		if sp.Name == name {
			s += sp.SelfMS
		}
	}
	return s
}

func selfSum(snap obs.TraceSnapshot) float64 {
	var s float64
	for _, sp := range snap.Spans {
		s += sp.SelfMS
	}
	return s
}

// acctRow splits one class's median operation into its layers: the client
// side (client residue), the traced call outside any span (unspanned), and
// each span's self time, all medians, plus what is left of the median op
// after them. On a tight distribution the rest is near zero; a large rest
// is time no layer owns.
type acctRow struct {
	Class string             `json:"class"`
	Ops   int                `json:"ops"`
	OpP50 float64            `json:"op_p50_ms"`
	Parts map[string]float64 `json:"parts_p50_ms"`
	Rest  float64            `json:"rest_ms"`
}

func accounting(traces []tracedOp) []acctRow {
	byClass := map[string][]tracedOp{}
	for _, t := range traces {
		byClass[t.class] = append(byClass[t.class], t)
	}
	var rows []acctRow
	for _, class := range sortedKeys(byClass) {
		ts := byClass[class]
		names := map[string]bool{}
		for _, t := range ts {
			for _, sp := range t.snap.Spans {
				names[sp.Name] = true
			}
		}
		parts := map[string][]float64{}
		var op []float64
		for _, t := range ts {
			op = append(op, t.client)
			parts["client_residue"] = append(parts["client_residue"], t.client-t.snap.TotalMS)
			parts["unspanned"] = append(parts["unspanned"], t.snap.TotalMS-selfSum(t.snap))
			for name := range names {
				parts[name] = append(parts[name], spanSelf(t.snap, name))
			}
		}
		row := acctRow{Class: class, Ops: len(ts), OpP50: median(op), Parts: map[string]float64{}}
		row.Rest = row.OpP50
		for name, xs := range parts {
			row.Parts[name] = median(xs)
			row.Rest -= row.Parts[name]
		}
		rows = append(rows, row)
	}
	return rows
}

func (r acctRow) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s ops=%-6d op_p50=%.4fms =", r.Class, r.Ops, r.OpP50)
	for _, name := range sortedKeys(r.Parts) {
		fmt.Fprintf(&b, " %s %.4f +", name, r.Parts[name])
	}
	fmt.Fprintf(&b, " rest %.4f (%.1f%%)", r.Rest, 100*r.Rest/r.OpP50)
	return b.String()
}

// procStatusKiB reads one "Name:   123 kB" field of /proc/<pid>/status.
func procStatusKiB(pid, field string) (float64, error) {
	b, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		name, rest, ok := strings.Cut(line, ":")
		if !ok || name != field {
			continue
		}
		f := strings.Fields(rest)
		if len(f) == 0 {
			break
		}
		return strconv.ParseFloat(f[0], 64)
	}
	return 0, fmt.Errorf("no %s in /proc/%s/status", field, pid)
}

// rssSampler polls a process's resident set (VmRSS) over a window: the
// lifetime high-water mark would also count set-up, the warm-up, and the
// benchmark's own reference solves. Only the polling goroutine touches
// polls until done is closed.
type rssSampler struct {
	pid   string // "self" or a pid
	stop  chan struct{}
	done  chan struct{}
	polls []float64 // MiB
}

func startRSS(pid string) *rssSampler {
	s := &rssSampler{pid: pid, stop: make(chan struct{}), done: make(chan struct{})}
	s.poll()
	go func() {
		defer close(s.done)
		t := time.NewTicker(20 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-t.C:
				s.poll()
			}
		}
	}()
	return s
}

func (s *rssSampler) poll() {
	if kib, err := procStatusKiB(s.pid, "VmRSS"); err == nil {
		s.polls = append(s.polls, kib/1024)
	}
}

// end stops the sampler and returns its polls.
func (s *rssSampler) end() []float64 {
	close(s.stop)
	<-s.done
	s.poll()
	return s.polls
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	slices.Sort(out)
	return out
}
