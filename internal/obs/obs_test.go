package obs

import (
	"bytes"
	"context"
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestHistogramBuckets(t *testing.T) {
	h := newHistogram([]float64{0.01, 0.1, 1})
	for _, v := range []float64{0.005, 0.01, 0.05, 0.5, 2} {
		h.Observe(v)
	}
	s := h.Snapshot()
	if s.Count != 5 {
		t.Fatalf("count = %d, want 5", s.Count)
	}
	want := []uint64{2, 3, 4, 5} // cumulative per bound, then +Inf
	for i, w := range want {
		if s.Cumulative[i] != w {
			t.Fatalf("cumulative[%d] = %d, want %d (all %v)", i, s.Cumulative[i], w, s.Cumulative)
		}
	}
	if math.Abs(s.Sum-2.565) > 1e-9 {
		t.Fatalf("sum = %g, want 2.565", s.Sum)
	}
}

func TestExpositionRoundTrip(t *testing.T) {
	reg := NewRegistry()
	reg.CounterFunc("test_ops_total", "Operations.", func() float64 { return 7 })
	reg.GaugeFunc("test_depth", "Depth.", func() float64 { return 3 })
	reg.CounterFunc("test_seen_total", "Seen.", func() float64 { return 41 })
	h := reg.Histogram("test_latency_seconds", "Latency.", []float64{0.01, 0.1})
	h.Observe(0.005)
	h.Observe(0.05)
	h.Observe(5)
	hv := reg.HistogramVec("test_stage_seconds", "Stage latency.", "stage", []float64{0.5})
	hv.With("solve").Observe(0.1)
	hv.With("cache").Observe(2)
	gv := reg.GaugeVec("test_kind", "By kind.", "kind")
	gv.With("a").Set(2)
	gv.With("b").Set(1)

	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{
		"# HELP test_ops_total Operations.",
		"# TYPE test_ops_total counter",
		"test_ops_total 7",
		"test_depth 3",
		"test_seen_total 41",
		`test_latency_seconds_bucket{le="0.01"} 1`,
		`test_latency_seconds_bucket{le="+Inf"} 3`,
		"test_latency_seconds_count 3",
		`test_stage_seconds_bucket{stage="solve",le="0.5"} 1`,
		`test_kind{kind="a"} 2`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("exposition missing %q:\n%s", want, text)
		}
	}

	exp, err := ParseExposition(strings.NewReader(text))
	if err != nil {
		t.Fatalf("parse: %v\n%s", err, text)
	}
	if v, ok := exp.Value("test_ops_total"); !ok || v != 7 {
		t.Fatalf("parsed test_ops_total = %v %v", v, ok)
	}
	if v, ok := exp.Value(`test_stage_seconds_count{stage="cache"}`); !ok || v != 1 {
		t.Fatalf("parsed stage count = %v %v", v, ok)
	}
	if f := exp.Families["test_latency_seconds"]; f == nil || f.Type != "histogram" {
		t.Fatalf("family metadata missing: %+v", f)
	}
}

func TestGaugeAndHistogramFuncRoundTrip(t *testing.T) {
	reg := NewRegistry()
	reg.GaugeFunc("test_level", "Level.", func() float64 { return 2.5 })
	gv := reg.GaugeVec("test_ratio", "Ratio.", "objective")
	gv.With("solve_p99").Set(0.999)
	gv.With("mutate_p99").Set(-0.25) // gauges may go negative
	src := NewRegistry().Histogram("ignored", "x", []float64{0.1, 1})
	src.Observe(0.05)
	src.Observe(5)
	reg.HistogramFunc("test_fn_seconds", "Read-time histogram.", src.Snapshot)

	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	exp, err := ParseExposition(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("strict parse: %v\n%s", err, buf.String())
	}
	if v, ok := exp.Value("test_level"); !ok || v != 2.5 {
		t.Fatalf("gauge = %v %v", v, ok)
	}
	if v, ok := exp.Value(`test_ratio{objective="mutate_p99"}`); !ok || v != -0.25 {
		t.Fatalf("negative gauge vec = %v %v", v, ok)
	}
	if v, ok := exp.Value(`test_fn_seconds_bucket{le="+Inf"}`); !ok || v != 2 {
		t.Fatalf("histogram-func +Inf bucket = %v %v", v, ok)
	}
	if v, ok := exp.Value("test_fn_seconds_count"); !ok || v != 2 {
		t.Fatalf("histogram-func count = %v %v", v, ok)
	}
	if f := exp.Families["test_level"]; f == nil || f.Type != "gauge" {
		t.Fatalf("gauge family metadata: %+v", f)
	}

	// Setting the same vec label again updates in place (no new series).
	gv.With("solve_p99").Set(0.5)
	buf.Reset()
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(buf.String(), `test_ratio{objective="solve_p99"}`); n != 1 {
		t.Fatalf("solve_p99 series appears %d times", n)
	}
}

func TestParseExpositionRejectsBadInput(t *testing.T) {
	cases := map[string]string{
		"sample before TYPE": "foo_total 3\n",
		"broken bucket order": "# HELP h H\n# TYPE h histogram\n" +
			`h_bucket{le="0.1"} 5` + "\n" + `h_bucket{le="1"} 3` + "\n" +
			`h_bucket{le="+Inf"} 5` + "\nh_sum 1\nh_count 5\n",
		"inf/count mismatch": "# HELP h H\n# TYPE h histogram\n" +
			`h_bucket{le="+Inf"} 4` + "\nh_sum 1\nh_count 5\n",
		"missing sum": "# HELP h H\n# TYPE h histogram\n" +
			`h_bucket{le="+Inf"} 5` + "\nh_count 5\n",
		"garbage value":  "# HELP g G\n# TYPE g gauge\ng banana\n",
		"duplicate":      "# HELP g G\n# TYPE g gauge\ng 1\ng 2\n",
		"unclosed label": "# HELP g G\n# TYPE g gauge\ng{x=\"1 2\n",
		"bad type":       "# HELP g G\n# TYPE g zebra\ng 1\n",
		"negative count": "# HELP c C\n# TYPE c counter\nc -3\n",
	}
	for name, in := range cases {
		if _, err := ParseExposition(strings.NewReader(in)); err == nil {
			t.Errorf("%s: parse accepted invalid input:\n%s", name, in)
		}
	}
}

func TestParseExpositionAcceptsValidEdgeCases(t *testing.T) {
	in := "# HELP g Some gauge with words\n# TYPE g gauge\n" +
		`g{path="a\"b\\c"} 1.5e-3` + "\n\n" +
		"# TYPE plain untyped\nplain NaN\n"
	if _, err := ParseExposition(strings.NewReader(in)); err != nil {
		t.Fatalf("parse rejected valid input: %v", err)
	}
}

func TestRegistryConcurrentScrape(t *testing.T) {
	reg := NewRegistry()
	var ops atomic.Uint64
	reg.CounterFunc("ops_total", "Ops.", func() float64 { return float64(ops.Load()) })
	gv := reg.GaugeVec("level", "Level.", "worker")
	h := reg.Histogram("lat_seconds", "Lat.", nil)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			g := gv.With(string(rune('a' + i)))
			for {
				select {
				case <-stop:
					return
				default:
					g.Set(float64(ops.Add(1)))
					h.Observe(0.01)
				}
			}
		}()
	}
	for i := 0; i < 20; i++ {
		var buf bytes.Buffer
		if err := reg.WritePrometheus(&buf); err != nil {
			t.Fatal(err)
		}
		if _, err := ParseExposition(&buf); err != nil {
			t.Fatalf("scrape %d failed validation: %v", i, err)
		}
	}
	close(stop)
	wg.Wait()
}

func TestTraceSelfTimes(t *testing.T) {
	tr := NewTrace("req1")
	endSolve := tr.Begin("solve")
	time.Sleep(20 * time.Millisecond)
	endBuild := tr.Begin("build")
	time.Sleep(20 * time.Millisecond)
	endBuild()
	time.Sleep(5 * time.Millisecond)
	endSolve()
	total := tr.Finish()

	snap := tr.Snapshot()
	if len(snap.Spans) != 2 {
		t.Fatalf("spans = %d, want 2", len(snap.Spans))
	}
	var solve, build Span
	for _, s := range snap.Spans {
		switch s.Name {
		case "solve":
			solve = s
		case "build":
			build = s
		}
	}
	if build.SelfMS != build.DurMS {
		t.Fatalf("leaf self %v != dur %v", build.SelfMS, build.DurMS)
	}
	if solve.SelfMS >= solve.DurMS {
		t.Fatalf("parent self %v should exclude child time (dur %v)", solve.SelfMS, solve.DurMS)
	}
	sum := solve.SelfMS + build.SelfMS
	if math.Abs(sum-solve.DurMS) > 1 {
		t.Fatalf("self times %v do not sum to parent duration %v", sum, solve.DurMS)
	}
	if ms(total) < solve.DurMS {
		t.Fatalf("total %v below solve duration %v", ms(total), solve.DurMS)
	}
}

func TestTraceAddCountsAsChild(t *testing.T) {
	tr := NewTrace("req2")
	end := tr.Begin("outer")
	tr.Add("ext", time.Now().Add(-10*time.Millisecond), 10*time.Millisecond)
	time.Sleep(time.Millisecond)
	end()
	snap := tr.Snapshot()
	var outer Span
	for _, s := range snap.Spans {
		if s.Name == "outer" {
			outer = s
		}
	}
	if outer.SelfMS > outer.DurMS-9 {
		t.Fatalf("outer self %v should exclude the 10ms Add (dur %v)", outer.SelfMS, outer.DurMS)
	}
}

func TestTraceContextHelpers(t *testing.T) {
	if TraceFrom(context.Background()) != nil {
		t.Fatal("TraceFrom on empty ctx should be nil")
	}
	end := StartSpan(context.Background(), "noop")
	end() // must not panic without a trace
	tr := NewTrace("x")
	ctx := WithTrace(context.Background(), tr)
	if TraceFrom(ctx) != tr {
		t.Fatal("trace did not round-trip through context")
	}
	done := StartSpan(ctx, "stage")
	done()
	if tr.SpanCount() != 1 {
		t.Fatalf("span count = %d, want 1", tr.SpanCount())
	}
}

func TestTraceRing(t *testing.T) {
	r := NewTraceRing(3)
	for _, id := range []string{"a", "b", "c", "d"} {
		r.Put(NewTrace(id))
	}
	if _, ok := r.Get("a"); ok {
		t.Fatal("oldest trace should be evicted")
	}
	if _, ok := r.Get("d"); !ok {
		t.Fatal("newest trace missing")
	}
	if r.Len() != 3 {
		t.Fatalf("len = %d, want 3", r.Len())
	}
	rec := r.Recent(2)
	if len(rec) != 2 || rec[0].ID() != "d" || rec[1].ID() != "c" {
		ids := make([]string, len(rec))
		for i, tr := range rec {
			ids[i] = tr.ID()
		}
		t.Fatalf("recent = %v, want [d c]", ids)
	}

	// Re-using an id shadows the older trace and survives its eviction.
	r2 := NewTraceRing(2)
	first := NewTrace("dup")
	second := NewTrace("dup")
	r2.Put(first)
	r2.Put(second)
	if got, _ := r2.Get("dup"); got != second {
		t.Fatal("lookup should return the newest trace for a reused id")
	}
	r2.Put(NewTrace("other")) // evicts first; "dup" must still resolve
	if got, ok := r2.Get("dup"); !ok || got != second {
		t.Fatal("reused id lost after evicting its older duplicate")
	}
}

// TestTraceRingEvictionOrder wraps the ring several times over: eviction
// must stay strictly FIFO and Recent must stay newest-first across wraps.
func TestTraceRingEvictionOrder(t *testing.T) {
	r := NewTraceRing(4)
	if r.Cap() != 4 {
		t.Fatalf("cap = %d, want 4", r.Cap())
	}
	ids := []string{"t0", "t1", "t2", "t3", "t4", "t5", "t6", "t7", "t8", "t9"}
	for _, id := range ids {
		r.Put(NewTrace(id))
	}
	// Exactly the 4 newest survive; every older trace is evicted in order.
	for _, id := range ids[:6] {
		if _, ok := r.Get(id); ok {
			t.Fatalf("trace %s should have been evicted", id)
		}
	}
	for _, id := range ids[6:] {
		if _, ok := r.Get(id); !ok {
			t.Fatalf("trace %s missing from ring", id)
		}
	}
	rec := r.Recent(0)
	want := []string{"t9", "t8", "t7", "t6"}
	if len(rec) != len(want) {
		t.Fatalf("recent len = %d, want %d", len(rec), len(want))
	}
	for i, w := range want {
		if rec[i].ID() != w {
			got := make([]string, len(rec))
			for j, tr := range rec {
				got[j] = tr.ID()
			}
			t.Fatalf("recent = %v, want %v", got, want)
		}
	}
}

func TestNewRequestID(t *testing.T) {
	a, b := NewRequestID(), NewRequestID()
	if a == b || len(a) != 16 {
		t.Fatalf("ids not unique or wrong length: %q %q", a, b)
	}
}
