package main

import (
	"bytes"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"
)

// series returns n values base*(1 + jitter*k) for k cycling over -1, 0, 1.
func series(n int, base, jitter float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = base * (1 + jitter*float64(i%3-1))
	}
	return out
}

func TestJudge(t *testing.T) {
	lower := metricSpec{Name: "p50_ms", Better: "lower", Bound: 0.05}
	higher := metricSpec{Name: "ops_per_s", Better: "higher", Bound: 0.05}
	tied := series(10, 100, 0.001)
	for _, c := range []struct {
		name           string
		spec           metricSpec
		parent, change []float64
		want           string
	}{
		{"identical runs tie every pair", lower, tied, tied, verdictOK},
		{"clear gain", lower, series(10, 100, 0.001), series(10, 90, 0.001), verdictGain},
		{"gain when higher is better", higher, series(10, 100, 0.001), series(10, 110, 0.001), verdictGain},
		{"worse beyond the bound", lower, series(10, 100, 0.001), series(10, 110, 0.001), verdictRegression},
		{"worse within the bound", lower, series(10, 100, 0.001), series(10, 103, 0.001), verdictOK},
		{"lower throughput beyond the bound", higher, series(10, 100, 0.001), series(10, 90, 0.001), verdictRegression},
		{"spread wider than the bound", lower, series(10, 100, 0.2), series(10, 104, 0.2), verdictUnresolved},
		{"too few pairs", lower, series(9, 100, 0.001), series(9, 50, 0.001), verdictTooFew},
	} {
		if got, _ := judge(c.spec, c.parent, c.change); got != c.want {
			t.Errorf("%s: judge = %s, want %s", c.name, got, c.want)
		}
	}
}

// A gain needs 9 wins in 10 pairs; ties win for neither side.
func TestJudgeTiesCountForNeither(t *testing.T) {
	spec := metricSpec{Better: "lower", Bound: 0.5}
	parent := []float64{10, 10, 10, 10, 10, 10, 10, 10, 10, 10}
	change := []float64{5, 5, 5, 5, 5, 5, 5, 5, 5, 10} // nine wins, one tie
	if got, _ := judge(spec, parent, change); got != verdictGain {
		t.Errorf("nine wins and a tie: %s, want %s", got, verdictGain)
	}
	change[8] = 10 // eight wins, two ties
	if got, _ := judge(spec, parent, change); got == verdictGain {
		t.Errorf("eight wins and two ties judged a gain")
	}
}

// A spread wider than the bound is unresolved unless every change run beats
// every parent run.
func TestJudgeWideSpreadAllBetter(t *testing.T) {
	spec := metricSpec{Better: "lower", Bound: 0.01}
	parent := []float64{100, 120, 140, 100, 120, 140, 100, 120, 140, 100}
	change := []float64{50, 90, 95, 99, 60, 70, 80, 90, 95, 99}
	change[0] = 101 // one change run worse than the best parent run
	if got, _ := judge(spec, parent, change); got != verdictUnresolved {
		t.Errorf("wide spread, overlapping runs: %s, want %s", got, verdictUnresolved)
	}
	change[0] = 50
	if got, _ := judge(spec, parent, change); got == verdictUnresolved {
		t.Errorf("wide spread but every change run better: judged unresolved")
	}
}

func TestCompareResultsRowPerWorkload(t *testing.T) {
	spec := &benchSpec{
		Workloads: []workloadSpec{{"cold"}, {"sweep"}},
		EndToEnd:  []metricSpec{{Name: "p50_ms", Unit: "ms", Better: "lower", Bound: 0.05}},
	}
	t0 := time.Unix(0, 0)
	mk := func(i int, v float64) result {
		return result{
			Stamp:   stamp{Start: t0.Add(time.Duration(i) * time.Second), WindowS: 10, RRMDFlags: [][]string{{"-addr", "127.0.0.1:" + strconv.Itoa(4000+i)}}},
			Correct: true, Attempted: 100, Metrics: metrics{"p50_ms": {v, "ms"}},
		}
	}
	parent, change := map[string][]result{}, map[string][]result{}
	for i := 0; i < 10; i++ {
		// Alternate which side runs first in each pair.
		p, c := 2*i, 2*i+1
		if i%2 == 1 {
			p, c = c, p
		}
		parent["cold"] = append(parent["cold"], mk(p, 100))
		change["cold"] = append(change["cold"], mk(c, 120))
		parent["sweep"] = append(parent["sweep"], mk(p, 100))
		change["sweep"] = append(change["sweep"], mk(c, 100))
	}
	var out bytes.Buffer
	if code := compareResults(&out, spec, parent, change); code != 1 {
		t.Errorf("a regression exits %d, want 1", code)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 2 || !strings.Contains(lines[0], "p50_ms=regression") || !strings.Contains(lines[1], "p50_ms=ok") {
		t.Errorf("compare output:\n%s", out.String())
	}
	if strings.Contains(out.String(), "not judged") {
		t.Errorf("alternating pairs not judged:\n%s", out.String())
	}

	// All parent runs before all change runs: drift between the two
	// batches would pass for a difference, so nothing is judged.
	for i := range change["sweep"] {
		change["sweep"][i] = mk(100+i, 100)
	}
	out.Reset()
	if code := compareResults(&out, spec, parent, change); code != 2 || !strings.Contains(out.String(), "sweep        not judged") {
		t.Errorf("batched runs: exit %d, output:\n%s", code, out.String())
	}
	if alternating(parent["cold"][:3], change["cold"][:2]) {
		t.Errorf("unequal run counts judged alternating")
	}

	// Each of these leaves cold not judged, even though its runs alternate.
	for _, c := range []struct {
		name   string
		spoil  func(p, c []result)
		reason string
	}{
		{"a wrong answer", func(p, c []result) { c[3].Correct = false }, "answered wrongly"},
		{"more failures on the change", func(p, c []result) { c[3].Failed = 1 }, "failed 1 operations"},
		{"another window length", func(p, c []result) { c[5].Stamp.WindowS = 5 }, "measured with window=5s"},
		{"other daemon flags", func(p, c []result) { c[0].Stamp.RRMDFlags[0] = append(c[0].Stamp.RRMDFlags[0], "-fsync", "never") }, "-fsync never"},
		{"a missing metric", func(p, c []result) { delete(p[4].Metrics, "p50_ms") }, "lacks p50_ms"},
	} {
		p, ch := map[string][]result{}, map[string][]result{}
		for i := range parent["cold"] {
			pr, cr := parent["cold"][i], change["cold"][i]
			pr.Metrics, cr.Metrics = metrics{"p50_ms": pr.Metrics["p50_ms"]}, metrics{"p50_ms": cr.Metrics["p50_ms"]}
			pr.Stamp.RRMDFlags = [][]string{slices.Clone(pr.Stamp.RRMDFlags[0])}
			cr.Stamp.RRMDFlags = [][]string{slices.Clone(cr.Stamp.RRMDFlags[0])}
			p["cold"], ch["cold"] = append(p["cold"], pr), append(ch["cold"], cr)
		}
		c.spoil(p["cold"], ch["cold"])
		out.Reset()
		code := compareResults(&out, &benchSpec{Workloads: spec.Workloads[:1], EndToEnd: spec.EndToEnd}, p, ch)
		if code != 2 || !strings.Contains(out.String(), "not judged") || !strings.Contains(out.String(), c.reason) {
			t.Errorf("%s: exit %d, output:\n%s", c.name, code, out.String())
		}
	}
	// Fewer failures on the change's side, and differing ports, are judged.
	for i := range parent["cold"] {
		parent["cold"][i].Failed = 1
	}
	out.Reset()
	if code := compareResults(&out, &benchSpec{Workloads: spec.Workloads[:1], EndToEnd: spec.EndToEnd}, parent, change); code != 1 {
		t.Errorf("fewer failures on the change: exit %d, output:\n%s", code, out.String())
	}
}
