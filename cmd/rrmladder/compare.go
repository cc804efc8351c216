package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// minPairs is how many parent/change pairs a comparison needs.
const minPairs = 10

// Verdicts of a comparison, per metric and workload.
const (
	verdictGain       = "gain"       // the change wins >= 9/10 pairs by more than the parent's IQR
	verdictRegression = "regression" // the change's median is worse than the parent's by more than the bound
	verdictUnresolved = "unresolved" // run-to-run spread exceeds the bound; no claim either way
	verdictOK         = "ok"         // no worse than the bound
	verdictTooFew     = "too-few-pairs"
)

// judge applies a metric's bound and the pairwise gain rule to parent and
// change values of one workload, paired by position (pair i is the i-th
// run of each side). A gain needs the change to win at least 9 of 10
// pairs, ties winning for neither side, and the medians to differ by more
// than the parent runs' interquartile range. Without a gain, a spread wider
// than the bound on either side leaves the metric unresolved — unless every
// change run is better than every parent run — and otherwise a median worse
// by more than the bound is a regression.
func judge(ms metricSpec, parent, change []float64) (verdict string, delta float64) {
	n := min(len(parent), len(change))
	if n < minPairs {
		return verdictTooFew, math.NaN()
	}
	better := func(a, b float64) bool {
		if ms.Better == "higher" {
			return a > b
		}
		return a < b
	}
	pm, cm := median(parent), median(change)
	delta = (cm - pm) / math.Abs(pm)
	wins := 0
	for i := 0; i < n; i++ {
		if better(change[i], parent[i]) {
			wins++
		}
	}
	q1, q3 := quartiles(parent)
	if 10*wins >= 9*n && better(cm, pm) && math.Abs(cm-pm) > q3-q1 {
		return verdictGain, delta
	}
	allBetter := true
	for _, c := range change {
		for _, p := range parent {
			allBetter = allBetter && better(c, p)
		}
	}
	if max(relSpread(parent), relSpread(change)) > ms.Bound && !allBetter {
		return verdictUnresolved, delta
	}
	worse := delta
	if ms.Better == "higher" {
		worse = -delta
	}
	if worse > ms.Bound {
		return verdictRegression, delta
	}
	return verdictOK, delta
}

// loadResults reads every untraced result file in dir, grouped by workload
// and ordered by start time.
func loadResults(dir string) (map[string][]result, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	out := map[string][]result{}
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var r result
		if err := json.Unmarshal(b, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		if !r.Stamp.Trace {
			out[r.Stamp.Workload] = append(out[r.Stamp.Workload], r)
		}
	}
	for _, rs := range out {
		sort.Slice(rs, func(i, j int) bool { return rs[i].Stamp.Start.Before(rs[j].Stamp.Start) })
	}
	return out, nil
}

// alternating reports whether parent and change runs were made in pairs:
// merged in time order, each consecutive two runs hold one of each side.
func alternating(parent, change []result) bool {
	if len(parent) != len(change) {
		return false
	}
	type run struct {
		change bool
		start  int64
	}
	var all []run
	for _, r := range parent {
		all = append(all, run{false, r.Stamp.Start.UnixNano()})
	}
	for _, r := range change {
		all = append(all, run{true, r.Stamp.Start.UnixNano()})
	}
	sort.Slice(all, func(i, j int) bool { return all[i].start < all[j].start })
	for i := 0; i+1 < len(all); i += 2 {
		if all[i].change == all[i+1].change {
			return false
		}
	}
	return true
}

// compareDirs prints one row per workload judging every end-to-end metric
// of the change's runs against the parent's. It returns 1 when any metric
// regressed, and 2 when a workload could not be judged (see judgeable).
func compareDirs(w io.Writer, spec *benchSpec, parentDir, changeDir string) int {
	parent, err := loadResults(parentDir)
	if err == nil {
		var change map[string][]result
		if change, err = loadResults(changeDir); err == nil {
			return compareResults(w, spec, parent, change)
		}
	}
	fmt.Fprintln(os.Stderr, "rrmladder:", err)
	return 2
}

func compareResults(w io.Writer, spec *benchSpec, parent, change map[string][]result) int {
	code := 0
	for _, wl := range spec.Workloads {
		p, c := parent[wl.Name], change[wl.Name]
		pv, cv, err := judgeable(spec, p, c)
		if err != nil {
			fmt.Fprintf(w, "%-12s not judged: %v\n", wl.Name, err)
			code = 2
			continue
		}
		var cells []string
		for _, ms := range spec.EndToEnd {
			verdict, delta := judge(ms, pv[ms.Name], cv[ms.Name])
			if verdict == verdictRegression && code == 0 {
				code = 1
			}
			cells = append(cells, fmt.Sprintf("%s=%s(%+.1f%%)", ms.Name, verdict, 100*delta))
		}
		fmt.Fprintf(w, "%-12s pairs=%d %s\n", wl.Name, len(p), strings.Join(cells, " "))
	}
	return code
}

// judgeable checks that one workload's parent and change runs can be
// compared, and returns each end-to-end metric's values per side, in run
// order. Runs that did not alternate in pairs let host drift between the
// two batches pass for a difference. A wrong answer on either side, or more
// failed operations on the change's side, means a faster number does not
// count. Runs measured on other hardware, with another window or set-up
// count, or against a daemon started with other flags measured something
// else. A run lacking a metric would shift every later pair by one.
func judgeable(spec *benchSpec, parent, change []result) (pv, cv map[string][]float64, err error) {
	if len(parent) == 0 || !alternating(parent, change) {
		return nil, nil, fmt.Errorf("%d parent and %d change runs do not alternate in pairs", len(parent), len(change))
	}
	failed := [2]int{}
	for side, rs := range [][]result{parent, change} {
		for _, r := range rs {
			if !r.Correct {
				return nil, nil, fmt.Errorf("a %s run answered wrongly (%s)", sideName[side], r.Stamp.Start.Format(time.RFC3339))
			}
			failed[side] += r.Failed
		}
	}
	if failed[1] > failed[0] {
		return nil, nil, fmt.Errorf("the change failed %d operations, the parent %d", failed[1], failed[0])
	}
	want := setting(parent[0].Stamp)
	for side, rs := range [][]result{parent, change} {
		for _, r := range rs {
			if got := setting(r.Stamp); got != want {
				return nil, nil, fmt.Errorf("a %s run was measured with %s, the first parent run with %s", sideName[side], got, want)
			}
		}
	}
	pv, cv = map[string][]float64{}, map[string][]float64{}
	for _, ms := range spec.EndToEnd {
		if pv[ms.Name], err = values(parent, ms.Name); err == nil {
			cv[ms.Name], err = values(change, ms.Name)
		}
		if err != nil {
			return nil, nil, err
		}
	}
	return pv, cv, nil
}

var sideName = [2]string{"parent", "change"}

// setting is what a run was measured on and with, leaving out what differs
// between any two runs: the seed, the start time, and the daemon's ports
// and temp dirs.
func setting(st stamp) string {
	var flags []string
	for _, args := range st.RRMDFlags {
		var shown []string
		for i, a := range args {
			if i > 0 && (args[i-1] == "-addr" || args[i-1] == "-pprof-addr" || args[i-1] == "-data-dir") {
				a = "_"
			}
			shown = append(shown, a)
		}
		flags = append(flags, "["+strings.Join(shown, " ")+"]")
	}
	return fmt.Sprintf("window=%gs setup_reps=%d nproc=%d gomaxprocs=%d %s cpu=%q rrmd=%s",
		st.WindowS, st.SetupReps, st.Nproc, st.GOMAXPROCS, st.GoVersion, st.CPU, strings.Join(flags, ","))
}

// values extracts one metric from each result, in order.
func values(rs []result, name string) ([]float64, error) {
	out := make([]float64, 0, len(rs))
	for _, r := range rs {
		v, ok := r.Metrics[name]
		if !ok {
			return nil, fmt.Errorf("the run of %s lacks %s", r.Stamp.Start.Format(time.RFC3339), name)
		}
		out = append(out, v.Value)
	}
	return out, nil
}
