package main

import (
	"context"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/rankregret/rankregret/internal/dataset"
)

// TestMain lets the test binary serve as the host probe's child, as the
// rrmladder binary does.
func TestMain(m *testing.M) {
	if os.Getenv(probeEnv) == "1" {
		if err := probeChild(os.Stdin, os.Stdout); err != nil {
			os.Exit(2)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func TestHostProbe(t *testing.T) {
	p, err := startProbe()
	if err != nil {
		t.Fatal(err)
	}
	mark := len(p.times)
	p.run(5)
	if p.tick() != 0 {
		t.Errorf("tick ran a slice right after another")
	}
	got := p.since(mark)
	p.close()
	if p.err != nil || len(got) != 5 {
		t.Fatalf("%d slices, err %v", len(got), p.err)
	}
	for _, v := range got {
		if v <= 0 || v > 1000 {
			t.Errorf("slice of %gms", v)
		}
	}
	if k, err := probeScale(got); err != nil || k != probeRefMS/median(got) {
		t.Errorf("scale %g, %v", k, err)
	}
	if _, err := probeScale(nil); err == nil {
		t.Errorf("a scale from no slices")
	}
	select {
	case <-p.c.exited:
	default:
		t.Errorf("probe child still running after close")
	}
}

// tinyScale keeps test runs to milliseconds per solve.
var tinyScale = scale{
	n:          map[string]int{"simnba": 300, "simweather": 400, "simisland": 500},
	maxSamples: 500,
}

func TestSameSeedSameInputs(t *testing.T) {
	const window = 2 * time.Second
	a, b := genDatasets(tinyScale), genDatasets(tinyScale)
	for name := range a {
		if a[name].Fingerprint() != b[name].Fingerprint() {
			t.Errorf("%s differs between two generations", name)
		}
	}
	hits := hitSchedule(7, window, a)
	if !reflect.DeepEqual(hits, hitSchedule(7, window, b)) {
		t.Errorf("serve-hit schedule differs between two generations from one seed")
	}
	if reflect.DeepEqual(hits, hitSchedule(8, window, a)) {
		t.Errorf("seeds 7 and 8 give the same serve-hit schedule")
	}
	mixed := mixedSchedule(7, window, a)
	if !reflect.DeepEqual(mixed, mixedSchedule(7, window, b)) {
		t.Errorf("serve-mixed schedule (times, keys, rows) differs between two generations from one seed")
	}
	if reflect.DeepEqual(mixed, mixedSchedule(8, window, a)) {
		t.Errorf("seeds 7 and 8 give the same serve-mixed schedule")
	}
}

func TestSchedulesShape(t *testing.T) {
	const window = 2 * time.Second
	ds := genDatasets(tinyScale)
	hits := hitSchedule(1, window, ds)
	if len(hits) != hitRate*2 {
		t.Errorf("serve-hit offers %d requests in %s, want %d", len(hits), window, hitRate*2)
	}
	keys := map[key]bool{}
	for _, k := range serveKeys(ds) {
		keys[k] = true
	}
	for i, ev := range hits {
		if ev.at < 0 || ev.at >= window || i > 0 && ev.at < hits[i-1].at {
			t.Fatalf("event %d due at %s: outside the window or out of order", i, ev.at)
		}
		if !keys[key{ev.dataset, ev.r}] || ev.rows != nil {
			t.Fatalf("serve-hit event %d is not a solve of a warmed key: %+v", i, ev)
		}
	}
	appends := 0
	mixed := mixedSchedule(1, window, ds)
	for i, ev := range mixed {
		if ev.rows != nil && i+1 < len(mixed) && (mixed[i+1].rows != nil || mixed[i+1].dataset != ev.dataset) {
			t.Errorf("append to %s at %d is not followed by a solve of it", ev.dataset, i)
		}
		if ev.rows == nil {
			d := ds[ev.dataset].Dim()
			if ev.r < d+1 || ev.r > d+6 {
				t.Errorf("solve of %s at r=%d, outside [d+1, d+6]", ev.dataset, ev.r)
			}
			continue
		}
		appends++
		if ev.dataset == "simweather" || len(ev.rows) != appendRows {
			t.Errorf("append of %d rows to %s", len(ev.rows), ev.dataset)
		}
		for _, row := range ev.rows {
			for _, v := range row {
				if len(row) != ds[ev.dataset].Dim() || v < 0 || v > 1 {
					t.Fatalf("appended row %v out of shape for %s", row, ev.dataset)
				}
			}
		}
	}
	if appends == 0 {
		t.Errorf("serve-mixed schedule has no appends")
	}
}

func TestOraclesRejectCorruptedAnswers(t *testing.T) {
	ref := solveRef{IDs: []int{1, 4, 9}, RankRegret: 3}
	if err := ref.check([]int{1, 4, 9}, 3); err != nil {
		t.Errorf("correct answer rejected: %v", err)
	}
	for _, bad := range []struct {
		ids []int
		rr  int
	}{{[]int{1, 4, 8}, 3}, {[]int{1, 4}, 3}, {[]int{1, 4, 9}, 2}} {
		if ref.check(bad.ids, bad.rr) == nil {
			t.Errorf("corrupted answer %v rank-regret %d accepted", bad.ids, bad.rr)
		}
	}

	ev := event{dataset: "simnba", r: 6}
	good := solveReply{Dataset: "simnba", Algorithm: "hdrrm", IDs: []int{0, 5, 17}, RankRegret: 1}
	if err := wellFormed(ev, good, 100); err != nil {
		t.Errorf("well-formed reply rejected: %v", err)
	}
	corrupt := []func(r *solveReply){
		func(r *solveReply) { r.IDs = []int{5, 0, 17} },
		func(r *solveReply) { r.IDs = []int{0, 5, 5} },
		func(r *solveReply) { r.IDs = []int{0, 5, 100} },
		func(r *solveReply) { r.IDs = []int{-1, 5} },
		func(r *solveReply) { r.IDs = []int{0, 1, 2, 3, 4, 5, 6} },
		func(r *solveReply) { r.IDs = nil },
		func(r *solveReply) { r.RankRegret = 0 },
		func(r *solveReply) { r.Exact = true },
		func(r *solveReply) { r.Dataset = "simisland" },
		func(r *solveReply) { r.Algorithm = "2drrm" },
	}
	for i, c := range corrupt {
		r := good
		r.IDs = append([]int(nil), good.IDs...)
		c(&r)
		if wellFormed(ev, r, 100) == nil {
			t.Errorf("corruption %d accepted: %+v", i, r)
		}
	}
}

func TestReplayAcks(t *testing.T) {
	base := genDatasets(tinyScale)["simnba"]
	v0 := base.Version()
	rows := mixedSchedule(3, time.Second, map[string]*dataset.Dataset{"simnba": base, "simweather": base, "simisland": base})
	var acks []ack
	cur := base
	for _, ev := range rows {
		if ev.rows == nil || ev.dataset != "simnba" {
			continue
		}
		next := cur.Snapshot()
		for _, row := range ev.rows {
			next.Append(row)
		}
		acks = append(acks, ack{appendReply{Name: "simnba", N: next.N(), Version: next.Version(), Fingerprint: fingerprintHex(next)}, ev.rows})
		cur = next
	}
	if len(acks) < 2 {
		t.Fatalf("schedule has %d simnba appends, want at least 2", len(acks))
	}
	// Acks arrive out of order on concurrent connections; replay sorts them.
	acks[0], acks[1] = acks[1], acks[0]
	got, err := replayAcks(base, v0, acks)
	if err != nil {
		t.Fatalf("replay of true acks: %v", err)
	}
	if fingerprintHex(got[cur.Version()]) != fingerprintHex(cur) {
		t.Errorf("replay ends at a different dataset")
	}
	bad := append([]ack(nil), acks...)
	bad[1].Fingerprint = "0000000000000000"
	if _, err := replayAcks(base, v0, bad); err == nil || !strings.Contains(err.Error(), "fingerprint") {
		t.Errorf("corrupted fingerprint: %v", err)
	}
	if _, err := replayAcks(base, v0, acks[1:]); err == nil {
		t.Errorf("a missing ack went unnoticed")
	}
}

// The in-process workloads run end to end at a tiny scale, answer every op
// correctly, and report exactly the spec's metrics.
func TestSmokeInProcess(t *testing.T) {
	t.Setenv("TMPDIR", t.TempDir())
	spec, err := loadSpec("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var ours []string
	for _, w := range workloads {
		ours = append(ours, w.name)
	}
	if !reflect.DeepEqual(names, ours) {
		t.Errorf("BENCHMARK.json workloads %v, program runs %v", names, ours)
	}
	p, err := startProbe()
	if err != nil {
		t.Fatal(err)
	}
	defer p.close()
	cfg := config{seed: 1, window: time.Second, scale: tinyScale, workers: 2, setupReps: 2, probe: p}
	rungs := onceLadder(context.Background(), cfg)
	for _, c := range []struct {
		workload string
		trace    bool
		want     []metricSpec
	}{
		{"cold", false, spec.EndToEnd},
		{"sweep", false, spec.EndToEnd},
		{"sweep", true, spec.PerLayer},
	} {
		cfg.trace = c.trace
		res, err := runWorkload(context.Background(), cfg, spec, c.workload, rungs)
		if err != nil {
			t.Fatalf("%s trace=%v: %v", c.workload, c.trace, err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d wrong=%v", c.workload, c.trace, res.Correct, res.Attempted, res.Failed, res.Wrong)
		}
		if len(res.Metrics) != len(c.want) {
			t.Errorf("%s trace=%v reports %d metrics, spec lists %d", c.workload, c.trace, len(res.Metrics), len(c.want))
		}
	}
}
