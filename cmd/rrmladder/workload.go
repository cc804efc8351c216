package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"slices"
	"time"

	"github.com/rankregret/rankregret/internal/algo2d"
	"github.com/rankregret/rankregret/internal/algohd"
	"github.com/rankregret/rankregret/internal/cliutil"
	"github.com/rankregret/rankregret/internal/dataset"
	"github.com/rankregret/rankregret/internal/engine"
	"github.com/rankregret/rankregret/internal/xrand"
)

// dsSpec is one of the three simulated datasets every workload solves over.
type dsSpec struct {
	name string
	gen  func(*xrand.Rand, int) *dataset.Dataset
	algo string
	// baseR is the budget cold solves with and sweep's cycle starts from.
	baseR int
}

// specs lists the datasets in the order rounds and reports visit them.
var specs = []dsSpec{
	{"simnba", dataset.SimNBA, engine.AlgoHDRRM, 8},
	{"simweather", dataset.SimWeather, engine.AlgoHDRRM, 10},
	{"simisland", dataset.SimIsland, engine.AlgoTwoDRRM, 10},
}

func specByName(name string) dsSpec {
	for _, s := range specs {
		if s.name == name {
			return s
		}
	}
	panic("rrmladder: unknown dataset " + name)
}

// scale fixes the dataset sizes and HDRRM's sample cap.
type scale struct {
	n          map[string]int
	maxSamples int
}

// ciScale is the repository's CI scale: every solve finishes in well under a
// second, so a run's window holds enough operations for stable medians.
var ciScale = scale{
	n:          map[string]int{"simnba": 2000, "simweather": 4000, "simisland": 10000},
	maxSamples: 12000,
}

// datasetSeed fixes the simulated data every run solves over. The run's
// seed drives the order of operations, the arrival schedule, the request
// keys, and the appended rows, but not the base data: HDRRM's cost follows
// the rank threshold the data settles on, and that moves between 14 and 32
// (simweather's cold solve between 80 and 340 ms) across generator seeds
// and even across row orders, which no comparison across seeds survives.
const datasetSeed = 1

// genDatasets makes the three datasets.
func genDatasets(sc scale) map[string]*dataset.Dataset {
	out := make(map[string]*dataset.Dataset, len(specs))
	for _, s := range specs {
		out[s.name] = s.gen(xrand.New(datasetSeed), sc.n[s.name])
	}
	return out
}

// datasetCSVs renders the three datasets as CSV with a header, the form
// every workload loads them from.
func datasetCSVs(sc scale) (map[string][]byte, error) {
	out := make(map[string][]byte, len(specs))
	for name, ds := range genDatasets(sc) {
		var b bytes.Buffer
		if err := ds.WriteCSV(&b, true); err != nil {
			return nil, err
		}
		out[name] = b.Bytes()
	}
	return out, nil
}

// loadCSVs loads the datasets the way rrmd loads an upload: header, no
// negated columns, min-max normalized. The generated data is already
// normalized and its CSV spells every float exactly, so loading changes no
// value.
func loadCSVs(csvs map[string][]byte) (map[string]*dataset.Dataset, error) {
	out := make(map[string]*dataset.Dataset, len(csvs))
	for name, b := range csvs {
		ds, err := cliutil.LoadCSV(bytes.NewReader(b), true, nil, true)
		if err != nil {
			return nil, fmt.Errorf("loading %s: %w", name, err)
		}
		out[name] = ds
	}
	return out, nil
}

// budgets is the range of serving budgets r for a d-dimensional dataset:
// [d+1, d+6]. r = d, the smallest budget HDRRM accepts, is left out: it
// draws only 64 directions, and simweather's r = 4 settles at rank-regret
// 546, which deepens the daemon's shared top-K lists to 1,024 entries for
// every later budget. With it, that one request set rrmd's resident set
// (410 MiB rather than 130) and most of its set-up (4.4 s rather than 2.7).
func budgets(d int) []int {
	out := make([]int, 6)
	for i := range out {
		out[i] = d + 1 + i
	}
	return out
}

// solveOpts is the engine configuration every solve of the benchmark uses:
// the daemon's default seed and the CI sample cap.
func solveOpts(sc scale) engine.Options {
	return engine.Options{Seed: 1, MaxSamples: sc.maxSamples}
}

// solveRef is an expected answer.
type solveRef struct {
	IDs        []int
	RankRegret int
}

func (w solveRef) check(ids []int, rankRegret int) error {
	if !slices.Equal(ids, w.IDs) || rankRegret != w.RankRegret {
		return fmt.Errorf("got ids %v rank-regret %d, want ids %v rank-regret %d", ids, rankRegret, w.IDs, w.RankRegret)
	}
	return nil
}

// directRefs solves ds at each budget through the solver packages directly,
// bypassing the engine: the oracle the in-process workloads' engine solves
// must match. HDRRM budgets that draw the same sample count share one vector
// set, exactly as HDRRMCtx would rebuild it for each.
func directRefs(ctx context.Context, ds *dataset.Dataset, algo string, rs []int, sc scale) (map[int]solveRef, error) {
	out := make(map[int]solveRef, len(rs))
	if algo == engine.AlgoTwoDRRM {
		for _, r := range rs {
			res, err := algo2d.TwoDRRMCtx(ctx, ds, r)
			if err != nil {
				return nil, fmt.Errorf("reference 2drrm r=%d: %w", r, err)
			}
			out[r] = solveRef{res.IDs, res.RankRegret}
		}
		return out, nil
	}
	ho := hdOpts(sc)
	byM := make(map[int]*algohd.VecSet)
	for _, r := range rs {
		m := ho.SampleSize(ds.N(), ds.Dim(), r)
		vs := byM[m]
		if vs == nil {
			var err error
			if vs, err = algohd.BuildVecSetCtx(ctx, ds, nil, ho.EffectiveGamma(), m, xrand.New(ho.Seed)); err != nil {
				return nil, fmt.Errorf("reference vector set m=%d: %w", m, err)
			}
			byM[m] = vs
		}
		res, err := algohd.HDRRMWithVecSetCtx(ctx, ds, r, ho, vs)
		if err != nil {
			return nil, fmt.Errorf("reference hdrrm r=%d: %w", r, err)
		}
		out[r] = solveRef{res.IDs, res.K}
	}
	return out, nil
}

// hdOpts is solveOpts as the algohd options the engine derives from it.
func hdOpts(sc scale) algohd.Options {
	ho := algohd.DefaultOptions()
	ho.MaxM = sc.maxSamples
	ho.Seed = 1
	return ho
}

// event is one request of a serving schedule.
type event struct {
	at      time.Duration // due time, from the window start
	dataset string
	r       int         // solve budget; 0 for an append
	rows    [][]float64 // append payload; nil for a solve
}

// Serving schedules. At serve-hit's rate the client is busy about 40%
// of the time; serve-mixed's leaves room for a 2D DP after every simisland
// write. A serve-mixed block is mixedUnits write-read units and mixedReads
// read-only solves, so 30% of its requests are appends.
const (
	hitRate    = 1500 // requests per second
	mixedRate  = 30
	mixedUnits = 3
	mixedReads = 4
	appendRows = 8
)

// arrivals returns rate*window due times spread over [0, window) as a Poisson
// process conditioned on its count: exponential gaps, rescaled so the
// count never varies with the seed and neither does the offered load.
func arrivals(rng *xrand.Rand, rate float64, window time.Duration) []time.Duration {
	n := int(math.Round(rate * window.Seconds()))
	cum := make([]float64, n+1)
	var t float64
	for i := range cum {
		t += rng.ExpFloat64()
		cum[i] = t
	}
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = time.Duration(cum[i] / cum[n] * float64(window))
	}
	return out
}

// hitSchedule is serve-hit's load: solves over every (dataset, budget) key,
// drawn uniformly, all of them resident after warm-up.
func hitSchedule(seed int64, window time.Duration, ds map[string]*dataset.Dataset) []event {
	rng := xrand.New(seed)
	at := arrivals(rng.Split(1), hitRate, window)
	keys := serveKeys(ds)
	pick := rng.Split(2)
	out := make([]event, len(at))
	for i, t := range at {
		k := keys[pick.Intn(len(keys))]
		out[i] = event{at: t, dataset: k.dataset, r: k.r}
	}
	return out
}

type key struct {
	dataset string
	r       int
}

// serveKeys lists every (dataset, budget) pair the serving workloads solve.
func serveKeys(ds map[string]*dataset.Dataset) []key {
	var out []key
	for _, s := range specs {
		for _, r := range budgets(ds[s.name].Dim()) {
			out = append(out, key{s.name, r})
		}
	}
	return out
}

// mutatedSets are the datasets serve-mixed appends to; simweather stays
// read-only, so its solves show what writes elsewhere cost a warm reader.
var mutatedSets = []string{"simnba", "simisland"}

// mixedSchedule is serve-mixed's load, in blocks of write-read units and
// read-only solves whose order the seed shuffles. A unit appends
// appendRows rows to simnba or simisland (alternately) and then solves the
// same dataset, so that solve takes the post-write path: a VecSet repair
// for simnba, a full 2D DP for simisland. Solves of the read-only
// simweather stay cache hits. Every dataset's solves thus take one path,
// and its median does not hop between a hit and a miss mode as the seed
// changes the mix. Budgets are drawn from [d+1, d+6].
func mixedSchedule(seed int64, window time.Duration, ds map[string]*dataset.Dataset) []event {
	rng := xrand.New(seed)
	at := arrivals(rng.Split(1), mixedRate, window)
	pick := rng.Split(2)
	rowRNG := rng.Split(3)
	solve := func(name string) event {
		b := budgets(ds[name].Dim())
		return event{dataset: name, r: b[pick.Intn(len(b))]}
	}
	var out []event
	units := 0
	for len(out) < len(at) {
		for _, u := range pick.Perm(mixedUnits + mixedReads) {
			if u >= mixedUnits {
				out = append(out, solve("simweather"))
				continue
			}
			name := mutatedSets[units%len(mutatedSets)]
			units++
			out = append(out, event{dataset: name, rows: jitteredRows(rowRNG, ds[name], appendRows)}, solve(name))
		}
	}
	out = out[:len(at)]
	for i := range out {
		out[i].at = at[i]
	}
	return out
}

// jitteredRows draws count rows near existing ones: a random row of ds with
// each value moved by up to 1% and clamped to [0, 1], so appends look like
// more of the same data rather than outliers that rewrite every answer.
func jitteredRows(rng *xrand.Rand, ds *dataset.Dataset, count int) [][]float64 {
	rows := make([][]float64, count)
	for i := range rows {
		src := ds.Row(rng.Intn(ds.N()))
		row := make([]float64, len(src))
		for j, v := range src {
			row[j] = min(max(v+0.02*(rng.Float64()-0.5), 0), 1)
		}
		rows[i] = row
	}
	return rows
}
