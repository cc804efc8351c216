package main

import (
	"context"
	"flag"
	"fmt"
	"io/fs"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"sync"
	"testing"
	"time"

	"github.com/rankregret/rankregret/internal/algo2d"
	"github.com/rankregret/rankregret/internal/algohd"
	"github.com/rankregret/rankregret/internal/dataset"
	"github.com/rankregret/rankregret/internal/engine"
	"github.com/rankregret/rankregret/internal/obs"
	"github.com/rankregret/rankregret/internal/setcover"
	"github.com/rankregret/rankregret/internal/skyline"
	"github.com/rankregret/rankregret/internal/store"
	"github.com/rankregret/rankregret/internal/topk"
	"github.com/rankregret/rankregret/internal/xrand"
)

// Each rung runs testing.Benchmark at a fixed iteration count, trials
// times, and reports the median trial. Counts are sized so the whole ladder
// takes ten to fifteen seconds at CI scale on a 2-vCPU machine.
const (
	ladderTrials  = 5
	buildTrials   = 3
	engineRungOps = 15 // traced cold solves behind the engine.* span numbers
	storeAppends  = 40 // fsynced appends behind the store.* numbers
)

// Sinks keep the compiler from discarding a benchmarked call's result.
var (
	sinkInts   []int
	sinkLists  [][]int
	sinkScores [][]float64
	sinkVS     *algohd.VecSet
	sinkSol    *engine.Solution
	sinkHD     algohd.Result
	sink2D     algo2d.Result
)

var initTesting sync.Once

// ladder collects rung results into m; the first failure stops later
// rungs. Metrics the spec does not list end up in the result file.
type ladder struct {
	m   metrics
	err error
}

// bench is one named testing.Benchmark body.
type bench struct {
	name string
	f    func(b *testing.B)
}

// rungs times each bench at iters iterations per trial, trials times, and
// records each one's median ns/op and B/op, with the trials' spread and
// minimum. Trials of the benches alternate, so drift in the machine's speed
// lands on all of them alike and their ratios hold. A benchmark that calls
// b.Fatal reports no iterations and fails the ladder.
func (l *ladder) rungs(iters, trials int, benches ...bench) []float64 {
	out := make([]float64, len(benches))
	if l.err != nil {
		return out
	}
	initTesting.Do(testing.Init)
	if l.err = flag.Set("test.benchtime", strconv.Itoa(iters)+"x"); l.err != nil {
		return out
	}
	ns := make([][]float64, len(benches))
	bs := make([][]float64, len(benches))
	for t := 0; t < trials; t++ {
		for i, bn := range benches {
			r := testing.Benchmark(bn.f)
			if r.N == 0 {
				l.err = fmt.Errorf("rung %s failed", bn.name)
				return out
			}
			ns[i] = append(ns[i], float64(r.T.Nanoseconds())/float64(r.N))
			bs[i] = append(bs[i], float64(r.MemBytes)/float64(r.N))
		}
	}
	for i, bn := range benches {
		out[i] = median(ns[i])
		l.m.set(bn.name+".ns_per_op", out[i], "ns")
		l.m.set(bn.name+".bytes_per_op", median(bs[i]), "B")
		l.m.set(bn.name+".ns_per_op.min", slices.Min(ns[i]), "ns")
		l.m.set(bn.name+".ns_per_op.spread", relSpread(ns[i]), "ratio")
	}
	return out
}

func (l *ladder) rung(name string, iters, trials int, f func(b *testing.B)) float64 {
	return l.rungs(iters, trials, bench{name, f})[0]
}

// check records a self-check failure.
func (l *ladder) check(err error, what string) {
	if l.err == nil && err != nil {
		l.err = fmt.Errorf("%s: %w", what, err)
	}
}

// runLadder measures every layer alone on the run's datasets into m. Each
// rung checks its own output before or after it is timed, so a fast but
// wrong layer fails the run instead of recording a number.
func runLadder(ctx context.Context, cfg config, m metrics) error {
	l := &ladder{m: m}
	ds := genDatasets(cfg.scale)
	weather, nba, island := ds["simweather"], ds["simnba"], ds["simisland"]
	ho := hdOpts(cfg.scale)
	ho.Parallelism = 1

	// The simweather solve every HDRRM rung is cut from.
	wr := specByName("simweather").baseR
	sampleM := ho.SampleSize(weather.N(), weather.Dim(), wr)
	vs, err := algohd.BuildVecSetCtx(ctx, weather, nil, ho.EffectiveGamma(), sampleM, xrand.New(ho.Seed))
	if err != nil {
		return err
	}
	ref, err := algohd.HDRRMWithVecSetCtx(ctx, weather, wr, ho, vs)
	if err != nil {
		return err
	}
	want := solveRef{ref.IDs, ref.K}
	// HDRRM's doubling search probes k = 1, 2, 4, ... up to the first power
	// of two at or above the threshold it settles on; that probe is the
	// deepest top-K list the build makes.
	kfit := 1
	for kfit < ref.K {
		kfit *= 2
	}
	kfit = min(kfit, weather.N())
	m.set("algohd.samples_m", float64(sampleM), "count")
	m.set("algohd.depth_k", float64(ref.K), "count")

	// Kernel: scoring one tile of sampled directions, selecting its top-K
	// lists, and the k-skyband that prunes the selection universe.
	us := make([][]float64, min(16, vs.Len()-vs.GridCount))
	for i := range us {
		us[i] = vs.Vecs[vs.GridCount+i]
	}
	scores := weather.UtilitiesBatch(us, nil)
	for b, u := range us {
		if !slices.Equal(scores[b], weather.Utilities(u, nil)) {
			l.check(fmt.Errorf("row %d differs from Utilities", b), "UtilitiesBatch")
		}
	}
	l.rung("dataset.UtilitiesBatch", 200, ladderTrials, func(b *testing.B) {
		dst := weather.UtilitiesBatch(us, nil)
		b.ResetTimer()
		for range b.N {
			dst = weather.UtilitiesBatch(us, dst)
		}
		sinkScores = dst
	})

	lists, _ := topk.SelectBatch(scores, nil, kfit, nil)
	for b, u := range us {
		if tk := topk.TopK(weather, u, kfit, nil); !slices.Equal(lists[b], tk) {
			l.check(fmt.Errorf("row %d = %v, TopK = %v", b, lists[b], tk), "SelectBatch")
		}
	}
	l.rung("topk.SelectBatch", 200, ladderTrials, func(b *testing.B) {
		var scratch []int
		for range b.N {
			sinkLists, scratch = topk.SelectBatch(scores, nil, kfit, scratch)
		}
	})

	band := skyline.KSkyband(weather, kfit)
	keep := 1.0
	if band != nil {
		keep = float64(len(band)) / float64(weather.N())
		for _, list := range lists {
			for _, id := range list {
				if _, found := slices.BinarySearch(band, id); !found {
					l.check(fmt.Errorf("k=%d band misses top-k member %d", kfit, id), "KSkyband")
				}
			}
		}
	}
	m.set("skyline.KSkyband.keep_frac", keep, "ratio")
	l.rung("skyline.KSkyband", 20, ladderTrials, func(b *testing.B) {
		for range b.N {
			sinkInts = skyline.KSkyband(weather, kfit)
		}
	})

	// Solver: the set cover ASMS runs at the settled threshold, the whole
	// search on a reused vector set, and the 2D dynamic program.
	universe, sets, err := asmsCover(ctx, weather, vs, ref.K)
	if err != nil {
		return err
	}
	if chosen, ok := setcover.Greedy(universe, sets); !ok || setcover.CoverSize(universe, sets, chosen) != universe {
		l.check(fmt.Errorf("universe of %d left uncovered", universe), "Greedy")
	}
	l.rung("setcover.Greedy", 50, ladderTrials, func(b *testing.B) {
		for range b.N {
			sinkInts, _ = setcover.Greedy(universe, sets)
		}
	})

	l.rung("algohd.HDRRMWithVecSet", 20, ladderTrials, func(b *testing.B) {
		for range b.N {
			res, err := algohd.HDRRMWithVecSetCtx(ctx, weather, wr, ho, vs)
			if err != nil {
				b.Fatal(err)
			}
			sinkHD = res
		}
	})
	l.check(want.check(sinkHD.IDs, sinkHD.K), "HDRRMWithVecSet")

	ir := specByName("simisland").baseR
	islandRef, err := directRefs(ctx, island, engine.AlgoTwoDRRM, []int{ir}, cfg.scale)
	if err != nil {
		return err
	}
	l.rung("algo2d.TwoDRRM", 20, ladderTrials, func(b *testing.B) {
		for range b.N {
			res, err := algo2d.TwoDRRMCtx(ctx, island, ir)
			if err != nil {
				b.Fatal(err)
			}
			sink2D = res
		}
	})
	l.check(islandRef[ir].check(sink2D.IDs, sink2D.RankRegret), "TwoDRRM")

	// VecSet build: BuildVecSetCtx plus the top-K passes the solve's doubling
	// search triggers, at one worker and at one per CPU.
	build := func(par int) func(b *testing.B) {
		return func(b *testing.B) {
			for range b.N {
				v, err := algohd.BuildVecSetCtx(ctx, weather, nil, ho.EffectiveGamma(), sampleM, xrand.New(ho.Seed))
				if err != nil {
					b.Fatal(err)
				}
				v.SetParallelism(par)
				for k := 1; ; k *= 2 {
					if err := v.EnsureTopKCtx(ctx, min(k, kfit)); err != nil {
						b.Fatal(err)
					}
					if k >= kfit {
						break
					}
				}
				sinkVS = v
			}
		}
	}
	ns := l.rungs(2, buildTrials, bench{"algohd.BuildVecSet", build(1)}, bench{"algohd.BuildVecSet.par", build(cfg.workers)})
	if l.err == nil {
		res, err := algohd.HDRRMWithVecSetCtx(ctx, weather, wr, ho, sinkVS)
		if err == nil {
			err = want.check(res.IDs, res.K)
		}
		l.check(err, "solve on a built set")
	}
	m.set("algohd.BuildVecSet.par_speedup", ns[0]/ns[1], "x")

	if l.err != nil {
		return l.err
	}
	if err := l.repairRung(ctx, cfg, nba); err != nil {
		return err
	}
	if err := l.engineRungs(ctx, cfg, nba); err != nil {
		return err
	}
	return storeRung(ctx, cfg, nba, m)
}

// asmsCover rebuilds the set system ASMS hands the greedy cover at
// threshold k: the vectors the basis leaves uncovered form the universe, and
// each candidate tuple covers the vectors whose top-k list holds it.
func asmsCover(ctx context.Context, ds *dataset.Dataset, vs *algohd.VecSet, k int) (int, [][]int, error) {
	tops, err := vs.TopsCtx(ctx, k)
	if err != nil {
		return 0, nil, err
	}
	inBasis := make([]bool, ds.N())
	for _, b := range ds.Basis() {
		inBasis[b] = true
	}
	coverOf := make(map[int][]int)
	universe := 0
	for v := 0; v < vs.Len(); v++ {
		top := tops[v][:min(k, len(tops[v]))]
		if slices.ContainsFunc(top, func(t int) bool { return inBasis[t] }) {
			continue
		}
		for _, t := range top {
			coverOf[t] = append(coverOf[t], universe)
		}
		universe++
	}
	ids := make([]int, 0, len(coverOf))
	for t := range coverOf {
		ids = append(ids, t)
	}
	sort.Ints(ids)
	sets := make([][]int, len(ids))
	for i, t := range ids {
		sets[i] = coverOf[t]
	}
	return universe, sets, nil
}

// repairRung times the incremental VecSet repair a serve-mixed append
// triggers: simnba's shared set, built and solved, repaired across one
// append of appendRows rows.
func (l *ladder) repairRung(ctx context.Context, cfg config, nba *dataset.Dataset) error {
	ho := hdOpts(cfg.scale)
	ho.Parallelism = 1
	r := specByName("simnba").baseR
	sampleM := ho.SampleSize(nba.N(), nba.Dim(), r)
	old := algohd.NewSharedVecSet(nba, nil, ho.EffectiveGamma(), ho.Seed, nil)
	ov, _, err := old.Acquire(ctx, sampleM)
	if err != nil {
		return err
	}
	if _, err := algohd.HDRRMWithVecSetCtx(ctx, nba, r, ho, ov); err != nil {
		return err
	}
	rng := xrand.New(cfg.seed).Split(4)
	appended := func() (*dataset.Dataset, []dataset.Delta) {
		next := nba.Snapshot()
		for _, row := range jitteredRows(rng, nba, appendRows) {
			next.Append(row)
		}
		deltas, _ := next.Deltas(nba.Version())
		return next, deltas
	}
	next, deltas := appended()
	v, outcome, err := algohd.NewRepairedVecSet(old, next, deltas).Acquire(ctx, sampleM)
	if err != nil {
		return err
	}
	if outcome != algohd.VecSetRepaired {
		return fmt.Errorf("repair rung: acquire %s, want a repair", outcome)
	}
	got, err := algohd.HDRRMWithVecSetCtx(ctx, next, r, ho, v)
	if err != nil {
		return err
	}
	want, err := directRefs(ctx, next, engine.AlgoHDRRM, []int{r}, cfg.scale)
	if err != nil {
		return err
	}
	if err := want[r].check(got.IDs, got.K); err != nil {
		return fmt.Errorf("solve on a repaired set: %w", err)
	}
	l.rung("algohd.Repair", 20, ladderTrials, func(b *testing.B) {
		inputs := make([]struct {
			ds     *dataset.Dataset
			deltas []dataset.Delta
		}, b.N)
		for i := range inputs {
			inputs[i].ds, inputs[i].deltas = appended()
		}
		b.ResetTimer()
		for i := range b.N {
			v, _, err := algohd.NewRepairedVecSet(old, inputs[i].ds, inputs[i].deltas).Acquire(ctx, sampleM)
			if err != nil {
				b.Fatal(err)
			}
			sinkVS = v
		}
	})
	return l.err
}

// engineRungs times the engine's warm-hit probe bare, with metrics wired
// (Engine.Instrument), and with metrics plus a fresh trace per call, which
// is how rrmd serves it; then traces cold solves through fresh engines to
// split the engine's cold path into its spans.
func (l *ladder) engineRungs(ctx context.Context, cfg config, nba *dataset.Dataset) error {
	r := specByName("simnba").baseR
	opts := solveOpts(cfg.scale)
	req := engine.Request{Dataset: nba, Label: "simnba", RK: r, Algorithm: engine.AlgoHDRRM, Opts: opts}
	refs, err := directRefs(ctx, nba, engine.AlgoHDRRM, []int{r}, cfg.scale)
	if err != nil {
		return err
	}
	want := refs[r]
	bare, instrumented := engine.New(0), engine.New(0)
	instrumented.Instrument(obs.NewRegistry())
	for _, e := range []*engine.Engine{bare, instrumented} {
		if _, err := e.Solve(ctx, nba, r, engine.AlgoHDRRM, opts); err != nil {
			return err
		}
		sol, ok := e.SolveCached(ctx, req)
		if !ok {
			return fmt.Errorf("SolveCached missed a resident key")
		}
		if err := want.check(sol.IDs, sol.RankRegret); err != nil {
			return fmt.Errorf("SolveCached: %w", err)
		}
	}
	hit := func(e *engine.Engine, traced bool) func(b *testing.B) {
		return func(b *testing.B) {
			for range b.N {
				c := ctx
				if traced {
					c = obs.WithTrace(ctx, obs.NewTrace("hit"))
				}
				sinkSol, _ = e.SolveCached(c, req)
			}
		}
	}
	l.rungs(20000, ladderTrials,
		bench{"engine.SolveCached", hit(bare, false)},
		bench{"engine.SolveCached.instrumented", hit(instrumented, false)},
		bench{"engine.SolveCached.traced", hit(instrumented, true)})
	if l.err != nil {
		return l.err
	}

	var cache, build, solve, residue []float64
	for i := 0; i < engineRungOps; i++ {
		tr := obs.NewTrace("cold")
		eng := engine.New(0)
		start := time.Now()
		sol, err := eng.Solve(obs.WithTrace(ctx, tr), nba, r, engine.AlgoHDRRM, inprocOpts(cfg, nil))
		op := ms(time.Since(start))
		tr.Finish()
		if err == nil {
			err = want.check(sol.IDs, sol.RankRegret)
		}
		if err != nil {
			return fmt.Errorf("engine cold solve: %w", err)
		}
		snap := tr.Snapshot()
		cache = append(cache, spanSelf(snap, "cache"))
		build = append(build, spanSelf(snap, "build"))
		solve = append(solve, spanSelf(snap, "solve"))
		residue = append(residue, op-selfSum(snap))
	}
	l.m.set("engine.cache.self_ms", median(cache), "ms")
	l.m.set("engine.build.self_ms", median(build), "ms")
	l.m.set("engine.solve.self_ms", median(solve), "ms")
	l.m.set("engine.residue_ms", median(residue), "ms")
	return nil
}

// storeRung times the durable store's append path alone: simnba registered
// in a fresh data dir with fsync on every record, then storeAppends
// appends of appendRows rows, each traced for its WAL append and fsync.
func storeRung(ctx context.Context, cfg config, nba *dataset.Dataset, m metrics) error {
	dir, err := tempDir("rrmladder-store-")
	if err != nil {
		return err
	}
	defer removeTempDir(dir)
	st, err := store.Open(store.Options{Dir: dir, Sync: store.SyncAlways})
	if err != nil {
		return err
	}
	defer st.Close()
	if err := st.RegisterCtx(ctx, "simnba", nba.Snapshot(), store.DefaultRetain); err != nil {
		return err
	}
	before, err := dirBytes(dir)
	if err != nil {
		return err
	}
	rng := xrand.New(cfg.seed).Split(5)
	var appendMS, fsyncMS []float64
	payload := 0
	for i := 0; i < storeAppends; i++ {
		rows := jitteredRows(rng, nba, appendRows)
		tr := obs.NewTrace("append")
		if _, err := st.AppendRowsCtx(obs.WithTrace(ctx, tr), "simnba", rows, store.DefaultRetain); err != nil {
			return err
		}
		tr.Finish()
		snap := tr.Snapshot()
		appendMS = append(appendMS, spanSelf(snap, "wal_append"))
		fsyncMS = append(fsyncMS, spanSelf(snap, "wal_fsync"))
		payload += len(rows) * nba.Dim() * 8
	}
	after, err := dirBytes(dir)
	if err != nil {
		return err
	}
	m.set("store.wal_append.p50_ms", median(appendMS), "ms")
	m.set("store.wal_fsync.p50_ms", median(fsyncMS), "ms")
	m.set("store.wal_fsync.p95_ms", percentile(fsyncMS, 95), "ms")
	m.set("store.write_amp", float64(after-before)/float64(payload), "ratio")
	return nil
}

func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err == nil {
			n += info.Size()
		}
		return err
	})
	return n, err
}
