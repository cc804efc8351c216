package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"github.com/rankregret/rankregret/internal/dataset"
	"github.com/rankregret/rankregret/internal/engine"
	"github.com/rankregret/rankregret/internal/obs"
	"github.com/rankregret/rankregret/internal/xrand"
)

// inprocOp is one solve of a closed-loop round.
type inprocOp struct {
	name string
	ds   *dataset.Dataset
	algo string
	r    int
}

// coldWeather and coldPairs shape a cold round: coldWeather simweather
// solves and coldPairs each of simnba and simisland, which gives each
// dataset about a third of the busy time. The run's seed shuffles every
// round, so each dataset's samples spread over the whole window: blocks of
// one dataset at a time let slow drift in the machine land on one dataset's
// median.
const (
	coldWeather = 1
	coldPairs   = 30
	sweepSteps  = 5 // consecutive budgets each dataset cycles through
)

func coldRound(ds map[string]*dataset.Dataset) []inprocOp {
	op := func(name string) inprocOp {
		s := specByName(name)
		return inprocOp{name, ds[name], s.algo, s.baseR}
	}
	var out []inprocOp
	for i := 0; i < coldWeather; i++ {
		out = append(out, op("simweather"))
	}
	for i := 0; i < coldPairs; i++ {
		out = append(out, op("simnba"), op("simisland"))
	}
	return out
}

func sweepRound(ds map[string]*dataset.Dataset) []inprocOp {
	var out []inprocOp
	for i := 0; i < sweepSteps; i++ {
		for _, s := range specs {
			out = append(out, inprocOp{s.name, ds[s.name], s.algo, s.baseR + i})
		}
	}
	return out
}

// inprocState is what an in-process workload's set-up produces.
type inprocState struct {
	round []inprocOp
	// tier is sweep's benchmark-owned VecSet tier, prebuilt in set-up so
	// every window solve reuses it; nil for cold.
	tier *engine.VecSetCache
}

// inprocSetup is one set-up of cold (prebuild false) or sweep (true):
// loading the datasets from CSV, and for sweep filling the VecSet tier by
// one engine solve of every HDRRM op in the round.
func inprocSetup(ctx context.Context, cfg config, csvs map[string][]byte, prebuild bool) (inprocState, error) {
	ds, err := loadCSVs(csvs)
	if err != nil {
		return inprocState{}, err
	}
	if !prebuild {
		return inprocState{round: coldRound(ds)}, nil
	}
	st := inprocState{round: sweepRound(ds), tier: engine.NewVecSetCache(engine.DefaultVecSetCacheSize)}
	opts := inprocOpts(cfg, st.tier)
	for _, op := range st.round {
		if op.algo != engine.AlgoHDRRM {
			continue
		}
		if _, err := engine.New(0).Solve(ctx, op.ds, op.r, op.algo, opts); err != nil {
			return st, fmt.Errorf("prebuilding %s r=%d: %w", op.name, op.r, err)
		}
	}
	return st, nil
}

// inprocOpts is the solve configuration of the in-process workloads: one
// scoring worker, so a solve's latency does not depend on what else the
// machine runs.
func inprocOpts(cfg config, tier *engine.VecSetCache) engine.Options {
	o := solveOpts(cfg.scale)
	o.Parallelism = 1
	o.VecSets = tier
	return o
}

// inprocRefs computes the expected answer of every op of the round.
func inprocRefs(ctx context.Context, cfg config, ops []inprocOp) (map[key]solveRef, error) {
	want := map[string][]int{}
	seen := map[key]bool{}
	byName := map[string]inprocOp{}
	for _, op := range ops {
		if k := (key{op.name, op.r}); !seen[k] {
			seen[k] = true
			want[op.name] = append(want[op.name], op.r)
			byName[op.name] = op
		}
	}
	out := map[key]solveRef{}
	for _, name := range sortedKeys(want) {
		op := byName[name]
		refs, err := directRefs(ctx, op.ds, op.algo, want[name], cfg.scale)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		for r, ref := range refs {
			out[key{name, r}] = ref
		}
	}
	return out, nil
}

// closedLoop replays the round, shuffled by the seed each time, from one
// client until the window closes, each solve on a fresh engine: both cache
// tiers start empty, so nothing carries over between ops except sweep's own
// tier. The op that is running when the window closes finishes and counts.
// The host probe's slices run between solves and are left out of the
// window's elapsed time.
func closedLoop(ctx context.Context, cfg config, st inprocState, refs map[key]solveRef, traced bool) *window {
	w := &window{}
	opts := inprocOpts(cfg, st.tier)
	var tierBefore engineCounters
	if st.tier != nil {
		tierBefore = countersOf(engine.Metrics{VecSets: st.tier.Stats()})
	}
	var counters engineCounters
	var ms0, ms1 runtime.MemStats
	runtime.GC() // every window starts from the same heap
	runtime.ReadMemStats(&ms0)
	rss := startRSS("self")
	rng := xrand.New(cfg.seed)
	var order []int
	var paused time.Duration
	mark := len(cfg.probe.times)
	start := time.Now()
	prevEnd := start
	for i := 0; time.Since(start) < cfg.window; i++ {
		if i%len(st.round) == 0 {
			order = rng.Perm(len(st.round))
		}
		op := st.round[order[i%len(st.round)]]
		pause := cfg.probe.tick()
		paused += pause
		eng := engine.New(0)
		send := time.Now()
		sctx := ctx
		var tr *obs.Trace
		if traced {
			tr = obs.NewTrace(op.name)
			sctx = obs.WithTrace(ctx, tr)
		}
		sol, err := eng.Solve(sctx, op.ds, op.r, op.algo, opts)
		if tr != nil {
			tr.Finish()
		}
		end := time.Now()
		lat := ms(end.Sub(send))
		w.late = append(w.late, ms(send.Sub(prevEnd)-pause))
		prevEnd = end
		counters = counters.plus(countersOf(eng.Metrics()))
		s := sample{class: op.name, lat: lat}
		switch {
		case err != nil:
			w.wrong = append(w.wrong, fmt.Sprintf("%s r=%d: %v", op.name, op.r, err))
		default:
			if cerr := refs[key{op.name, op.r}].check(sol.IDs, sol.RankRegret); cerr != nil {
				w.wrong = append(w.wrong, fmt.Sprintf("%s r=%d: %v", op.name, op.r, cerr))
			} else {
				s.ok = true
			}
		}
		w.samples = append(w.samples, s)
		if tr != nil {
			w.traces = append(w.traces, tracedOp{class: op.name, client: lat, snap: tr.Snapshot()})
		}
	}
	w.elapsed = prevEnd.Sub(start) - paused
	w.probe = cfg.probe.since(mark)
	w.rss = rss.end()
	runtime.ReadMemStats(&ms1)
	w.allocBytes = float64(ms1.TotalAlloc - ms0.TotalAlloc)
	w.gcCycles = float64(ms1.NumGC - ms0.NumGC)
	if st.tier != nil {
		counters = counters.plus(countersOf(engine.Metrics{VecSets: st.tier.Stats()}).minus(tierBefore))
	}
	w.counters = counters
	return w
}

// runInproc runs cold (prebuild false) or sweep (true): set-up repeated
// cfg.setupReps times (the median is setup_s), each followed by host probe
// slices, the references, then the untraced window, and for a traced run a
// traced window after it.
func runInproc(ctx context.Context, cfg config, prebuild bool) (*outcome, error) {
	csvs, err := datasetCSVs(cfg.scale)
	if err != nil {
		return nil, err
	}
	var st inprocState
	var setups []float64
	mark := len(cfg.probe.times)
	for rep := 0; rep < cfg.setupReps; rep++ {
		runtime.GC() // each set-up starts from the same heap
		start := time.Now()
		if st, err = inprocSetup(ctx, cfg, csvs, prebuild); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
		cfg.probe.run(setupSlices)
	}
	refs, err := inprocRefs(ctx, cfg, st.round)
	if err != nil {
		return nil, err
	}
	out := &outcome{setupS: median(setups), setupProbe: cfg.probe.since(mark), untraced: closedLoop(ctx, cfg, st, refs, false)}
	if cfg.trace {
		out.traced = closedLoop(ctx, cfg, st, refs, true)
	}
	return out, nil
}
