package algohd

import (
	"context"
	"fmt"
	"math"
	"sort"

	"github.com/rankregret/rankregret/internal/ctxutil"
	"github.com/rankregret/rankregret/internal/dataset"
	"github.com/rankregret/rankregret/internal/setcover"
	"github.com/rankregret/rankregret/internal/skyline"
	"github.com/rankregret/rankregret/internal/xrand"
)

// MDRMSCtx reimplements the function-space-discretization RMS algorithm of
// Asudeh et al. (SIGMOD 2017), the regret-ratio competitor in the paper's
// HD experiments: over the discretized direction set, tuple t "covers"
// direction u when w(u,t) >= (1-eps)·w(u,D); a greedy set cover picks the
// smallest set covering all directions, and a binary search on eps finds the
// smallest regret threshold whose cover fits the budget r.
//
// It minimizes the regret-*ratio*; the paper's point (and our experiments')
// is that this can leave the rank-regret orders of magnitude worse than
// HDRRM on clustered utility distributions.
//
// It checks ctx in the direction precompute, the set-cover rounds, and the
// eps binary search.
func MDRMSCtx(ctx context.Context, ds *dataset.Dataset, r int, opts Options) (Result, error) {
	if ds.N() == 0 {
		return Result{}, fmt.Errorf("algohd: empty dataset")
	}
	if r < 1 {
		return Result{}, fmt.Errorf("algohd: output size %d, need >= 1", r)
	}
	cands, bestU, candU, err := regretTable(ctx, ds, opts, 2048)
	if err != nil {
		return Result{}, err
	}
	nv := len(bestU)

	solve := func(eps float64) ([]int, error) {
		sets := make([][]int, len(cands))
		for ci := range cands {
			var covers []int
			for v := 0; v < nv; v++ {
				if candU[v][ci] >= (1-eps)*bestU[v] {
					covers = append(covers, v)
				}
			}
			sets[ci] = covers
		}
		chosen, ok, err := setcover.GreedyCtx(ctx, nv, sets)
		if err != nil {
			return nil, err
		}
		if !ok {
			return nil, nil // eps too small to cover (numerically)
		}
		out := make([]int, 0, len(chosen))
		for _, ci := range chosen {
			out = append(out, cands[ci])
		}
		sort.Ints(out)
		return out, nil
	}

	// Binary search the smallest eps whose cover fits r.
	lo, hi := 0.0, 1.0
	var fit []int
	for iter := 0; iter < 40; iter++ {
		mid := (lo + hi) / 2
		s, err := solve(mid)
		if err != nil {
			return Result{}, err
		}
		if s != nil && len(s) <= r {
			fit = s
			hi = mid
		} else {
			lo = mid
		}
	}
	if fit == nil {
		var err error
		fit, err = solve(1)
		if err != nil {
			return Result{}, err
		}
		if fit == nil {
			return Result{}, fmt.Errorf("algohd: MDRMS could not cover the direction set")
		}
	}
	return Result{IDs: fit, K: 0, VecCount: nv}, nil
}

// RMSGreedyCtx is the classic greedy heuristic for regret minimizing sets in
// the spirit of Nanongkai et al.'s RDP-Greedy: starting from the best tuple
// for the "average" direction, repeatedly add the candidate that most
// reduces the maximum regret-ratio over the discretized direction set.
// Included as an extension for regret-ratio comparisons and ablations.
// It checks ctx in the greedy selection rounds.
func RMSGreedyCtx(ctx context.Context, ds *dataset.Dataset, r int, opts Options) (Result, error) {
	if ds.N() == 0 {
		return Result{}, fmt.Errorf("algohd: empty dataset")
	}
	if r < 1 {
		return Result{}, fmt.Errorf("algohd: output size %d, need >= 1", r)
	}
	cands, bestU, candU, err := regretTable(ctx, ds, opts, 1024)
	if err != nil {
		return Result{}, err
	}
	nv := len(bestU)

	chosen := map[int]bool{}
	// curBest[v] = best utility among chosen tuples for direction v.
	curBest := make([]float64, nv)
	for v := range curBest {
		curBest[v] = math.Inf(-1)
	}
	var out []int
	for len(out) < r && len(out) < len(cands) {
		if err := ctxutil.Cancelled(ctx); err != nil {
			return Result{}, err
		}
		bestCi, bestScore := -1, math.Inf(1)
		for ci := range cands {
			if chosen[ci] {
				continue
			}
			// Max regret-ratio if we add candidate ci.
			worst := 0.0
			for v := 0; v < nv; v++ {
				have := curBest[v]
				if candU[v][ci] > have {
					have = candU[v][ci]
				}
				var ratio float64
				if bestU[v] > 0 {
					ratio = (bestU[v] - have) / bestU[v]
				}
				if ratio > worst {
					worst = ratio
				}
			}
			if worst < bestScore {
				bestScore = worst
				bestCi = ci
			}
		}
		if bestCi < 0 {
			break
		}
		chosen[bestCi] = true
		out = append(out, cands[bestCi])
		for v := 0; v < nv; v++ {
			if candU[v][bestCi] > curBest[v] {
				curBest[v] = candU[v][bestCi]
			}
		}
	}
	sort.Ints(out)
	return Result{IDs: out, K: 0, VecCount: nv}, nil
}

// regretTable is the per-direction utility table both regret-ratio solvers
// work from. It discretizes the space (grid at the effective gamma plus
// Options.M samples, defaultM when unset) and returns the skyline
// candidates, each direction's best utility over ds, and each direction's
// utility of every candidate. It checks ctx every 256 directions.
func regretTable(ctx context.Context, ds *dataset.Dataset, opts Options, defaultM int) (cands []int, bestU []float64, candU [][]float64, err error) {
	m := opts.M
	if m <= 0 {
		m = defaultM
	}
	vs, err := BuildVecSetCtx(ctx, ds, opts.space(ds.Dim()), opts.EffectiveGamma(), m, xrand.New(opts.Seed))
	if err != nil {
		return nil, nil, nil, err
	}
	// Candidates: skyline tuples (sufficient for regret-ratio minimization).
	cands = skyline.Compute(ds)
	nv := vs.Len()
	bestU = make([]float64, nv)
	candU = make([][]float64, nv)
	scores := make([]float64, ds.N())
	for v := 0; v < nv; v++ {
		if v%256 == 0 {
			if err := ctxutil.Cancelled(ctx); err != nil {
				return nil, nil, nil, err
			}
		}
		scores = ds.Utilities(vs.Vecs[v], scores)
		best := math.Inf(-1)
		for _, s := range scores {
			if s > best {
				best = s
			}
		}
		bestU[v] = best
		cu := make([]float64, len(cands))
		for ci, t := range cands {
			cu[ci] = scores[t]
		}
		candU[v] = cu
	}
	return cands, bestU, candU, nil
}
