// Package eval measures the quality of representative sets: rank-regret
// (exactly in 2D via the dual sweep, or estimated with sampled utility
// functions as the paper does — "draw 100,000 functions uniformly at random
// and consider them for estimating the rank-regret"), regret-ratio for RMS
// comparisons, and the Rat_k coverage ratio of Theorem 6.
package eval

import (
	"context"
	"fmt"
	"slices"

	"github.com/rankregret/rankregret/internal/algo2d"
	"github.com/rankregret/rankregret/internal/ctxutil"
	"github.com/rankregret/rankregret/internal/dataset"
	"github.com/rankregret/rankregret/internal/funcspace"
	"github.com/rankregret/rankregret/internal/par"
	"github.com/rankregret/rankregret/internal/topk"
	"github.com/rankregret/rankregret/internal/xrand"
)

// estimateTile is how many sampled directions one RankRegretCtx tile draws.
// Tile t draws from xrand.New(seed).Split(t), so the estimate depends on the
// seed and sample count only, never on how many workers ran the tiles.
const estimateTile = 1024

// RankRegretCtx estimates the rank-regret of the set ids over the space by
// sampling `samples` utility directions (paper default 100,000), in
// parallel. A nil space means the full orthant. The estimate is a lower
// bound on the true maximum that converges as samples grow, and it is the
// same at every core count. Sampling checks ctx periodically and the call
// returns ctx.Err() promptly on cancellation.
func RankRegretCtx(ctx context.Context, ds *dataset.Dataset, ids []int, space funcspace.Space, samples int, seed int64) (int, error) {
	if len(ids) == 0 {
		return 0, fmt.Errorf("eval: empty set has no rank-regret")
	}
	if samples < 1 {
		return 0, fmt.Errorf("eval: need at least one sample")
	}
	if space == nil {
		space = funcspace.NewFull(ds.Dim())
	}
	numTiles := (samples + estimateTile - 1) / estimateTile
	worsts := make([]int, numTiles)
	err := par.Tiles(ctx, 0, numTiles, func() func(int) {
		scores := make([]float64, ds.N())
		return func(t int) {
			rng := xrand.New(seed).Split(uint64(t))
			worst := 0
			for i := t * estimateTile; i < min((t+1)*estimateTile, samples); i++ {
				if i%64 == 0 && ctxutil.Cancelled(ctx) != nil {
					return
				}
				if u := space.Sample(rng); u != nil {
					worst = max(worst, topk.RankOfSet(ds, u, ids, scores))
				}
			}
			worsts[t] = worst
		}
	})
	if err != nil {
		return 0, err
	}
	return slices.Max(worsts), nil
}

// RankRegret2DExact computes the exact rank-regret in 2D over the rendered
// segment of the space (nil = the full space, whose segment is [0, 1]). It
// renders every space as algo2d.NewPlanCtx does, so both reject the same
// spaces.
func RankRegret2DExact(ds *dataset.Dataset, ids []int, space funcspace.Space) (int, error) {
	if ds.Dim() != 2 {
		return 0, fmt.Errorf("eval: exact evaluation needs d=2, got %d", ds.Dim())
	}
	if space == nil {
		space = funcspace.NewFull(2)
	}
	c0, c1, err := funcspace.Render2D(space)
	if err != nil {
		return 0, err
	}
	return algo2d.ExactRankRegret(ds, ids, c0, c1)
}

// RegretRatio estimates the maximum regret-ratio of ids over the space by
// sampling: max over u of (w(u,D) - w(u,S)) / w(u,D).
func RegretRatio(ds *dataset.Dataset, ids []int, space funcspace.Space, samples int, seed int64) (float64, error) {
	if len(ids) == 0 {
		return 0, fmt.Errorf("eval: empty set has no regret-ratio")
	}
	if space == nil {
		space = funcspace.NewFull(ds.Dim())
	}
	rng := xrand.New(seed)
	scores := make([]float64, ds.N())
	worst := 0.0
	for i := 0; i < samples; i++ {
		u := space.Sample(rng)
		if u == nil {
			continue
		}
		scores = ds.Utilities(u, scores)
		best, have := 0.0, 0.0
		for _, s := range scores {
			if s > best {
				best = s
			}
		}
		for _, id := range ids {
			if scores[id] > have {
				have = scores[id]
			}
		}
		if best > 0 {
			if rr := (best - have) / best; rr > worst {
				worst = rr
			}
		}
	}
	return worst, nil
}

// RatKCurve evaluates Rat_k for every k in ks with a single sampling pass:
// the fraction of sampled directions for which ids contains a top-k tuple.
// It returns one value per requested k. Useful for "how much does relaxing
// the rank threshold buy" plots (the cumulative distribution of the set's
// rank-regret over the space).
func RatKCurve(ds *dataset.Dataset, ids []int, space funcspace.Space, ks []int, samples int, seed int64) ([]float64, error) {
	if len(ids) == 0 {
		return nil, fmt.Errorf("eval: empty set has no rank-regret")
	}
	if len(ks) == 0 {
		return nil, fmt.Errorf("eval: no thresholds requested")
	}
	for _, k := range ks {
		if k < 1 || k > ds.N() {
			return nil, fmt.Errorf("eval: threshold %d out of range [1, %d]", k, ds.N())
		}
	}
	if samples < 1 {
		return nil, fmt.Errorf("eval: need at least one sample")
	}
	if space == nil {
		space = funcspace.NewFull(ds.Dim())
	}
	rng := xrand.New(seed)
	scores := make([]float64, ds.N())
	counts := make([]int, len(ks))
	for i := 0; i < samples; i++ {
		u := space.Sample(rng)
		if u == nil {
			return nil, fmt.Errorf("eval: sampling from %s failed", space.Name())
		}
		r := topk.RankOfSet(ds, u, ids, scores)
		for j, k := range ks {
			if r <= k {
				counts[j]++
			}
		}
	}
	out := make([]float64, len(ks))
	for j, c := range counts {
		out[j] = float64(c) / float64(samples)
	}
	return out, nil
}
