package eval

import (
	"fmt"
	"sort"

	"github.com/rankregret/rankregret/internal/dataset"
	"github.com/rankregret/rankregret/internal/funcspace"
	"github.com/rankregret/rankregret/internal/geom"
	"github.com/rankregret/rankregret/internal/topk"
	"github.com/rankregret/rankregret/internal/xrand"
)

// RankRegretAdaptive estimates the rank-regret of ids like RankRegretCtx, but
// spends part of the sample budget refining around the worst directions
// found so far: after a uniform pass, it repeatedly perturbs the current
// argmax directions with shrinking Gaussian noise. The maximum rank over a
// convex-ish region is attained at a boundary the uniform pass only grazes,
// so local refinement converges to the true maximum with far fewer samples.
// The result is still a lower bound on the true rank-regret, but it is not
// always >= RankRegretCtx's uniform estimate with the same seed and budget:
// its uniform phase gets half the budget, drawn from a different stream.
func RankRegretAdaptive(ds *dataset.Dataset, ids []int, space funcspace.Space, samples int, seed int64) (int, error) {
	if len(ids) == 0 {
		return 0, fmt.Errorf("eval: empty set has no rank-regret")
	}
	if samples < 8 {
		return 0, fmt.Errorf("eval: adaptive estimation needs at least 8 samples, got %d", samples)
	}
	if space == nil {
		space = funcspace.NewFull(ds.Dim())
	}
	rng := xrand.New(seed)
	scores := make([]float64, ds.N())

	// Phase 1: uniform exploration with half the budget, keeping the
	// `frontier` worst directions.
	const frontier = 8
	type hit struct {
		rank int
		u    geom.Vector
	}
	var worst []hit
	record := func(u geom.Vector) {
		r := topk.RankOfSet(ds, u, ids, scores)
		if len(worst) < frontier {
			worst = append(worst, hit{r, geom.Clone(u)})
			sort.Slice(worst, func(a, b int) bool { return worst[a].rank > worst[b].rank })
			return
		}
		if r > worst[len(worst)-1].rank {
			worst[len(worst)-1] = hit{r, geom.Clone(u)}
			sort.Slice(worst, func(a, b int) bool { return worst[a].rank > worst[b].rank })
		}
	}
	explore := samples / 2
	for i := 0; i < explore; i++ {
		u := space.Sample(rng)
		if u == nil {
			return 0, fmt.Errorf("eval: sampling from %s failed", space.Name())
		}
		record(u)
	}

	// Phase 2: local refinement. Rounds of shrinking sigma split the
	// remaining budget; each round perturbs every frontier direction.
	remaining := samples - explore
	const rounds = 4
	sigma := 0.25
	for round := 0; round < rounds; round++ {
		per := remaining / rounds / frontier
		if per < 1 {
			per = 1
		}
		base := make([]geom.Vector, len(worst))
		for i := range worst {
			base[i] = worst[i].u
		}
		for _, b := range base {
			for i := 0; i < per; i++ {
				u := perturb(rng, b, sigma)
				if u == nil || !space.ContainsDirection(u) {
					continue
				}
				record(u)
			}
		}
		sigma /= 4
	}
	return worst[0].rank, nil
}

// perturb adds isotropic Gaussian noise to a direction and renormalizes,
// clamping at the orthant boundary (the maximum is often attained there).
func perturb(rng *xrand.Rand, u geom.Vector, sigma float64) geom.Vector {
	out := make(geom.Vector, len(u))
	for i := range u {
		v := u[i] + sigma*rng.NormFloat64()
		if v < 0 {
			v = 0
		}
		out[i] = v
	}
	if geom.AllZero(out) {
		return nil
	}
	return geom.Normalize(out)
}
