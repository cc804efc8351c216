package engine

import (
	"context"
	"errors"
	"fmt"

	"github.com/rankregret/rankregret/internal/algo2d"
	"github.com/rankregret/rankregret/internal/algohd"
	"github.com/rankregret/rankregret/internal/ctxutil"
	"github.com/rankregret/rankregret/internal/dataset"
	"github.com/rankregret/rankregret/internal/skyline"
)

// Registered algorithm names. The constants exist so the public facade and
// the daemons spell them identically.
const (
	AlgoTwoDRRM     = "2drrm"      // exact DP, d = 2 only
	AlgoHDRRM       = "hdrrm"      // double approximation, any d
	AlgoTwoDRRR     = "2drrr"      // Asudeh et al. 2D baseline, d = 2 only
	AlgoMDRRRr      = "mdrrrr"     // randomized k-set baseline
	AlgoMDRC        = "mdrc"       // space-partition heuristic baseline
	AlgoMDRMS       = "mdrms"      // regret-ratio (RMS) baseline
	AlgoMDRRR       = "mdrrr"      // deterministic k-set baseline (small n only)
	AlgoRMSGreedy   = "rms-greedy" // classic greedy RMS
	AlgoSkylineOnly = "skyline"    // first r skyline tuples (naive)
)

func init() {
	Register(twoDRRMSolver{})
	Register(hdrrmSolver{})
	Register(twoDRRRSolver{})
	Register(mdrrrrSolver{})
	Register(mdrcSolver{})
	Register(mdrmsSolver{})
	Register(mdrrrSolver{})
	Register(rmsGreedySolver{})
	Register(skylineSolver{})
}

// twoDRRMSolver is the paper's exact 2D dynamic program (Algorithm 1),
// restricted-space aware, and an exact DualSolver. Both modes run on one
// sweep plan per dataset, space and tier entry (see plan2D).
type twoDRRMSolver struct{}

func (twoDRRMSolver) Name() string { return AlgoTwoDRRM }

func (twoDRRMSolver) Solve(ctx context.Context, ds *dataset.Dataset, r int, opts Options) (*Solution, error) {
	pl, err := plan2D(ctx, ds, opts)
	if err != nil {
		return nil, err
	}
	res, err := pl.RRM(ctx, r)
	if err != nil {
		return nil, err
	}
	return &Solution{IDs: res.IDs, RankRegret: res.RankRegret, Exact: true, Algorithm: AlgoTwoDRRM}, nil
}

func (twoDRRMSolver) SolveRRR(ctx context.Context, ds *dataset.Dataset, k int, opts Options) (*Solution, error) {
	pl, err := plan2D(ctx, ds, opts)
	if err != nil {
		return nil, err
	}
	res, ok, err := pl.RRR(ctx, k)
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, fmt.Errorf("engine: no subset achieves rank-regret %d", k)
	}
	return &Solution{IDs: res.IDs, RankRegret: res.RankRegret, Exact: true, Algorithm: AlgoTwoDRRM}, nil
}

// plan2D returns the budget-independent sweep plan a 2DRRM solve runs its
// DP on: the VecSet tier's when one is wired in and no Sampler is set,
// otherwise a one-off plan. Results are identical either way.
func plan2D(ctx context.Context, ds *dataset.Dataset, opts Options) (*algo2d.Plan, error) {
	if ds.Dim() != 2 {
		return nil, ErrDimension
	}
	if opts.VecSets != nil && opts.Sampler == nil {
		return opts.VecSets.Plan(ctx, ds, opts)
	}
	return algo2d.NewPlanCtx(ctx, ds, opts.Space)
}

// vecSet returns the vector set an HDRRM-family solve runs against, with m
// sampled directions: a view from the VecSet tier when one is wired in, no
// Sampler is set, and the grid is kept; otherwise a one-off set no one else
// holds (gamma 1 when the NoGrid ablation strips the grid). Both come from
// a SharedVecSet, so results are identical either way.
func vecSet(ctx context.Context, ds *dataset.Dataset, opts Options, m int, noGrid bool) (*algohd.VecSet, error) {
	if opts.VecSets != nil && opts.Sampler == nil && !noGrid {
		return opts.VecSets.Acquire(ctx, ds, opts, m)
	}
	ho := opts.hd()
	gamma := ho.EffectiveGamma()
	if noGrid {
		gamma = 1
	}
	vs, _, err := algohd.NewSharedVecSet(ds, ho.Space, gamma, ho.Seed, ho.Sampler).Acquire(ctx, m)
	return vs, err
}

// hdrrmSolver is the paper's HDRRM (Algorithm 3) — the full variant, whose
// Solve it embeds — and, as a DualSolver, a single ASMS pass at threshold k
// (Theorem 9). Both modes draw their vector set from the engine's VecSet
// cache tier when available, so solves that differ only in r or k share the
// expensive discretization.
type hdrrmSolver struct{ variantSolver }

func (hdrrmSolver) Name() string { return AlgoHDRRM }

func (hdrrmSolver) SolveRRR(ctx context.Context, ds *dataset.Dataset, k int, opts Options) (*Solution, error) {
	ho := opts.hd()
	vs, err := vecSet(ctx, ds, opts, ho.SampleSizeRRR(ds.N(), ds.Dim(), k), false)
	if err != nil {
		return nil, err
	}
	res, err := algohd.HDRRRWithVecSetCtx(ctx, ds, k, ho, vs)
	if err != nil {
		return nil, err
	}
	return &Solution{IDs: res.IDs, RankRegret: res.K, Algorithm: AlgoHDRRM}, nil
}

// VariantSolver wraps an HDRRM ablation variant as an engine Solver so
// ablation studies run through the same caching and cancellation layer. The
// name is "hdrrm:<variant>"; variants are not in the registry — pass the
// instance to Engine.SolveWith.
func VariantSolver(v algohd.Variant) Solver { return variantSolver{v} }

type variantSolver struct{ v algohd.Variant }

func (s variantSolver) Name() string { return "hdrrm:" + s.v.Name() }

func (s variantSolver) Solve(ctx context.Context, ds *dataset.Dataset, r int, opts Options) (*Solution, error) {
	ho := opts.hd()
	// The NoSamples ablation is the m = 0 prefix view of the full
	// algorithm's vector set.
	m := 0
	if !s.v.NoSamples {
		m = ho.SampleSize(ds.N(), ds.Dim(), r)
	}
	vs, err := vecSet(ctx, ds, opts, m, s.v.NoGrid)
	if err != nil {
		return nil, err
	}
	res, err := algohd.HDRRMVariantWithVecSetCtx(ctx, ds, r, ho, s.v, vs)
	if err != nil {
		return nil, err
	}
	return &Solution{IDs: res.IDs, RankRegret: res.K, Algorithm: AlgoHDRRM}, nil
}

// twoDRRRSolver is the Asudeh et al. 2D baseline adapted to RRM.
type twoDRRRSolver struct{}

func (twoDRRRSolver) Name() string { return AlgoTwoDRRR }

func (twoDRRRSolver) Solve(ctx context.Context, ds *dataset.Dataset, r int, opts Options) (*Solution, error) {
	if ds.Dim() != 2 {
		return nil, ErrDimension
	}
	if opts.Space != nil {
		return nil, errors.New("engine: 2DRRR baseline does not support restricted spaces")
	}
	res, err := algo2d.TwoDRRRBaselineForRRMCtx(ctx, ds, r)
	if err != nil {
		return nil, err
	}
	return &Solution{IDs: res.IDs, RankRegret: res.RankRegret, Exact: true, Algorithm: AlgoTwoDRRR}, nil
}

// mdrrrrSolver is the randomized k-set hitting-set baseline.
type mdrrrrSolver struct{}

func (mdrrrrSolver) Name() string { return AlgoMDRRRr }

func (mdrrrrSolver) Solve(ctx context.Context, ds *dataset.Dataset, r int, opts Options) (*Solution, error) {
	res, err := algohd.MDRRRrCtx(ctx, ds, r, opts.hd())
	if err != nil {
		return nil, err
	}
	return &Solution{IDs: res.IDs, RankRegret: res.K, Algorithm: AlgoMDRRRr}, nil
}

// mdrcSolver is the space-partition heuristic baseline.
type mdrcSolver struct{}

func (mdrcSolver) Name() string { return AlgoMDRC }

func (mdrcSolver) Solve(ctx context.Context, ds *dataset.Dataset, r int, opts Options) (*Solution, error) {
	if opts.Space != nil {
		return nil, errors.New("engine: MDRC does not support restricted spaces")
	}
	res, err := algohd.MDRCCtx(ctx, ds, r)
	if err != nil {
		return nil, err
	}
	return &Solution{IDs: res.IDs, Algorithm: AlgoMDRC}, nil
}

// mdrmsSolver is the regret-ratio minimization baseline.
type mdrmsSolver struct{}

func (mdrmsSolver) Name() string { return AlgoMDRMS }

func (mdrmsSolver) Solve(ctx context.Context, ds *dataset.Dataset, r int, opts Options) (*Solution, error) {
	res, err := algohd.MDRMSCtx(ctx, ds, r, opts.hd())
	if err != nil {
		return nil, err
	}
	return &Solution{IDs: res.IDs, Algorithm: AlgoMDRMS}, nil
}

// mdrrrSolver is the deterministic k-set baseline (small n only).
type mdrrrSolver struct{}

func (mdrrrSolver) Name() string { return AlgoMDRRR }

func (mdrrrSolver) Solve(ctx context.Context, ds *dataset.Dataset, r int, opts Options) (*Solution, error) {
	res, err := algohd.MDRRRCtx(ctx, ds, r, opts.hd(), 0)
	if err != nil {
		return nil, err
	}
	return &Solution{IDs: res.IDs, RankRegret: res.K, Algorithm: AlgoMDRRR}, nil
}

// rmsGreedySolver is the classic greedy RMS algorithm.
type rmsGreedySolver struct{}

func (rmsGreedySolver) Name() string { return AlgoRMSGreedy }

func (rmsGreedySolver) Solve(ctx context.Context, ds *dataset.Dataset, r int, opts Options) (*Solution, error) {
	res, err := algohd.RMSGreedyCtx(ctx, ds, r, opts.hd())
	if err != nil {
		return nil, err
	}
	return &Solution{IDs: res.IDs, Algorithm: AlgoRMSGreedy}, nil
}

// skylineSolver returns the first r skyline (or U-skyline) tuples — the
// naive candidate-set truncation.
type skylineSolver struct{}

func (skylineSolver) Name() string { return AlgoSkylineOnly }

func (skylineSolver) Solve(ctx context.Context, ds *dataset.Dataset, r int, opts Options) (*Solution, error) {
	if err := ctxutil.Cancelled(ctx); err != nil {
		return nil, err
	}
	var ids []int
	var err error
	if opts.Space == nil {
		ids = skyline.Compute(ds)
	} else {
		ids, err = skyline.ComputeRestricted(ds, opts.Space)
	}
	if err != nil {
		return nil, err
	}
	if len(ids) > r {
		ids = ids[:r]
	}
	return &Solution{IDs: ids, Algorithm: AlgoSkylineOnly}, nil
}
