package rankregret

import (
	"context"
	"errors"
	"fmt"
	"time"
)

// AlgoResult is one row of a Compare bake-off.
type AlgoResult struct {
	// Algorithm that produced this row.
	Algorithm Algorithm
	// Solution is the solver output (nil when Err is set).
	Solution *Solution
	// RankRegret is the independently evaluated rank-regret of the output
	// (exact for d = 2, sampled otherwise), so rows are comparable even
	// when a solver reports no bound of its own.
	RankRegret int
	// Elapsed is the solve wall time (evaluation excluded).
	Elapsed time.Duration
	// Err records a solver failure; the other fields are zero then.
	Err error
}

// CompareOptions configures Compare.
type CompareOptions struct {
	// Options is passed to every solver (Algorithm is overridden per row).
	Options
	// EvalSamples is the budget of the independent quality estimate for
	// d > 2 (0 = 20 000; 2D datasets are evaluated exactly).
	EvalSamples int
}

// Compare runs several algorithms on the same instance and evaluates each
// output with the same independent estimator, the shape of the paper's
// per-figure experiments. Failures are recorded per row rather than
// aborting, mirroring how the paper annotates solvers that "do not scale
// beyond" a setting. Cancelling ctx aborts the solve in flight, which its
// row records as Err.
func Compare(ctx context.Context, ds *Dataset, r int, algos []Algorithm, opts *CompareOptions) ([]AlgoResult, error) {
	if ds == nil || ds.N() == 0 {
		return nil, errors.New("rankregret: empty dataset")
	}
	if r < 1 {
		return nil, fmt.Errorf("rankregret: output size r = %d, need >= 1", r)
	}
	if len(algos) == 0 {
		return nil, errors.New("rankregret: no algorithms to compare")
	}
	var co CompareOptions
	if opts != nil {
		co = *opts
	}
	evalSamples := co.EvalSamples
	if evalSamples <= 0 {
		evalSamples = 20000
	}
	out := make([]AlgoResult, 0, len(algos))
	for _, algo := range algos {
		row := AlgoResult{Algorithm: algo}
		o := co.Options
		o.Algorithm = algo
		start := time.Now()
		sol, err := Solve(ctx, ds, r, &o)
		row.Elapsed = time.Since(start)
		if err != nil {
			row.Err = err
			out = append(out, row)
			continue
		}
		row.Solution = sol
		if ds.Dim() == 2 {
			row.RankRegret, err = EvaluateRankRegret2D(ds, sol.IDs, o.Space)
		} else {
			row.RankRegret, err = EvaluateRankRegret(ds, sol.IDs, o.Space, evalSamples, o.Seed+777)
		}
		if err != nil {
			row.Err = err
		}
		out = append(out, row)
	}
	return out, nil
}
