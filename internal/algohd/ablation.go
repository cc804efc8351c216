package algohd

import (
	"context"
	"fmt"

	"github.com/rankregret/rankregret/internal/dataset"
	"github.com/rankregret/rankregret/internal/ksearch"
)

// Variant switches off individual ingredients of HDRRM for ablation
// studies. The zero value is the full algorithm. Each field removes one
// design choice:
//
//   - NoBasis drops the forced inclusion of the boundary tuples B. The
//     output may use all r slots for coverage, but Theorem 7's worst-case
//     utility guarantee no longer holds: a direction dominated by a single
//     attribute can be left with an arbitrarily bad rank.
//   - NoGrid drops Db (the deterministic polar grid), keeping only the
//     sampled Da. Theorem 7's deterministic closeness argument is lost;
//     only the probabilistic Theorem 6 remains.
//   - NoSamples drops Da, keeping only the polar grid Db. Theorem 6's
//     distributional guarantee is lost; between grid directions the rank
//     can degrade, especially for large n where ranks change quickly.
type Variant struct {
	NoBasis   bool
	NoGrid    bool
	NoSamples bool
}

// Name returns a short identifier for benchmark labels.
func (v Variant) Name() string {
	switch {
	case v == (Variant{}):
		return "full"
	case v.NoBasis && !v.NoGrid && !v.NoSamples:
		return "no-basis"
	case v.NoGrid && !v.NoBasis && !v.NoSamples:
		return "no-grid"
	case v.NoSamples && !v.NoBasis && !v.NoGrid:
		return "no-samples"
	default:
		return fmt.Sprintf("basis=%v grid=%v samples=%v", !v.NoBasis, !v.NoGrid, !v.NoSamples)
	}
}

// HDRRMVariantWithVecSetCtx runs an ablation's search phase against a
// caller-provided vector set (see HDRRMWithVecSetCtx); the zero Variant is
// the full algorithm. The search owns one ASMS cover index (asmsIndex),
// shared by every probe: it starts from the basis positions vs's top-K
// cache holds (see searchIndex), scans further only past them, and the
// flat cover sets reuse one pooled scratch. For the NoGrid
// ablation vs must have been acquired with gamma 1 and is stripped of its
// grid here; the stripped set cannot share a top-K cache, so the engine
// gives NoGrid a one-off set. For NoSamples, vs must have been acquired
// with m = 0.
func HDRRMVariantWithVecSetCtx(ctx context.Context, ds *dataset.Dataset, r int, opts Options, v Variant, vs *VecSet) (Result, error) {
	if ds.N() == 0 {
		return Result{}, fmt.Errorf("algohd: empty dataset")
	}
	if r < 1 {
		return Result{}, fmt.Errorf("algohd: output size %d, need >= 1", r)
	}
	if v.NoGrid && v.NoSamples {
		return Result{}, fmt.Errorf("algohd: ablation removed both Da and Db; nothing left to cover")
	}
	if v.NoGrid {
		// Drop Db, keeping only Da.
		if vs.GridCount >= len(vs.Vecs) {
			return Result{}, fmt.Errorf("algohd: no-grid ablation left an empty vector set")
		}
		vs = newVecSet(ds, vs.Vecs[vs.GridCount:], 0, 0)
	}
	vs.SetParallelism(opts.Parallelism)
	var basis []int
	if !v.NoBasis {
		basis = uniqueInts(ds.Basis())
		if len(basis) > r {
			return Result{}, fmt.Errorf("algohd: budget r=%d smaller than basis size %d (need r >= d)", r, len(basis))
		}
	}
	// The improved binary search of Section V.B.2 over ASMS thresholds,
	// every probe sharing one cover index.
	x := searchIndex(ds, vs, basis)
	ids, bestK, err := ksearch.Smallest(ds.N(), func(k int) ([]int, bool, error) {
		q, err := x.probe(ctx, k)
		return q, len(q) <= r, err
	})
	x.end(err)
	if err != nil {
		return Result{}, err
	}
	return Result{IDs: ids, K: bestK, VecCount: vs.Len()}, nil
}
