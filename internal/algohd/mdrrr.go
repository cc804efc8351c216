package algohd

import (
	"context"
	"encoding/binary"
	"fmt"
	"slices"

	"github.com/rankregret/rankregret/internal/algo2d"
	"github.com/rankregret/rankregret/internal/ctxutil"
	"github.com/rankregret/rankregret/internal/dataset"
	"github.com/rankregret/rankregret/internal/ksearch"
	"github.com/rankregret/rankregret/internal/xrand"
)

// kSetKey fingerprints a top-k set (order-insensitive) for deduplication:
// the sorted ids, each in full as a uvarint.
func kSetKey(ids []int) string {
	s := slices.Clone(ids)
	slices.Sort(s)
	buf := make([]byte, 0, len(s)*3)
	for _, id := range s {
		buf = binary.AppendUvarint(buf, uint64(id))
	}
	return string(buf)
}

// discoverKSets collects the distinct top-k sets ("k-sets" in the paper's
// terminology, following Asudeh et al.) witnessed by the vector set. It
// returns the list of distinct sets.
func discoverKSets(ctx context.Context, ds *dataset.Dataset, vs *VecSet, k int) ([][]int, error) {
	if k > ds.N() {
		k = ds.N()
	}
	tops, err := vs.TopsCtx(ctx, k)
	if err != nil {
		return nil, err
	}
	seen := map[string]bool{}
	var out [][]int
	for v := 0; v < vs.Len(); v++ {
		if v%4096 == 0 {
			if err := ctxutil.Cancelled(ctx); err != nil {
				return nil, err
			}
		}
		top := tops[v][:k]
		key := kSetKey(top)
		if !seen[key] {
			seen[key] = true
			cp := append([]int(nil), top...)
			out = append(out, cp)
		}
	}
	return out, nil
}

// kSetSearch is the k-set baseline shared by MDRRRr and MDRRR: the hitting
// set over ksets(k), run through the improved binary search of Section
// V.B.2 for the smallest k whose hitting set fits in r. Result.VecCount is
// the number of k-sets at the threshold returned; callers discovering
// k-sets from a VecSet report |D| instead.
func kSetSearch(ctx context.Context, n, r int, ksets func(k int) ([][]int, error)) (Result, error) {
	type probe struct {
		ids   []int
		ksets int
	}
	// The hitting set is greedy set cover on the dual instance: tuple t
	// covers the k-sets that contain it.
	s := getScratch()
	cs := &s.cover
	fit, k, err := ksearch.Smallest(n, func(k int) (probe, bool, error) {
		sets, err := ksets(k)
		if err != nil {
			return probe{}, false, err
		}
		if err := cs.build(n, sets); err != nil {
			return probe{}, false, err
		}
		hs, err := cs.greedy(ctx)
		if err != nil {
			return probe{}, false, err
		}
		hs = uniqueInts(hs)
		return probe{hs, len(sets)}, len(hs) <= r, nil
	})
	s.release()
	if err != nil {
		return Result{}, err
	}
	return Result{IDs: fit.ids, K: k, VecCount: fit.ksets}, nil
}

// vecSetKSetSearch runs kSetSearch over the k-sets discovered from vs.
func vecSetKSetSearch(ctx context.Context, ds *dataset.Dataset, r int, vs *VecSet) (Result, error) {
	res, err := kSetSearch(ctx, ds.N(), r, func(k int) ([][]int, error) {
		return discoverKSets(ctx, ds, vs, k)
	})
	if err != nil {
		return Result{}, err
	}
	res.VecCount = vs.Len()
	return res, nil
}

// MDRRRrCtx is the randomized baseline of Asudeh et al.: discover k-sets by
// sampling utility vectors, then choose a minimal hitting set — a tuple in
// every discovered top-k set guarantees rank <= k for the sampled functions,
// but (as the paper stresses) there is no guarantee for the full space.
// Adapted to RRM with the improved doubling binary search on k. Options.M
// controls the number of sampled directions (the paper's |W|-driven budget);
// Options.Space restricts the sampling for RRRM.
//
// It checks ctx in the sampling, k-set discovery, and hitting-set loops.
func MDRRRrCtx(ctx context.Context, ds *dataset.Dataset, r int, opts Options) (Result, error) {
	n, d := ds.N(), ds.Dim()
	if n == 0 {
		return Result{}, fmt.Errorf("algohd: empty dataset")
	}
	if r < 1 {
		return Result{}, fmt.Errorf("algohd: output size %d, need >= 1", r)
	}
	m := opts.M
	if m <= 0 {
		m = 1024
	}
	// Pure sampling (no grid): the k-set discovery in MDRRRr is Monte Carlo.
	vs, err := BuildVecSetCtx(ctx, ds, opts.space(d), 1, m, xrand.New(opts.Seed))
	if err != nil {
		return Result{}, err
	}
	return vecSetKSetSearch(ctx, ds, r, vs)
}

// MDRRRCtx is the deterministic k-set variant. The authors' original
// enumerates k-sets with computational-geometry machinery and "does not
// scale beyond a few hundred tuples"; this reimplementation preserves that
// contract: in 2D the sweep enumerates k-sets exactly (algo2d.KSets2D), so
// MDRRR carries the paper's rank-regret guarantee of k there and
// Result.VecCount is the number of k-sets; for d > 2 a dense deterministic
// polar grid stands in for the geometric enumeration.
// It refuses datasets beyond maxN tuples to honor its role as a small-scale
// reference (pass 0 for the default 500).
// Cancellation works as in MDRRRrCtx.
func MDRRRCtx(ctx context.Context, ds *dataset.Dataset, r int, opts Options, maxN int) (Result, error) {
	if maxN <= 0 {
		maxN = 500
	}
	n, d := ds.N(), ds.Dim()
	if n > maxN {
		return Result{}, fmt.Errorf("algohd: MDRRR is a small-scale reference (n=%d > %d); use HDRRM", n, maxN)
	}
	if r < 1 {
		return Result{}, fmt.Errorf("algohd: output size %d, need >= 1", r)
	}
	if d == 2 && opts.Space == nil {
		// Exact: the hitting set is over every k-set, not a sample, so the
		// returned set's rank-regret is provably at most Result.K for the
		// whole space, as in the paper's original MDRRR.
		return kSetSearch(ctx, n, r, func(k int) ([][]int, error) {
			if err := ctxutil.Cancelled(ctx); err != nil {
				return nil, err
			}
			return algo2d.KSets2D(ctx, ds, k)
		})
	}
	// Dense deterministic grid: gamma chosen so the grid alone has at least
	// ~n^(d-1)-ish resolution at small n, plus samples for safety.
	gamma := 64
	if d > 3 {
		gamma = 24
	}
	if d > 4 {
		gamma = 12
	}
	vs, err := BuildVecSetCtx(ctx, ds, opts.space(d), gamma, 2048, xrand.New(opts.Seed))
	if err != nil {
		return Result{}, err
	}
	return vecSetKSetSearch(ctx, ds, r, vs)
}
