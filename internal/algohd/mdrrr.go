package algohd

import (
	"context"
	"fmt"
	"sort"

	"github.com/rankregret/rankregret/internal/algo2d"
	"github.com/rankregret/rankregret/internal/ctxutil"
	"github.com/rankregret/rankregret/internal/dataset"
	"github.com/rankregret/rankregret/internal/setcover"
	"github.com/rankregret/rankregret/internal/xrand"
)

// kSetKey fingerprints a top-k set (order-insensitive) for deduplication.
func kSetKey(ids []int) string {
	s := append([]int(nil), ids...)
	sort.Ints(s)
	buf := make([]byte, 0, len(s)*3)
	for _, id := range s {
		buf = append(buf, byte(id), byte(id>>8), byte(id>>16))
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

// hittingSet returns a small set of tuple ids intersecting every k-set,
// via greedy set cover on the dual instance (tuple t covers the k-sets that
// contain it).
func hittingSet(ctx context.Context, ksets [][]int) ([]int, error) {
	coverOf := map[int][]int{}
	for w, ks := range ksets {
		for _, t := range ks {
			coverOf[t] = append(coverOf[t], w)
		}
	}
	tuples := make([]int, 0, len(coverOf))
	for t := range coverOf {
		tuples = append(tuples, t)
	}
	sort.Ints(tuples)
	sets := make([][]int, len(tuples))
	for i, t := range tuples {
		sets[i] = coverOf[t]
	}
	chosen, ok, err := setcover.GreedyCtx(ctx, len(ksets), sets)
	if err != nil {
		return nil, err
	}
	if !ok {
		panic("algohd: hitting set universe not coverable")
	}
	out := make([]int, 0, len(chosen))
	for _, ci := range chosen {
		out = append(out, tuples[ci])
	}
	return uniqueInts(out), nil
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
	space := opts.space(d)
	rng := xrand.New(opts.Seed)
	m := opts.M
	if m <= 0 {
		m = 1024
	}
	// Pure sampling (no grid): the k-set discovery in MDRRRr is Monte Carlo.
	vs, err := BuildVecSetCtx(ctx, ds, space, 1, m, rng)
	if err != nil {
		return Result{}, err
	}

	solve := func(k int) ([]int, error) {
		ksets, err := discoverKSets(ctx, ds, vs, k)
		if err != nil {
			return nil, err
		}
		return hittingSet(ctx, ksets)
	}
	var fit []int
	k := 1
	for {
		s, err := solve(k)
		if err != nil {
			return Result{}, err
		}
		if len(s) <= r {
			fit = s
			break
		}
		if k >= n {
			fit = s
			break
		}
		k *= 2
		if k > n {
			k = n
		}
	}
	low, high := k/2+1, k
	bestK := k
	for low < high {
		mid := (low + high) / 2
		s, err := solve(mid)
		if err != nil {
			return Result{}, err
		}
		if len(s) <= r {
			fit = s
			bestK = mid
			high = mid
		} else {
			low = mid + 1
		}
	}
	return Result{IDs: fit, K: bestK, VecCount: vs.Len()}, nil
}

// MDRRRCtx is the deterministic k-set variant. The authors' original
// enumerates k-sets with computational-geometry machinery and "does not
// scale beyond a few hundred tuples"; this reimplementation preserves that
// contract: in 2D the sweep enumerates k-sets exactly (algo2d.KSets2D), so
// MDRRR carries the paper's rank-regret guarantee of k there; for d > 2 a
// dense deterministic polar grid stands in for the geometric enumeration.
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
	space := opts.space(d)
	if d == 2 && opts.Space == nil {
		return mdrrrExact2D(ctx, ds, r)
	}
	rng := xrand.New(opts.Seed)
	// Dense deterministic grid: gamma chosen so the grid alone has at least
	// ~n^(d-1)-ish resolution at small n, plus samples for safety.
	gamma := 64
	if d > 3 {
		gamma = 24
	}
	if d > 4 {
		gamma = 12
	}
	vs, err := BuildVecSetCtx(ctx, ds, space, gamma, 2048, rng)
	if err != nil {
		return Result{}, err
	}
	solve := func(k int) ([]int, error) {
		ksets, err := discoverKSets(ctx, ds, vs, k)
		if err != nil {
			return nil, err
		}
		return hittingSet(ctx, ksets)
	}
	var fit []int
	k := 1
	for {
		s, err := solve(k)
		if err != nil {
			return Result{}, err
		}
		if len(s) <= r {
			fit = s
			break
		}
		if k >= n {
			fit = s
			break
		}
		k *= 2
		if k > n {
			k = n
		}
	}
	low, high := k/2+1, k
	bestK := k
	for low < high {
		mid := (low + high) / 2
		s, err := solve(mid)
		if err != nil {
			return Result{}, err
		}
		if len(s) <= r {
			fit = s
			bestK = mid
			high = mid
		} else {
			low = mid + 1
		}
	}
	return Result{IDs: fit, K: bestK, VecCount: vs.Len()}, nil
}

// mdrrrExact2D runs MDRRR with the exact 2D k-set enumeration: the hitting
// set is over every k-set (not a sample), so the returned set's rank-regret
// is provably at most Result.K for the whole space, as in the paper's
// original MDRRR.
func mdrrrExact2D(ctx context.Context, ds *dataset.Dataset, r int) (Result, error) {
	n := ds.N()
	solve := func(k int) ([]int, int, error) {
		if err := ctxutil.Cancelled(ctx); err != nil {
			return nil, 0, err
		}
		ksets, err := algo2d.KSets2D(ds, k)
		if err != nil {
			return nil, 0, err
		}
		hs, err := hittingSet(ctx, ksets)
		if err != nil {
			return nil, 0, err
		}
		return hs, len(ksets), nil
	}
	var fit []int
	vecs := 0
	k := 1
	for {
		s, w, err := solve(k)
		if err != nil {
			return Result{}, err
		}
		if len(s) <= r || k >= n {
			fit, vecs = s, w
			break
		}
		k *= 2
		if k > n {
			k = n
		}
	}
	low, high := k/2+1, k
	bestK := k
	for low < high {
		mid := (low + high) / 2
		s, w, err := solve(mid)
		if err != nil {
			return Result{}, err
		}
		if len(s) <= r {
			fit, vecs = s, w
			bestK = mid
			high = mid
		} else {
			low = mid + 1
		}
	}
	return Result{IDs: fit, K: bestK, VecCount: vecs}, nil
}
