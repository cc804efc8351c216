package algohd

import (
	"reflect"
	"testing"

	"github.com/rankregret/rankregret/internal/dataset"
	"github.com/rankregret/rankregret/internal/eval"
	"github.com/rankregret/rankregret/internal/funcspace"
	"github.com/rankregret/rankregret/internal/topk"
	"github.com/rankregret/rankregret/internal/xrand"
)

// topOf returns the best-first top-k ids under vs.Vecs[v], k clamped to n.
func topOf(tb testing.TB, vs *VecSet, v, k int) []int {
	tb.Helper()
	k = min(k, vs.ds.N())
	tops, err := vs.TopsCtx(tb.Context(), k)
	if err != nil {
		tb.Fatal(err)
	}
	return tops[v][:k]
}

// ensureTopK is EnsureTopKCtx under the test's context.
func ensureTopK(tb testing.TB, vs *VecSet, k int) {
	tb.Helper()
	if err := vs.EnsureTopKCtx(tb.Context(), k); err != nil {
		tb.Fatal(err)
	}
}

// asms is ASMSCtx under the test's context.
func asms(tb testing.TB, ds *dataset.Dataset, k int, basis []int, vs *VecSet) []int {
	tb.Helper()
	q, err := ASMSCtx(tb.Context(), ds, k, basis, vs)
	if err != nil {
		tb.Fatal(err)
	}
	return q
}

func testOpts() Options {
	return Options{Gamma: 4, M: 400, Seed: 7}
}

// sampledRegret estimates the rank-regret of ids over the space by random
// directions.
func sampledRegret(ds *dataset.Dataset, ids []int, space funcspace.Space, samples int, seed int64) int {
	rng := xrand.New(seed)
	if space == nil {
		space = funcspace.NewFull(ds.Dim())
	}
	worst := 0
	scores := make([]float64, ds.N())
	for i := 0; i < samples; i++ {
		u := space.Sample(rng)
		if r := topk.RankOfSet(ds, u, ids, scores); r > worst {
			worst = r
		}
	}
	return worst
}

func TestBuildVecSet(t *testing.T) {
	rng := xrand.New(1)
	ds := dataset.Independent(rng, 100, 3)
	vs, err := BuildVecSetCtx(t.Context(), ds, nil, 4, 50, xrand.New(2))
	if err != nil {
		t.Fatal(err)
	}
	if vs.GridCount != 25 { // (gamma+1)^(d-1) = 5^2
		t.Errorf("grid count %d, want 25", vs.GridCount)
	}
	if vs.Len() != 75 {
		t.Errorf("total %d, want 75", vs.Len())
	}
	// Restricted: cone keeps only directions with u0 >= u1.
	cone, err := funcspace.WeakRanking(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	vsr, err := BuildVecSetCtx(t.Context(), ds, cone, 4, 50, xrand.New(2))
	if err != nil {
		t.Fatal(err)
	}
	if vsr.GridCount >= vs.GridCount {
		t.Errorf("restricted grid %d not smaller than full %d", vsr.GridCount, vs.GridCount)
	}
	for _, u := range vsr.Vecs {
		if !cone.ContainsDirection(u) {
			t.Fatalf("restricted vector %v outside the cone", u)
		}
	}
	if _, err := BuildVecSetCtx(t.Context(), ds, nil, 0, 10, rng); err == nil {
		t.Error("gamma=0 accepted")
	}
}

func TestVecSetTopLazyGrowth(t *testing.T) {
	rng := xrand.New(3)
	ds := dataset.Independent(rng, 60, 3)
	vs, err := BuildVecSetCtx(t.Context(), ds, nil, 3, 20, xrand.New(4))
	if err != nil {
		t.Fatal(err)
	}
	top3 := append([]int(nil), topOf(t, vs, 0, 3)...)
	top10 := topOf(t, vs, 0, 10)
	if !reflect.DeepEqual(top3, top10[:3]) {
		t.Errorf("prefix property violated: %v vs %v", top3, top10[:3])
	}
	// Against brute force.
	want := topk.TopK(ds, vs.Vecs[0], 10, nil)
	if !reflect.DeepEqual(top10, want) {
		t.Errorf("Top = %v, want %v", top10, want)
	}
	// k beyond n clamps.
	full := topOf(t, vs, 5, 1000)
	if len(full) != ds.N() {
		t.Errorf("clamped top has %d entries, want %d", len(full), ds.N())
	}
}

func TestASMSGuarantee(t *testing.T) {
	// ASMS output must contain the basis and have rank-regret <= k for
	// every vector in D.
	rng := xrand.New(5)
	for _, d := range []int{2, 3, 4} {
		ds := dataset.Anticorrelated(rng, 200, d)
		vs, err := BuildVecSetCtx(t.Context(), ds, nil, 4, 300, xrand.New(6))
		if err != nil {
			t.Fatal(err)
		}
		basis := uniqueInts(ds.Basis())
		for _, k := range []int{1, 3, 10} {
			q := asms(t, ds, k, basis, vs)
			inQ := map[int]bool{}
			for _, id := range q {
				inQ[id] = true
			}
			for _, b := range basis {
				if !inQ[b] {
					t.Fatalf("d=%d k=%d: basis tuple %d missing from ASMS output", d, k, b)
				}
			}
			for v := 0; v < vs.Len(); v++ {
				hit := false
				for _, tid := range topOf(t, vs, v, k) {
					if inQ[tid] {
						hit = true
						break
					}
				}
				if !hit {
					t.Fatalf("d=%d k=%d: vector %d has no member in its top-%d", d, k, v, k)
				}
			}
		}
	}
}

func TestASMSShrinksWithK(t *testing.T) {
	rng := xrand.New(7)
	ds := dataset.Anticorrelated(rng, 300, 3)
	vs, err := BuildVecSetCtx(t.Context(), ds, nil, 4, 300, xrand.New(8))
	if err != nil {
		t.Fatal(err)
	}
	basis := uniqueInts(ds.Basis())
	s1 := len(asms(t, ds, 1, basis, vs))
	s20 := len(asms(t, ds, 20, basis, vs))
	if s20 > s1 {
		t.Errorf("ASMS size grew with k: k=1 gives %d, k=20 gives %d", s1, s20)
	}
	// At k = n everything is covered by the basis.
	q := asms(t, ds, ds.N(), basis, vs)
	if !reflect.DeepEqual(q, basis) {
		t.Errorf("k=n should return exactly the basis, got %v", q)
	}
}

func TestHDRRMBasic(t *testing.T) {
	rng := xrand.New(9)
	ds := dataset.Anticorrelated(rng, 400, 4)
	res, err := HDRRMCtx(t.Context(), ds, 10, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.IDs) > 10 {
		t.Errorf("size %d > 10", len(res.IDs))
	}
	if res.K < 1 {
		t.Errorf("reported K = %d", res.K)
	}
	// Basis must be included (B ⊆ Q, required by Theorem 7's guarantee).
	inRes := map[int]bool{}
	for _, id := range res.IDs {
		inRes[id] = true
	}
	for _, b := range uniqueInts(ds.Basis()) {
		if !inRes[b] {
			t.Errorf("basis tuple %d missing", b)
		}
	}
	// Sampled rank-regret should be in the vicinity of K (the paper's
	// figures show the two lines "basically fit"). Allow generous slack:
	// the guarantee is probabilistic.
	sr := sampledRegret(ds, res.IDs, nil, 4000, 99)
	if sr > 12*res.K+25 {
		t.Errorf("sampled regret %d wildly exceeds the discrete bound K=%d", sr, res.K)
	}
}

func TestHDRRMShiftInvariance(t *testing.T) {
	rng := xrand.New(10)
	ds := dataset.Independent(rng, 300, 3)
	opts := testOpts()
	res1, err := HDRRMCtx(t.Context(), ds, 8, opts)
	if err != nil {
		t.Fatal(err)
	}
	shifted := ds.Clone()
	shifted.Shift([]float64{3, 0.5, 10})
	res2, err := HDRRMCtx(t.Context(), shifted, 8, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res1.IDs, res2.IDs) {
		t.Errorf("shift changed HDRRM output: %v -> %v", res1.IDs, res2.IDs)
	}
	if res1.K != res2.K {
		t.Errorf("shift changed K: %d -> %d", res1.K, res2.K)
	}
}

func TestHDRRMNearOptimalIn2D(t *testing.T) {
	// In 2D we can compare against reasonable subsets: HDRRM's discrete
	// regret bound K should not be worse than a few times the regret of
	// the same-size optimum found by exhaustive sampling of the grid.
	rng := xrand.New(11)
	ds := dataset.Anticorrelated(rng, 200, 2)
	opts := testOpts()
	opts.M = 800
	res, err := HDRRMCtx(t.Context(), ds, 6, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.IDs) > 6 {
		t.Fatalf("size %d > 6", len(res.IDs))
	}
	sr := sampledRegret(ds, res.IDs, nil, 4000, 100)
	// The whole dataset has 200 tuples; a size-6 set on anti-correlated 2D
	// data should land a regret far below n/2. This is a smoke bound; exact
	// comparisons happen in the 2D package.
	if sr > 60 {
		t.Errorf("sampled regret %d is implausibly bad for r=6, n=200", sr)
	}
}

func TestHDRRMBudgetTooSmall(t *testing.T) {
	rng := xrand.New(12)
	ds := dataset.Independent(rng, 100, 4)
	if _, err := HDRRMCtx(t.Context(), ds, 2, testOpts()); err == nil {
		t.Error("r < basis size must error")
	}
	if _, err := HDRRMCtx(t.Context(), ds, 0, testOpts()); err == nil {
		t.Error("r=0 must error")
	}
}

func TestHDRRMRestricted(t *testing.T) {
	rng := xrand.New(13)
	ds := dataset.Anticorrelated(rng, 300, 4)
	cone, err := funcspace.WeakRanking(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	opts := testOpts()
	opts.Space = cone
	res, err := HDRRMCtx(t.Context(), ds, 10, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.IDs) > 10 {
		t.Fatalf("size %d > 10", len(res.IDs))
	}
	full, err := HDRRMCtx(t.Context(), ds, 10, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	// Theorem/experiment expectation: restricting the space lowers the
	// achievable rank threshold (fewer functions to serve).
	if res.K > full.K {
		t.Errorf("restricted K=%d worse than full-space K=%d", res.K, full.K)
	}
	// The restricted solution must serve the cone well.
	sr := sampledRegret(ds, res.IDs, cone, 3000, 101)
	if sr > 12*res.K+25 {
		t.Errorf("restricted sampled regret %d vs K=%d", sr, res.K)
	}
}

func TestSampleSizeTheorem10(t *testing.T) {
	m := SampleSizeTheorem10(10000, 4, 10, 0.03, 0)
	// Paper-scale: tens of thousands.
	if m < 10000 || m > 200000 {
		t.Errorf("m = %d out of the expected magnitude", m)
	}
	// Smaller delta -> more samples.
	m2 := SampleSizeTheorem10(10000, 4, 10, 0.01, 0)
	if m2 <= m {
		t.Errorf("delta=0.01 gives %d, not more than delta=0.03's %d", m2, m)
	}
	// Cap applies.
	if got := SampleSizeTheorem10(10000, 4, 10, 0.01, 5000); got != 5000 {
		t.Errorf("cap ignored: %d", got)
	}
	// Degenerate inputs fall back to the floor.
	if got := SampleSizeTheorem10(5, 4, 10, 0.03, 0); got != 64 {
		t.Errorf("degenerate n: %d", got)
	}
}

// ratK is Rat_k at one threshold: the single-k case of RatKCurve.
func ratK(ds *dataset.Dataset, ids []int, space funcspace.Space, k, samples int, seed int64) (float64, error) {
	curve, err := eval.RatKCurve(ds, ids, space, []int{k}, samples, seed)
	if err != nil {
		return 0, err
	}
	return curve[0], nil
}

// TestHDRRMTheorem6RatK: when HDRRM reports the threshold K for its
// discretized space, the fraction of the full space where the output
// achieves rank <= K (the k-ratio of Theorem 6) should be close to one.
func TestHDRRMTheorem6RatK(t *testing.T) {
	ds := dataset.Anticorrelated(xrand.New(13), 1500, 3)
	opts := DefaultOptions()
	opts.MaxM = 3000
	res, err := HDRRMCtx(t.Context(), ds, 8, opts)
	if err != nil {
		t.Fatal(err)
	}
	ratio, err := ratK(ds, res.IDs, funcspace.NewFull(3), res.K, 20000, 29)
	if err != nil {
		t.Fatal(err)
	}
	if ratio < 0.95 {
		t.Errorf("Rat_%d of the HDRRM output = %.4f, want ~1 (Theorem 6)", res.K, ratio)
	}
	// A slightly relaxed threshold must cover essentially everything.
	relaxed, err := ratK(ds, res.IDs, funcspace.NewFull(3), 2*res.K, 20000, 29)
	if err != nil {
		t.Fatal(err)
	}
	if relaxed < 0.999 {
		t.Errorf("Rat_%d = %.4f, want ~1", 2*res.K, relaxed)
	}
}

// TestHDRRMTheorem7UtilityFloor: because the basis is forced into the
// output, every direction's best utility in the output is at least
// (1-eps) of the k-th best in the dataset (Theorem 7's statement, tested
// via sampling with a generous eps).
func TestHDRRMTheorem7UtilityFloor(t *testing.T) {
	ds := dataset.Independent(xrand.New(17), 1000, 3)
	opts := DefaultOptions()
	opts.MaxM = 2000
	res, err := HDRRMCtx(t.Context(), ds, 8, opts)
	if err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(31)
	sp := funcspace.NewFull(3)
	const eps = 0.25
	for i := 0; i < 2000; i++ {
		u := sp.Sample(rng)
		best := 0.0
		for _, id := range res.IDs {
			if w := ds.Utility(u, id); w > best {
				best = w
			}
		}
		kth := topk.KthScore(ds, u, res.K, nil)
		if best < (1-eps)*kth {
			t.Fatalf("direction %v: best output utility %.4f < (1-eps) * k-th utility %.4f",
				u, best, kth)
		}
	}
}
