package eval

import (
	"math"
	"runtime"
	"testing"

	"github.com/rankregret/rankregret/internal/algo2d"
	"github.com/rankregret/rankregret/internal/dataset"
	"github.com/rankregret/rankregret/internal/funcspace"
	"github.com/rankregret/rankregret/internal/xrand"
)

func TestRankRegretAgainstExact2D(t *testing.T) {
	rng := xrand.New(1)
	for trial := 0; trial < 10; trial++ {
		ds := dataset.Anticorrelated(rng, 60, 2)
		ids := []int{rng.Intn(60), rng.Intn(60)}
		exact, err := RankRegret2DExact(ds, ids, nil)
		if err != nil {
			t.Fatal(err)
		}
		est, err := RankRegretCtx(t.Context(), ds, ids, nil, 20000, 42)
		if err != nil {
			t.Fatal(err)
		}
		if est > exact {
			t.Fatalf("trial %d: estimate %d exceeds exact %d", trial, est, exact)
		}
		// 20K samples on a 60-tuple 2D instance should land within 2.
		if exact-est > 2 {
			t.Fatalf("trial %d: estimate %d far from exact %d", trial, est, exact)
		}
	}
}

func TestRankRegretSetContainingTopEverywhere(t *testing.T) {
	// The full skyline achieves regret 1 in 2D.
	rng := xrand.New(2)
	ds := dataset.Independent(rng, 80, 2)
	res, err := algo2d.TwoDRRMCtx(t.Context(), ds, 80)
	if err != nil {
		t.Fatal(err)
	}
	est, err := RankRegretCtx(t.Context(), ds, res.IDs, nil, 5000, 7)
	if err != nil {
		t.Fatal(err)
	}
	if est != 1 {
		t.Errorf("estimated regret of an everywhere-top set = %d, want 1", est)
	}
}

func TestRankRegretRestrictedSpace(t *testing.T) {
	ds := dataset.MustFromRows([][]float64{
		{0, 1}, {0.4, 0.95}, {0.57, 0.75}, {0.79, 0.6}, {0.2, 0.5}, {0.35, 0.3}, {1, 0},
	})
	cone, err := funcspace.WeakRanking(2, 1) // u0 >= u1, i.e. x in [0.5, 1]
	if err != nil {
		t.Fatal(err)
	}
	// t7 = (1,0) is strong on the restricted space, weak on the full one.
	full, err := RankRegretCtx(t.Context(), ds, []int{6}, nil, 5000, 3)
	if err != nil {
		t.Fatal(err)
	}
	restricted, err := RankRegretCtx(t.Context(), ds, []int{6}, cone, 5000, 3)
	if err != nil {
		t.Fatal(err)
	}
	if restricted >= full {
		t.Errorf("restricted regret %d should beat full %d for t7", restricted, full)
	}
	// Cross-check the restricted estimate against the exact segment sweep.
	exact, err := RankRegret2DExact(ds, []int{6}, cone)
	if err != nil {
		t.Fatal(err)
	}
	if restricted > exact {
		t.Errorf("restricted estimate %d exceeds exact %d", restricted, exact)
	}
}

func TestRankRegretDeterministicSeed(t *testing.T) {
	rng := xrand.New(3)
	ds := dataset.Independent(rng, 50, 3)
	a, err := RankRegretCtx(t.Context(), ds, []int{1, 2}, nil, 3000, 11)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RankRegretCtx(t.Context(), ds, []int{1, 2}, nil, 3000, 11)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("same seed, different estimates: %d vs %d", a, b)
	}
}

// TestRankRegretSameAtEveryCoreCount: the sampled estimate depends on the
// seed and the sample count only. Its fixed tiles each draw from their own
// split of the seed, so the worker count cannot change which directions are
// drawn.
func TestRankRegretSameAtEveryCoreCount(t *testing.T) {
	ds := dataset.Anticorrelated(xrand.New(7), 5000, 4)
	ids := []int{0, 1, 2, 3, 4}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	want := -1
	for _, procs := range []int{1, 2, 3, 8} {
		runtime.GOMAXPROCS(procs)
		got, err := RankRegretCtx(t.Context(), ds, ids, nil, 2000, 7)
		if err != nil {
			t.Fatal(err)
		}
		if want < 0 {
			want = got
		}
		if got != want {
			t.Errorf("GOMAXPROCS %d: estimate %d, want %d as at GOMAXPROCS 1", procs, got, want)
		}
	}
}

func TestRankRegretErrors(t *testing.T) {
	ds := dataset.MustFromRows([][]float64{{1, 1}})
	if _, err := RankRegretCtx(t.Context(), ds, nil, nil, 100, 1); err == nil {
		t.Error("empty set accepted")
	}
	if _, err := RankRegretCtx(t.Context(), ds, []int{0}, nil, 0, 1); err == nil {
		t.Error("zero samples accepted")
	}
	if _, err := RankRegret2DExact(dataset.MustFromRows([][]float64{{1, 2, 3}}), []int{0}, nil); err == nil {
		t.Error("3D dataset accepted by exact 2D evaluator")
	}
}

func TestRegretRatio(t *testing.T) {
	// The quarter circle: a single endpoint tuple has high regret-ratio;
	// both endpoints together still miss the middle; a denser set is better.
	ds := dataset.QuarterCircle(50, 2)
	single, err := RegretRatio(ds, []int{0}, nil, 4000, 5)
	if err != nil {
		t.Fatal(err)
	}
	three, err := RegretRatio(ds, []int{0, 25, 49}, nil, 4000, 5)
	if err != nil {
		t.Fatal(err)
	}
	if three >= single {
		t.Errorf("adding tuples did not improve regret-ratio: %v -> %v", single, three)
	}
	all := make([]int, 50)
	for i := range all {
		all[i] = i
	}
	zero, err := RegretRatio(ds, all, nil, 2000, 5)
	if err != nil {
		t.Fatal(err)
	}
	if zero > 1e-9 {
		t.Errorf("whole dataset has regret-ratio %v, want 0", zero)
	}
}

// ratK is Rat_k at one threshold: the single-k case of RatKCurve.
func ratK(ds *dataset.Dataset, ids []int, space funcspace.Space, k, samples int, seed int64) (float64, error) {
	curve, err := RatKCurve(ds, ids, space, []int{k}, samples, seed)
	if err != nil {
		return 0, err
	}
	return curve[0], nil
}

func TestRatK(t *testing.T) {
	rng := xrand.New(6)
	ds := dataset.Independent(rng, 100, 2)
	// The whole skyline has Rat_1 = 1.
	res, err := algo2d.TwoDRRMCtx(t.Context(), ds, 100)
	if err != nil {
		t.Fatal(err)
	}
	r1, err := ratK(ds, res.IDs, nil, 1, 3000, 9)
	if err != nil {
		t.Fatal(err)
	}
	if r1 != 1 {
		t.Errorf("Rat_1 of full skyline = %v, want 1", r1)
	}
	// A single tuple's Rat_k grows with k.
	r5, err := ratK(ds, []int{res.IDs[0]}, nil, 5, 3000, 9)
	if err != nil {
		t.Fatal(err)
	}
	r50, err := ratK(ds, []int{res.IDs[0]}, nil, 50, 3000, 9)
	if err != nil {
		t.Fatal(err)
	}
	if r50 < r5 {
		t.Errorf("Rat_k not monotone in k: Rat_5=%v Rat_50=%v", r5, r50)
	}
	if r50 <= 0 || r50 > 1 || math.IsNaN(r50) {
		t.Errorf("Rat_50 = %v out of range", r50)
	}
}

func TestRatKCurve(t *testing.T) {
	ds := dataset.Anticorrelated(xrand.New(3), 300, 2)
	res, err := algo2d.TwoDRRMCtx(t.Context(), ds, 4)
	if err != nil {
		t.Fatal(err)
	}
	ks := []int{1, res.RankRegret, ds.N()}
	curve, err := RatKCurve(ds, res.IDs, nil, ks, 4000, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(curve) != len(ks) {
		t.Fatalf("curve has %d points, want %d", len(curve), len(ks))
	}
	for i := 1; i < len(curve); i++ {
		if curve[i] < curve[i-1] {
			t.Errorf("Rat_k curve not monotone: %v", curve)
		}
	}
	// At the exact rank-regret the coverage is 1 (Lemma 1); at n trivially 1.
	if curve[1] != 1 || curve[2] != 1 {
		t.Errorf("curve at the exact regret and at n = %v, want 1s", curve[1:])
	}
	if _, err := RatKCurve(ds, nil, nil, ks, 100, 1); err == nil {
		t.Error("empty ids should fail")
	}
	if _, err := RatKCurve(ds, res.IDs, nil, nil, 100, 1); err == nil {
		t.Error("empty thresholds should fail")
	}
	if _, err := RatKCurve(ds, res.IDs, nil, []int{0}, 100, 1); err == nil {
		t.Error("k=0 should fail")
	}
}
