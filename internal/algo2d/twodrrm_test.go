package algo2d

import (
	"math"
	"reflect"
	"testing"

	"github.com/rankregret/rankregret/internal/dataset"
	"github.com/rankregret/rankregret/internal/funcspace"
	"github.com/rankregret/rankregret/internal/skyline"
	"github.com/rankregret/rankregret/internal/xrand"
)

func tableI() *dataset.Dataset {
	return dataset.MustFromRows([][]float64{
		{0, 1}, {0.4, 0.95}, {0.57, 0.75}, {0.79, 0.6}, {0.2, 0.5}, {0.35, 0.3}, {1, 0},
	})
}

// bruteRRM enumerates all subsets of the candidate list with size <= r and
// returns the minimum exact rank-regret over [c0, c1] and one optimal set.
func bruteRRM(t *testing.T, ds *dataset.Dataset, cand []int, r int, c0, c1 float64) (int, []int) {
	t.Helper()
	best := math.MaxInt
	var bestSet []int
	var rec func(start int, cur []int)
	rec = func(start int, cur []int) {
		if len(cur) > 0 {
			rr, err := ExactRankRegret(ds, cur, c0, c1)
			if err != nil {
				t.Fatal(err)
			}
			if rr < best {
				best = rr
				bestSet = append([]int(nil), cur...)
			}
		}
		if len(cur) == r {
			return
		}
		for i := start; i < len(cand); i++ {
			rec(i+1, append(cur, cand[i]))
		}
	}
	rec(0, nil)
	return best, bestSet
}

func TestTableIR1(t *testing.T) {
	// The paper states the RRM solution for r=1 on Table I is {t3}.
	ds := tableI()
	res, err := TwoDRRMCtx(t.Context(), ds, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.IDs) != 1 || res.IDs[0] != 2 {
		t.Errorf("RRM(r=1) = %v, want [2] (t3)", res.IDs)
	}
	want, _ := bruteRRM(t, ds, skyline.Compute(ds), 1, 0, 1)
	if res.RankRegret != want {
		t.Errorf("rank-regret %d, brute optimal %d", res.RankRegret, want)
	}
}

func TestTableIR2(t *testing.T) {
	ds := tableI()
	res, err := TwoDRRMCtx(t.Context(), ds, 2)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := bruteRRM(t, ds, skyline.Compute(ds), 2, 0, 1)
	if res.RankRegret != want {
		t.Errorf("rank-regret %d, brute optimal %d", res.RankRegret, want)
	}
	if len(res.IDs) > 2 {
		t.Errorf("size %d exceeds budget 2", len(res.IDs))
	}
	// Verify the reported regret matches the set's true regret.
	rr, err := ExactRankRegret(ds, res.IDs, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if rr != res.RankRegret {
		t.Errorf("reported regret %d but set achieves %d", res.RankRegret, rr)
	}
}

func TestTwoDRRMMatchesBruteRandom(t *testing.T) {
	rng := xrand.New(1)
	for trial := 0; trial < 25; trial++ {
		var ds *dataset.Dataset
		switch trial % 3 {
		case 0:
			ds = dataset.Independent(rng, 25+trial, 2)
		case 1:
			ds = dataset.Anticorrelated(rng, 25+trial, 2)
		default:
			ds = dataset.Correlated(rng, 25+trial, 2)
		}
		r := 1 + trial%3
		res, err := TwoDRRMCtx(t.Context(), ds, r)
		if err != nil {
			t.Fatal(err)
		}
		cand := skyline.Compute(ds)
		want, wantSet := bruteRRM(t, ds, cand, r, 0, 1)
		if res.RankRegret != want {
			t.Fatalf("trial %d (r=%d): 2DRRM regret %d, brute %d (sets %v vs %v)",
				trial, r, res.RankRegret, want, res.IDs, wantSet)
		}
		// Reported regret must equal the chosen set's true regret.
		rr, err := ExactRankRegret(ds, res.IDs, 0, 1)
		if err != nil {
			t.Fatal(err)
		}
		if rr != res.RankRegret {
			t.Fatalf("trial %d: reported %d, actual %d", trial, res.RankRegret, rr)
		}
		if len(res.IDs) > r {
			t.Fatalf("trial %d: size %d > r=%d", trial, len(res.IDs), r)
		}
	}
}

func TestTwoDRRMOutputsAreSkyline(t *testing.T) {
	rng := xrand.New(2)
	ds := dataset.Anticorrelated(rng, 200, 2)
	res, err := TwoDRRMCtx(t.Context(), ds, 4)
	if err != nil {
		t.Fatal(err)
	}
	sky := map[int]bool{}
	for _, i := range skyline.Compute(ds) {
		sky[i] = true
	}
	for _, id := range res.IDs {
		if !sky[id] {
			t.Errorf("chosen tuple %d is not a skyline tuple", id)
		}
	}
}

func TestTwoDRRMShiftInvariance(t *testing.T) {
	// Theorem 1: shifting any attribute by a constant must not change the
	// solution.
	rng := xrand.New(3)
	for trial := 0; trial < 10; trial++ {
		ds := dataset.Independent(rng, 60, 2)
		res1, err := TwoDRRMCtx(t.Context(), ds, 3)
		if err != nil {
			t.Fatal(err)
		}
		shifted := ds.Clone()
		shifted.Shift([]float64{rng.Float64() * 10, rng.Float64() * 5})
		res2, err := TwoDRRMCtx(t.Context(), shifted, 3)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res1.IDs, res2.IDs) {
			t.Fatalf("trial %d: shift changed the solution: %v -> %v", trial, res1.IDs, res2.IDs)
		}
		if res1.RankRegret != res2.RankRegret {
			t.Fatalf("trial %d: shift changed the regret: %d -> %d", trial, res1.RankRegret, res2.RankRegret)
		}
	}
}

func TestTwoDRRMMonotoneInR(t *testing.T) {
	// Larger budgets can only improve the optimum.
	rng := xrand.New(4)
	ds := dataset.Anticorrelated(rng, 150, 2)
	prev := math.MaxInt
	for r := 1; r <= 6; r++ {
		res, err := TwoDRRMCtx(t.Context(), ds, r)
		if err != nil {
			t.Fatal(err)
		}
		if res.RankRegret > prev {
			t.Fatalf("r=%d regret %d worse than r=%d regret %d", r, res.RankRegret, r-1, prev)
		}
		prev = res.RankRegret
	}
}

func TestTwoDRRMLowerBoundTheorem2(t *testing.T) {
	// On the quarter circle every size-r set has rank-regret Omega(n/r);
	// even the optimum cannot beat it.
	n := 200
	ds := dataset.QuarterCircle(n, 2)
	for _, r := range []int{1, 2, 4} {
		res, err := TwoDRRMCtx(t.Context(), ds, r)
		if err != nil {
			t.Fatal(err)
		}
		lower := n / (4 * (r + 1))
		if res.RankRegret < lower {
			t.Errorf("r=%d: regret %d below the Theorem 2 bound %d", r, res.RankRegret, lower)
		}
	}
}

func TestTwoDRRMWholeSkylineBudget(t *testing.T) {
	// With r >= skyline size the optimum equals the regret of the whole
	// skyline (the best any subset can do).
	rng := xrand.New(5)
	ds := dataset.Independent(rng, 50, 2)
	sky := skyline.Compute(ds)
	res, err := TwoDRRMCtx(t.Context(), ds, len(sky)+5)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ExactRankRegret(ds, sky, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.RankRegret != want {
		t.Errorf("full-budget regret %d, whole skyline achieves %d", res.RankRegret, want)
	}
}

func TestTwoDRRMErrors(t *testing.T) {
	ds := tableI()
	if _, err := TwoDRRMCtx(t.Context(), ds, 0); err == nil {
		t.Error("r=0 accepted")
	}
	d3 := dataset.MustFromRows([][]float64{{1, 2, 3}})
	if _, err := TwoDRRMCtx(t.Context(), d3, 1); err == nil {
		t.Error("3D dataset accepted by the 2D solver")
	}
}

func TestTwoDRRMSingleTuple(t *testing.T) {
	ds := dataset.MustFromRows([][]float64{{0.4, 0.6}})
	res, err := TwoDRRMCtx(t.Context(), ds, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.IDs) != 1 || res.IDs[0] != 0 || res.RankRegret != 1 {
		t.Errorf("singleton dataset: %+v", res)
	}
}

func TestTwoDRRMRestrictedCone(t *testing.T) {
	// RRRM over u0 >= u1 (x in [0.5, 1]) must match brute force over the
	// segment and can only be better than RRM's optimum.
	rng := xrand.New(6)
	cone, err := funcspace.WeakRanking(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 10; trial++ {
		ds := dataset.Anticorrelated(rng, 40, 2)
		r := 1 + trial%2
		res, err := TwoDRRMRestrictedCtx(t.Context(), ds, r, cone)
		if err != nil {
			t.Fatal(err)
		}
		cand, err := skyline.ComputeRestricted(ds, cone)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := bruteRRM(t, ds, cand, r, 0.5, 1)
		if res.RankRegret != want {
			t.Fatalf("trial %d: restricted regret %d, brute %d", trial, res.RankRegret, want)
		}
		full, err := TwoDRRMCtx(t.Context(), ds, r)
		if err != nil {
			t.Fatal(err)
		}
		if res.RankRegret > full.RankRegret {
			t.Fatalf("trial %d: restricting the space worsened the optimum (%d > %d)",
				trial, res.RankRegret, full.RankRegret)
		}
	}
}

func TestTwoDRRMRestrictedBall(t *testing.T) {
	ball, err := funcspace.NewBall([]float64{0.5, 0.5}, 0.15)
	if err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(7)
	ds := dataset.Independent(rng, 80, 2)
	res, err := TwoDRRMRestrictedCtx(t.Context(), ds, 2, ball)
	if err != nil {
		t.Fatal(err)
	}
	// Verify against exact regret over the rendered segment.
	c0, c1, err := funcspace.Render2D(ball)
	if err != nil {
		t.Fatal(err)
	}
	rr, err := ExactRankRegret(ds, res.IDs, c0, c1)
	if err != nil {
		t.Fatal(err)
	}
	if rr != res.RankRegret {
		t.Errorf("reported %d, actual over segment %d", res.RankRegret, rr)
	}
}

func TestTwoDRRRExact(t *testing.T) {
	rng := xrand.New(8)
	for trial := 0; trial < 8; trial++ {
		ds := dataset.Anticorrelated(rng, 40, 2)
		// Pick a threshold achievable by the whole skyline.
		sky := skyline.Compute(ds)
		floor, err := ExactRankRegret(ds, sky, 0, 1)
		if err != nil {
			t.Fatal(err)
		}
		k := floor + 2
		res, ok, err := TwoDRRRExactCtx(t.Context(), ds, k)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Fatalf("trial %d: achievable threshold %d reported unachievable", trial, k)
		}
		if res.RankRegret > k {
			t.Fatalf("trial %d: regret %d exceeds threshold %d", trial, res.RankRegret, k)
		}
		// Minimality: no subset of size |IDs|-1 achieves k (verified by
		// brute force over skyline candidates).
		if len(res.IDs) > 1 {
			best, _ := bruteRRM(t, ds, sky, len(res.IDs)-1, 0, 1)
			if best <= k {
				t.Fatalf("trial %d: smaller set achieves %d <= %d; not minimal", trial, best, k)
			}
		}
		// Unachievable threshold: below the intrinsic floor.
		if floor > 1 {
			_, ok, err := TwoDRRRExactCtx(t.Context(), ds, floor-1)
			if err != nil {
				t.Fatal(err)
			}
			if ok {
				t.Fatalf("trial %d: threshold %d below floor %d reported achievable", trial, floor-1, floor)
			}
		}
	}
}

// TestPaperSectionIVExample reproduces the worked example of Section IV.B
// (Table II): with only t1, t2, t3 of Table I and r = 2, the algorithm
// processes crossings (l1,l2), (l1,l3), (l2,l3) and returns {t1,t2} or
// {t1,t3}. Each pair's chain is overtaken by the third line on part of
// [0,1] (Table II's final column), so the optimal maximum rank is 2.
func TestPaperSectionIVExample(t *testing.T) {
	ds := dataset.MustFromRows([][]float64{
		{0, 1},       // t1
		{0.4, 0.95},  // t2
		{0.57, 0.75}, // t3
	})
	res, err := TwoDRRMCtx(t.Context(), ds, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.RankRegret != 2 {
		t.Errorf("rank-regret = %d, want 2", res.RankRegret)
	}
	if len(res.IDs) != 2 || res.IDs[0] != 0 {
		t.Fatalf("IDs = %v, want {t1,t2} or {t1,t3}", res.IDs)
	}
	if res.IDs[1] != 1 && res.IDs[1] != 2 {
		t.Errorf("IDs = %v, want second element t2 or t3", res.IDs)
	}
}
