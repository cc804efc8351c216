package algo2d

import (
	"testing"

	"github.com/rankregret/rankregret/internal/dataset"
	"github.com/rankregret/rankregret/internal/funcspace"
	"github.com/rankregret/rankregret/internal/skyline"
	"github.com/rankregret/rankregret/internal/topk"
	"github.com/rankregret/rankregret/internal/xrand"
)

func TestExactRankRegretTableI(t *testing.T) {
	ds := tableI()
	// From the paper (Figure 4): the chain {l1, l3, l7} has maximum rank 3
	// over x in [0, 1].
	rr, err := ExactRankRegret(ds, []int{0, 2, 6}, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if rr != 3 {
		t.Errorf("regret of {t1,t3,t7} = %d, want 3 (paper, Figure 4)", rr)
	}
	// A set containing the whole skyline has regret 1.
	rr, err = ExactRankRegret(ds, []int{0, 1, 2, 3, 6}, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if rr != 1 {
		t.Errorf("whole skyline regret = %d, want 1", rr)
	}
}

func TestExactRankRegretMatchesSampling(t *testing.T) {
	rng := xrand.New(1)
	for trial := 0; trial < 15; trial++ {
		ds := dataset.Independent(rng, 40, 2)
		ids := []int{rng.Intn(40), rng.Intn(40), rng.Intn(40)}
		exact, err := ExactRankRegret(ds, ids, 0, 1)
		if err != nil {
			t.Fatal(err)
		}
		// Dense sampling can only find ranks <= exact, approaching it.
		worst := 0
		for i := 0; i <= 2000; i++ {
			x := float64(i) / 2000
			u := []float64{x, 1 - x}
			if r := topk.RankOfSet(ds, u, ids, nil); r > worst {
				worst = r
			}
		}
		if worst > exact {
			t.Fatalf("trial %d: sampled rank %d exceeds exact %d", trial, worst, exact)
		}
		if exact-worst > 1 {
			t.Fatalf("trial %d: exact %d far above dense sampling %d", trial, exact, worst)
		}
	}
}

func TestExactRankRegretSegment(t *testing.T) {
	ds := tableI()
	// t7 = (1, 0) is the top tuple at x=1 but terrible at x=0.
	full, err := ExactRankRegret(ds, []int{6}, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	right, err := ExactRankRegret(ds, []int{6}, 0.9, 1)
	if err != nil {
		t.Fatal(err)
	}
	if right >= full {
		t.Errorf("restricting to x in [0.9,1] should improve t7's regret: %d vs %d", right, full)
	}
	if right != 1 {
		t.Errorf("t7's regret near x=1 should be 1, got %d", right)
	}
}

func TestExactRankRegretErrors(t *testing.T) {
	ds := tableI()
	if _, err := ExactRankRegret(ds, nil, 0, 1); err == nil {
		t.Error("empty set accepted")
	}
	if _, err := ExactRankRegret(ds, []int{99}, 0, 1); err == nil {
		t.Error("out-of-range id accepted")
	}
}

func TestTwoDRRRBaselineGuarantees(t *testing.T) {
	rng := xrand.New(2)
	for trial := 0; trial < 10; trial++ {
		ds := dataset.Anticorrelated(rng, 60, 2)
		k := 2 + trial%4
		res, err := TwoDRRRBaselineCtx(t.Context(), ds, k)
		if err != nil {
			t.Fatal(err)
		}
		// Guarantee 1: rank-regret at most 2k.
		if res.RankRegret > 2*k {
			t.Fatalf("trial %d: baseline regret %d > 2k = %d", trial, res.RankRegret, 2*k)
		}
		// Guarantee 2: size at most r_k (the optimal size for threshold k).
		exact, ok, err := freshRRR(t.Context(), ds, k, nil)
		if err != nil {
			t.Fatal(err)
		}
		if ok && len(res.IDs) > len(exact.IDs) {
			t.Fatalf("trial %d: baseline size %d > optimal size %d for k=%d",
				trial, len(res.IDs), len(exact.IDs), k)
		}
	}
}

func TestTwoDRRRBaselineErrors(t *testing.T) {
	ds := tableI()
	if _, err := TwoDRRRBaselineCtx(t.Context(), ds, 0); err == nil {
		t.Error("k=0 accepted")
	}
	d3 := dataset.MustFromRows([][]float64{{1, 2, 3}})
	if _, err := TwoDRRRBaselineCtx(t.Context(), d3, 1); err == nil {
		t.Error("3D dataset accepted")
	}
}

func TestTwoDRRRBaselineForRRM(t *testing.T) {
	rng := xrand.New(3)
	for trial := 0; trial < 8; trial++ {
		ds := dataset.Anticorrelated(rng, 80, 2)
		r := 2 + trial%3
		res, err := TwoDRRRBaselineForRRMCtx(t.Context(), ds, r)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.IDs) > r {
			t.Fatalf("trial %d: size %d > r=%d", trial, len(res.IDs), r)
		}
		// The approximation can't beat the exact optimum.
		opt, err := TwoDRRMCtx(t.Context(), ds, r)
		if err != nil {
			t.Fatal(err)
		}
		if res.RankRegret < opt.RankRegret {
			t.Fatalf("trial %d: baseline regret %d below exact optimum %d",
				trial, res.RankRegret, opt.RankRegret)
		}
	}
}

func TestBaselineCoversTopTuplesEverywhere(t *testing.T) {
	// With k=1 the baseline must return tuples such that at every x some
	// member is ranked <= 2.
	rng := xrand.New(4)
	ds := dataset.Independent(rng, 50, 2)
	res, err := TwoDRRRBaselineCtx(t.Context(), ds, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.RankRegret > 2 {
		t.Fatalf("k=1 baseline regret %d > 2", res.RankRegret)
	}
	// All members should be skyline tuples (top-k tuples always are for
	// the positions they're selected at... top-1 tuples are skyline).
	sky := map[int]bool{}
	for _, i := range skyline.Compute(ds) {
		sky[i] = true
	}
	for _, id := range res.IDs {
		if !sky[id] {
			t.Errorf("k=1 baseline chose non-skyline tuple %d", id)
		}
	}
}

func TestTwoDRRRExactRestricted(t *testing.T) {
	ds := dataset.Anticorrelated(xrand.New(9), 300, 2)
	cone, err := funcspace.WeakRanking(2, 1) // u[0] >= u[1], segment [0.5, 1]
	if err != nil {
		t.Fatal(err)
	}
	const k = 3
	res, ok, err := freshRRR(t.Context(), ds, k, cone)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("k=3 should be achievable")
	}
	// Verify against the exact evaluator over the rendered segment.
	c0, c1, err := funcspace.Render2D(cone)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ExactRankRegret(ds, res.IDs, c0, c1)
	if err != nil {
		t.Fatal(err)
	}
	if got > k {
		t.Errorf("restricted RRR output has segment rank-regret %d > %d", got, k)
	}
	// Minimality: the restricted RRM optimum at size |S|-1 must exceed k.
	if len(res.IDs) > 1 {
		smaller, err := freshRRM(t.Context(), ds, len(res.IDs)-1, cone)
		if err != nil {
			t.Fatal(err)
		}
		if smaller.RankRegret <= k {
			t.Errorf("size %d achieves %d <= %d, so RRR output (size %d) is not minimal",
				len(res.IDs)-1, smaller.RankRegret, k, len(res.IDs))
		}
	}
	// The restricted answer never needs more tuples than the full-space one.
	full, okFull, err := freshRRR(t.Context(), ds, k, nil)
	if err != nil || !okFull {
		t.Fatalf("full-space RRR failed: %v", err)
	}
	if len(res.IDs) > len(full.IDs) {
		t.Errorf("restricted RRR needs %d tuples, full-space needs %d", len(res.IDs), len(full.IDs))
	}
}

func TestTwoDRRRExactRestrictedValidation(t *testing.T) {
	ds := dataset.Independent(xrand.New(1), 50, 2)
	cone, err := funcspace.WeakRanking(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := freshRRR(t.Context(), ds, 0, cone); err == nil {
		t.Error("k=0 should fail")
	}
	d3 := dataset.Independent(xrand.New(1), 50, 3)
	if _, _, err := freshRRR(t.Context(), d3, 2, cone); err == nil {
		t.Error("d=3 should fail")
	}
}
