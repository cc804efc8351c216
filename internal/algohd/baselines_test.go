package algohd

import (
	"reflect"
	"testing"

	"github.com/rankregret/rankregret/internal/algo2d"
	"github.com/rankregret/rankregret/internal/dataset"
	"github.com/rankregret/rankregret/internal/funcspace"
	"github.com/rankregret/rankregret/internal/xrand"
)

func TestMDRRRrBasic(t *testing.T) {
	rng := xrand.New(1)
	ds := dataset.Anticorrelated(rng, 300, 4)
	res, err := MDRRRrCtx(t.Context(), ds, 10, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.IDs) == 0 || len(res.IDs) > 10 {
		t.Errorf("size %d out of (0, 10]", len(res.IDs))
	}
	if res.K < 1 {
		t.Errorf("K = %d", res.K)
	}
	// The hitting set must hit the top-K set of every sampled direction it
	// was built from; spot check with the same seed's vector set.
	vs, err := BuildVecSetCtx(t.Context(), ds, nil, 1, testOpts().M, xrand.New(testOpts().Seed))
	if err != nil {
		t.Fatal(err)
	}
	inRes := map[int]bool{}
	for _, id := range res.IDs {
		inRes[id] = true
	}
	for v := 0; v < vs.Len(); v++ {
		hit := false
		for _, tid := range topOf(t, vs, v, res.K) {
			if inRes[tid] {
				hit = true
				break
			}
		}
		if !hit {
			t.Fatalf("vector %d top-%d not hit", v, res.K)
		}
	}
}

func TestMDRRRrRestricted(t *testing.T) {
	rng := xrand.New(2)
	ds := dataset.Anticorrelated(rng, 200, 4)
	cone, err := funcspace.WeakRanking(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	opts := testOpts()
	opts.Space = cone
	res, err := MDRRRrCtx(t.Context(), ds, 8, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.IDs) > 8 {
		t.Errorf("size %d > 8", len(res.IDs))
	}
	full, err := MDRRRrCtx(t.Context(), ds, 8, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	if res.K > full.K {
		t.Errorf("restricted K=%d worse than full K=%d", res.K, full.K)
	}
}

func TestMDRRRSmallScaleOnly(t *testing.T) {
	rng := xrand.New(3)
	small := dataset.Independent(rng, 100, 3)
	res, err := MDRRRCtx(t.Context(), small, 6, testOpts(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.IDs) > 6 {
		t.Errorf("size %d > 6", len(res.IDs))
	}
	big := dataset.Independent(rng, 1000, 3)
	if _, err := MDRRRCtx(t.Context(), big, 6, testOpts(), 0); err == nil {
		t.Error("MDRRR must refuse n > 500 by default")
	}
	if _, err := MDRRRCtx(t.Context(), big, 6, testOpts(), 2000); err != nil {
		t.Errorf("explicit maxN should allow larger n: %v", err)
	}
}

func TestMDRCBasic(t *testing.T) {
	rng := xrand.New(4)
	for _, d := range []int{2, 3, 4} {
		ds := dataset.Independent(rng, 400, d)
		res, err := MDRCCtx(t.Context(), ds, 10)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.IDs) == 0 || len(res.IDs) > 10 {
			t.Errorf("d=%d: size %d out of (0, 10]", d, len(res.IDs))
		}
	}
	// Deterministic.
	ds := dataset.Anticorrelated(rng, 300, 3)
	a, err := MDRCCtx(t.Context(), ds, 8)
	if err != nil {
		t.Fatal(err)
	}
	b, err := MDRCCtx(t.Context(), ds, 8)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.IDs, b.IDs) {
		t.Error("MDRC not deterministic")
	}
	if _, err := MDRCCtx(t.Context(), ds, 0); err == nil {
		t.Error("r=0 accepted")
	}
}

func TestMDRCQualityDegradesOnAnticorrelated(t *testing.T) {
	// The paper's headline experimental finding: MDRC's rank-regret is far
	// worse than HDRRM's on anti-correlated data.
	rng := xrand.New(5)
	ds := dataset.Anticorrelated(rng, 1500, 4)
	mdrc, err := MDRCCtx(t.Context(), ds, 10)
	if err != nil {
		t.Fatal(err)
	}
	hd, err := HDRRMCtx(t.Context(), ds, 10, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	srMDRC := sampledRegret(ds, mdrc.IDs, nil, 3000, 50)
	srHD := sampledRegret(ds, hd.IDs, nil, 3000, 50)
	if srHD > srMDRC {
		t.Errorf("HDRRM regret %d worse than MDRC %d on anti-correlated data", srHD, srMDRC)
	}
}

func TestMDRMSBasic(t *testing.T) {
	rng := xrand.New(6)
	ds := dataset.Anticorrelated(rng, 400, 3)
	res, err := MDRMSCtx(t.Context(), ds, 8, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.IDs) == 0 || len(res.IDs) > 8 {
		t.Errorf("size %d out of (0, 8]", len(res.IDs))
	}
	// Output should be skyline tuples only.
	if _, err := MDRMSCtx(t.Context(), ds, 0, testOpts()); err == nil {
		t.Error("r=0 accepted")
	}
}

func TestMDRMSOptimizesRegretRatio(t *testing.T) {
	// MDRMS should achieve a better (or equal) regret-ratio than a random
	// same-size subset, measured over sampled directions.
	rng := xrand.New(7)
	ds := dataset.Anticorrelated(rng, 400, 3)
	res, err := MDRMSCtx(t.Context(), ds, 6, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	ratio := func(ids []int) float64 {
		r := xrand.New(123)
		worst := 0.0
		scores := make([]float64, ds.N())
		for i := 0; i < 2000; i++ {
			u := r.UnitOrthantDirection(3)
			scores = ds.Utilities(u, scores)
			best, have := 0.0, 0.0
			for _, s := range scores {
				if s > best {
					best = s
				}
			}
			for _, id := range ids {
				if scores[id] > have {
					have = scores[id]
				}
			}
			if best > 0 {
				if rr := (best - have) / best; rr > worst {
					worst = rr
				}
			}
		}
		return worst
	}
	random := []int{0, 1, 2, 3, 4, 5}
	if ratio(res.IDs) > ratio(random)+1e-9 {
		t.Errorf("MDRMS regret-ratio %v worse than a naive subset %v", ratio(res.IDs), ratio(random))
	}
}

func TestRMSGreedy(t *testing.T) {
	rng := xrand.New(8)
	ds := dataset.Anticorrelated(rng, 300, 3)
	res, err := RMSGreedyCtx(t.Context(), ds, 6, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.IDs) == 0 || len(res.IDs) > 6 {
		t.Errorf("size %d out of (0, 6]", len(res.IDs))
	}
	// Greedy must improve monotonically with budget.
	small, err := RMSGreedyCtx(t.Context(), ds, 2, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(small.IDs) > 2 {
		t.Errorf("budget 2 returned %d tuples", len(small.IDs))
	}
	if _, err := RMSGreedyCtx(t.Context(), ds, 0, testOpts()); err == nil {
		t.Error("r=0 accepted")
	}
}

func TestHDSolversOn5Attributes(t *testing.T) {
	// Mirror of the NBA setting (d=5). All solvers must handle it.
	rng := xrand.New(9)
	ds := dataset.SimNBA(rng, 800)
	opts := testOpts()
	hd, err := HDRRMCtx(t.Context(), ds, 10, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(hd.IDs) > 10 {
		t.Errorf("HDRRM size %d", len(hd.IDs))
	}
	// NBA-like data is strongly correlated: K should be very small.
	if hd.K > 16 {
		t.Errorf("HDRRM K=%d on correlated NBA-like data; expected small", hd.K)
	}
	if _, err := MDRRRrCtx(t.Context(), ds, 10, opts); err != nil {
		t.Errorf("MDRRRr failed on d=5: %v", err)
	}
	if _, err := MDRCCtx(t.Context(), ds, 10); err != nil {
		t.Errorf("MDRC failed on d=5: %v", err)
	}
	if _, err := MDRMSCtx(t.Context(), ds, 10, opts); err != nil {
		t.Errorf("MDRMS failed on d=5: %v", err)
	}
}

// TestMDRRRExact2DGuarantee: in 2D MDRRR uses the exact k-set enumeration,
// so its reported K is a true rank-regret bound over the whole space.
func TestMDRRRExact2DGuarantee(t *testing.T) {
	ds := dataset.Anticorrelated(xrand.New(3), 200, 2)
	const r = 5
	res, err := MDRRRCtx(t.Context(), ds, r, DefaultOptions(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.IDs) > r {
		t.Fatalf("|S| = %d exceeds budget %d", len(res.IDs), r)
	}
	got, err := algo2d.ExactRankRegret(ds, res.IDs, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got > res.K {
		t.Errorf("exact rank-regret %d exceeds the reported guarantee %d", got, res.K)
	}
	// The exact DP optimum is a lower bound for any feasible set.
	opt, err := algo2d.TwoDRRMCtx(t.Context(), ds, r)
	if err != nil {
		t.Fatal(err)
	}
	if got < opt.RankRegret {
		t.Errorf("MDRRR achieved %d below the DP optimum %d", got, opt.RankRegret)
	}
	// The hitting set over ALL k-sets at the optimal k is a valid solution,
	// so MDRRR's guarantee should land close to the optimum (greedy may
	// overshoot the size at the optimal k, costing a few ranks).
	if res.K > 4*opt.RankRegret+4 {
		t.Errorf("MDRRR guarantee %d far above the optimum %d", res.K, opt.RankRegret)
	}
}
