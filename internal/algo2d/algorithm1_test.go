package algo2d

import (
	"testing"
	"testing/quick"

	"github.com/rankregret/rankregret/internal/dataset"
	"github.com/rankregret/rankregret/internal/xrand"
)

func TestAlgorithm1Validation(t *testing.T) {
	ds := dataset.Independent(xrand.New(1), 20, 2)
	if _, err := TwoDRRMAlgorithm1(ds, 0); err == nil {
		t.Error("r=0 should fail")
	}
	d3 := dataset.Independent(xrand.New(1), 20, 3)
	if _, err := TwoDRRMAlgorithm1(d3, 2); err == nil {
		t.Error("d=3 should fail")
	}
	if _, err := TwoDRRMAlgorithm1(dataset.New(2), 2); err == nil {
		t.Error("empty dataset should fail")
	}
}

func TestAlgorithm1TableI(t *testing.T) {
	ds := dataset.TableI()
	res, err := TwoDRRMAlgorithm1(ds, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.IDs) != 1 || res.IDs[0] != 2 || res.RankRegret != 3 {
		t.Errorf("Algorithm 1 on Table I: %+v, want t3 with rank-regret 3", res)
	}
}

// TestAlgorithm1MatchesOptimizedDP is the cross-validation the literal
// transcription exists for: the full O(n^2) sweep and the production
// skyline-crossings-only sweep must compute identical optima.
func TestAlgorithm1MatchesOptimizedDP(t *testing.T) {
	f := func(seed int64, nn int, rr uint8) bool {
		n := nn
		if n < 0 {
			n = -n
		}
		n = n%50 + 3
		r := int(rr)%5 + 1
		for _, gen := range []func(*xrand.Rand, int, int) *dataset.Dataset{
			dataset.Independent, dataset.Anticorrelated,
		} {
			ds := gen(xrand.New(seed), n, 2)
			lit, err := TwoDRRMAlgorithm1(ds, r)
			if err != nil {
				return false
			}
			opt, err := TwoDRRMCtx(t.Context(), ds, r)
			if err != nil {
				return false
			}
			if lit.RankRegret != opt.RankRegret {
				t.Logf("seed=%d n=%d r=%d: literal %d vs optimized %d",
					seed, n, r, lit.RankRegret, opt.RankRegret)
				return false
			}
			// Both sets must actually achieve the claimed regret.
			gotLit, err := ExactRankRegret(ds, lit.IDs, 0, 1)
			if err != nil || gotLit != lit.RankRegret {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestAlgorithm1LargerInstance(t *testing.T) {
	ds := dataset.Anticorrelated(xrand.New(77), 400, 2)
	lit, err := TwoDRRMAlgorithm1(ds, 5)
	if err != nil {
		t.Fatal(err)
	}
	opt, err := TwoDRRMCtx(t.Context(), ds, 5)
	if err != nil {
		t.Fatal(err)
	}
	if lit.RankRegret != opt.RankRegret {
		t.Errorf("literal Algorithm 1 regret %d, optimized %d", lit.RankRegret, opt.RankRegret)
	}
}
