package algo2d

import (
	"testing"
	"testing/quick"

	"github.com/rankregret/rankregret/internal/dataset"
	"github.com/rankregret/rankregret/internal/xrand"
)

func quick2D(seed int64, n int) *dataset.Dataset {
	if n < 0 {
		n = -n
	}
	return dataset.Independent(xrand.New(seed), n%60+3, 2)
}

// Property (Theorem 1): shifting any attribute by a non-negative constant
// leaves the exact optimal rank-regret unchanged.
func TestQuickShiftInvariance(t *testing.T) {
	f := func(seed int64, n int, s1, s2 uint8, rr uint8) bool {
		ds := quick2D(seed, n)
		r := int(rr)%5 + 1
		base, err := TwoDRRMCtx(t.Context(), ds, r)
		if err != nil {
			return false
		}
		shifted := ds.Clone()
		shifted.Shift([]float64{float64(s1) / 16, float64(s2) / 16})
		got, err := TwoDRRMCtx(t.Context(), shifted, r)
		if err != nil {
			return false
		}
		return got.RankRegret == base.RankRegret
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: the optimal rank-regret is non-increasing in the budget r.
func TestQuickMonotoneInBudget(t *testing.T) {
	f := func(seed int64, n int) bool {
		ds := quick2D(seed, n)
		prev := ds.N() + 1
		for r := 1; r <= 4; r++ {
			res, err := TwoDRRMCtx(t.Context(), ds, r)
			if err != nil {
				return false
			}
			if res.RankRegret > prev {
				return false
			}
			prev = res.RankRegret
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property (primal-dual): if RRM with budget r achieves regret k, then the
// exact RRR at threshold k needs at most r tuples and achieves regret <= k.
func TestQuickPrimalDualExact(t *testing.T) {
	f := func(seed int64, n int, rr uint8) bool {
		ds := quick2D(seed, n)
		r := int(rr)%4 + 1
		primal, err := TwoDRRMCtx(t.Context(), ds, r)
		if err != nil {
			return false
		}
		dual, ok, err := freshRRR(t.Context(), ds, primal.RankRegret, nil)
		if err != nil || !ok {
			return false
		}
		return len(dual.IDs) <= r && dual.RankRegret <= primal.RankRegret
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: the reported rank-regret matches an independent exact
// evaluation of the returned set.
func TestQuickReportedRegretMatchesEvaluation(t *testing.T) {
	f := func(seed int64, n int, rr uint8) bool {
		ds := quick2D(seed, n)
		r := int(rr)%5 + 1
		res, err := TwoDRRMCtx(t.Context(), ds, r)
		if err != nil {
			return false
		}
		got, err := ExactRankRegret(ds, res.IDs, 0, 1)
		if err != nil {
			return false
		}
		return got == res.RankRegret
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: the 2DRRR baseline's output is feasible (its reported regret is
// correct) though not necessarily optimal — it must never beat the DP.
func TestQuickBaselineNeverBeatsExact(t *testing.T) {
	f := func(seed int64, n int, rr uint8) bool {
		ds := quick2D(seed, n)
		r := int(rr)%5 + 1
		exact, err := TwoDRRMCtx(t.Context(), ds, r)
		if err != nil {
			return false
		}
		base, err := TwoDRRRBaselineForRRMCtx(t.Context(), ds, r)
		if err != nil {
			return false
		}
		return base.RankRegret >= exact.RankRegret
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
