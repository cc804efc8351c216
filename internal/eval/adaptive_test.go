package eval

import (
	"testing"

	"github.com/rankregret/rankregret/internal/algo2d"
	"github.com/rankregret/rankregret/internal/dataset"
	"github.com/rankregret/rankregret/internal/funcspace"
	"github.com/rankregret/rankregret/internal/xrand"
)

func TestRankRegretAdaptiveValidation(t *testing.T) {
	ds := dataset.Independent(xrand.New(1), 50, 2)
	if _, err := RankRegretAdaptive(ds, nil, nil, 100, 1); err == nil {
		t.Error("empty set should fail")
	}
	if _, err := RankRegretAdaptive(ds, []int{0}, nil, 4, 1); err == nil {
		t.Error("tiny budget should fail")
	}
}

func TestRankRegretAdaptiveNeverBelowUniform(t *testing.T) {
	ds := dataset.Anticorrelated(xrand.New(3), 800, 3)
	ids := []int{0, 5, 17, 100, 212}
	space := funcspace.NewFull(3)
	for _, seed := range []int64{1, 2, 3, 4, 5} {
		uni, err := RankRegretCtx(t.Context(), ds, ids, space, 1000, seed)
		if err != nil {
			t.Fatal(err)
		}
		ada, err := RankRegretAdaptive(ds, ids, space, 2000, seed)
		if err != nil {
			t.Fatal(err)
		}
		// Both are lower bounds on the true max; the adaptive estimator
		// should not be systematically weaker. Allow slack for its smaller
		// uniform phase.
		if ada*2 < uni {
			t.Errorf("seed %d: adaptive %d far below uniform %d", seed, ada, uni)
		}
	}
}

func TestRankRegretAdaptiveFindsExact2DMax(t *testing.T) {
	// In 2D the exact maximum is available from the dual sweep; adaptive
	// estimation with a modest budget should reach it (the uniform
	// estimator frequently undershoots by a rank or two at this budget).
	ds := dataset.Anticorrelated(xrand.New(7), 1500, 2)
	res, err := algo2d.TwoDRRMCtx(t.Context(), ds, 4)
	if err != nil {
		t.Fatal(err)
	}
	exact, err := RankRegret2DExact(ds, res.IDs, funcspace.NewFull(2))
	if err != nil {
		t.Fatal(err)
	}
	hits := 0
	for _, seed := range []int64{1, 2, 3, 4, 5, 6, 7, 8} {
		got, err := RankRegretAdaptive(ds, res.IDs, nil, 4000, seed)
		if err != nil {
			t.Fatal(err)
		}
		if got > exact {
			t.Fatalf("adaptive estimate %d exceeds the exact maximum %d", got, exact)
		}
		if got == exact {
			hits++
		}
	}
	if hits < 5 {
		t.Errorf("adaptive estimator reached the exact max in only %d/8 runs", hits)
	}
}

func TestRankRegretAdaptiveRestrictedSpace(t *testing.T) {
	ds := dataset.Anticorrelated(xrand.New(11), 500, 3)
	cone, err := funcspace.WeakRanking(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	ids := []int{1, 2, 3}
	got, err := RankRegretAdaptive(ds, ids, cone, 1000, 5)
	if err != nil {
		t.Fatal(err)
	}
	if got < 1 || got > ds.N() {
		t.Errorf("rank-regret %d outside [1, n]", got)
	}
	// The restricted maximum cannot exceed the full-space maximum.
	full, err := RankRegretAdaptive(ds, ids, nil, 4000, 5)
	if err != nil {
		t.Fatal(err)
	}
	if got > 2*full+5 {
		t.Errorf("restricted estimate %d far above full-space estimate %d", got, full)
	}
}
