package algo2d

import (
	"reflect"
	"slices"
	"testing"

	"github.com/rankregret/rankregret/internal/dataset"
	"github.com/rankregret/rankregret/internal/funcspace"
	"github.com/rankregret/rankregret/internal/xrand"
)

// clonePlan deep-copies a plan, so a test can check that solves leave it
// untouched.
func clonePlan(pl *Plan) *Plan {
	return &Plan{cand: slices.Clone(pl.cand), start: slices.Clone(pl.start), steps: slices.Clone(pl.steps)}
}

// TestSharedPlanMatchesFreshPlans is the plan's differential test: on the
// full space, a restricted space and a narrow cone, every RRM budget
// r = 1..s+1 and every RRR threshold k in [1, n], solved through one shared
// plan in an order that interleaves the two modes, equals the one-off
// wrappers, each of which builds a fresh plan. The shared plan must come
// out of all of it unchanged.
func TestSharedPlanMatchesFreshPlans(t *testing.T) {
	ctx := t.Context()
	cone, err := funcspace.WeakRanking(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	narrow, err := funcspace.NewBall([]float64{0.5, 0.5}, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	tied := make([][]float64, 60)
	rng := xrand.New(3)
	for i := range tied {
		tied[i] = []float64{float64(rng.Intn(7)) / 2, float64(rng.Intn(7)) / 2}
	}
	sets := map[string]*dataset.Dataset{
		"anti":   dataset.Anticorrelated(xrand.New(1), 150, 2),
		"indep":  dataset.Independent(xrand.New(2), 120, 2),
		"island": dataset.SimIsland(xrand.New(4), 300),
		"tied":   dataset.MustFromRows(tied),
	}
	spaces := map[string]funcspace.Space{"full": nil, "weak1": cone, "narrow": narrow}
	for dsName, ds := range sets {
		for spName, space := range spaces {
			pl, err := NewPlanCtx(ctx, ds, space)
			if err != nil {
				t.Fatal(err)
			}
			before := clonePlan(pl)
			s, n := len(pl.cand), ds.N()
			for i := 0; i < max(s+1, n); i++ {
				if r := s + 1 - i; r >= 1 {
					got, err := pl.RRM(ctx, r)
					if err != nil {
						t.Fatal(err)
					}
					want, err := TwoDRRMRestrictedCtx(ctx, ds, r, space)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s/%s r=%d: shared plan %+v, fresh plan %+v", dsName, spName, r, got, want)
					}
				}
				if k := i + 1; k <= n {
					got, gotOK, err := pl.RRR(ctx, k)
					if err != nil {
						t.Fatal(err)
					}
					want, wantOK, err := TwoDRRRExactRestrictedCtx(ctx, ds, k, space)
					if err != nil {
						t.Fatal(err)
					}
					if gotOK != wantOK || !reflect.DeepEqual(got, want) {
						t.Fatalf("%s/%s k=%d: shared plan %+v/%v, fresh plan %+v/%v", dsName, spName, k, got, gotOK, want, wantOK)
					}
				}
			}
			if !reflect.DeepEqual(pl, before) {
				t.Fatalf("%s/%s: solving changed the shared plan", dsName, spName)
			}
		}
	}
}

// TestPlanMatchesAlgorithm1 pins the folded DP steps to the paper's literal
// Algorithm 1 on the full space, tied rows included.
func TestPlanMatchesAlgorithm1(t *testing.T) {
	ctx := t.Context()
	for seed := int64(1); seed <= 20; seed++ {
		rng := xrand.New(seed)
		rows := make([][]float64, 5+rng.Intn(30))
		for i := range rows {
			rows[i] = []float64{float64(rng.Intn(9)) / 2, float64(rng.Intn(9)) / 2}
		}
		ds := dataset.MustFromRows(rows)
		pl, err := NewPlanCtx(ctx, ds, nil)
		if err != nil {
			t.Fatal(err)
		}
		for r := 1; r <= len(pl.cand)+1; r++ {
			got, err := pl.RRM(ctx, r)
			if err != nil {
				t.Fatal(err)
			}
			want, err := TwoDRRMAlgorithm1(ds, r)
			if err != nil {
				t.Fatal(err)
			}
			if got.RankRegret != want.RankRegret {
				t.Fatalf("seed %d r=%d: plan rank-regret %d, Algorithm 1 %d", seed, r, got.RankRegret, want.RankRegret)
			}
		}
	}
}

func TestNewPlanErrors(t *testing.T) {
	ctx := t.Context()
	if _, err := NewPlanCtx(ctx, dataset.Independent(xrand.New(1), 20, 3), nil); err == nil {
		t.Error("3D dataset accepted")
	}
	if _, err := NewPlanCtx(ctx, dataset.Independent(xrand.New(1), 20, 1), nil); err == nil {
		t.Error("1D dataset accepted")
	}
	if _, err := NewPlanCtx(ctx, dataset.Independent(xrand.New(1), 20, 2), funcspace.NewFull(3)); err == nil {
		t.Error("3D space accepted for a 2D dataset")
	}
	pl, err := NewPlanCtx(ctx, dataset.Independent(xrand.New(1), 20, 2), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pl.RRM(ctx, 0); err == nil {
		t.Error("r=0 accepted")
	}
	if _, _, err := pl.RRR(ctx, 0); err == nil {
		t.Error("k=0 accepted")
	}
}
