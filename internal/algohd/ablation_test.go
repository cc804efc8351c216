package algohd

import (
	"context"
	"testing"

	"github.com/rankregret/rankregret/internal/dataset"
	"github.com/rankregret/rankregret/internal/eval"
	"github.com/rankregret/rankregret/internal/funcspace"
	"github.com/rankregret/rankregret/internal/xrand"
)

// soloVariant runs an HDRRM ablation the way the engine does when no VecSet
// tier is wired: on a one-off SharedVecSet no one else holds, at gamma 1
// for NoGrid and with no samples for NoSamples.
func soloVariant(ctx context.Context, ds *dataset.Dataset, r int, opts Options, v Variant) (Result, error) {
	gamma, m := opts.EffectiveGamma(), opts.SampleSize(ds.N(), ds.Dim(), r)
	if v.NoGrid {
		gamma = 1
	}
	if v.NoSamples {
		m = 0
	}
	vs, _, err := NewSharedVecSet(ds, opts.Space, gamma, opts.Seed, opts.Sampler).Acquire(ctx, m)
	if err != nil {
		return Result{}, err
	}
	return HDRRMVariantWithVecSetCtx(ctx, ds, r, opts, v, vs)
}

// soloRRR is soloVariant's HDRRR analogue.
func soloRRR(ctx context.Context, ds *dataset.Dataset, k int, opts Options) (Result, error) {
	vs, _, err := NewSharedVecSet(ds, opts.Space, opts.EffectiveGamma(), opts.Seed, opts.Sampler).Acquire(ctx, opts.SampleSizeRRR(ds.N(), ds.Dim(), k))
	if err != nil {
		return Result{}, err
	}
	return HDRRRWithVecSetCtx(ctx, ds, k, opts, vs)
}

func TestVariantNames(t *testing.T) {
	cases := map[string]Variant{
		"full":       {},
		"no-basis":   {NoBasis: true},
		"no-grid":    {NoGrid: true},
		"no-samples": {NoSamples: true},
	}
	for want, v := range cases {
		if got := v.Name(); got != want {
			t.Errorf("Name(%+v) = %q, want %q", v, got, want)
		}
	}
	if got := (Variant{NoBasis: true, NoGrid: true}).Name(); got == "full" {
		t.Errorf("combined variant misnamed %q", got)
	}
}

func TestHDRRMVariantFullMatchesHDRRM(t *testing.T) {
	ds := dataset.Independent(xrand.New(3), 800, 3)
	opts := DefaultOptions()
	opts.MaxM = 1500
	full, err := HDRRMCtx(t.Context(), ds, 8, opts)
	if err != nil {
		t.Fatal(err)
	}
	variant, err := soloVariant(t.Context(), ds, 8, opts, Variant{})
	if err != nil {
		t.Fatal(err)
	}
	if full.K != variant.K || len(full.IDs) != len(variant.IDs) {
		t.Errorf("zero variant diverged: K %d vs %d, size %d vs %d",
			full.K, variant.K, len(full.IDs), len(variant.IDs))
	}
	for i := range full.IDs {
		if full.IDs[i] != variant.IDs[i] {
			t.Errorf("zero variant chose different tuples: %v vs %v", full.IDs, variant.IDs)
			break
		}
	}
}

func TestHDRRMVariantValidation(t *testing.T) {
	ds := dataset.Independent(xrand.New(3), 100, 3)
	opts := DefaultOptions()
	if _, err := soloVariant(t.Context(), ds, 8, opts, Variant{NoGrid: true, NoSamples: true}); err == nil {
		t.Error("removing both Da and Db should fail")
	}
	if _, err := soloVariant(t.Context(), ds, 0, opts, Variant{}); err == nil {
		t.Error("r=0 should fail")
	}
	empty := dataset.New(3)
	if _, err := soloVariant(t.Context(), empty, 5, opts, Variant{}); err == nil {
		t.Error("empty dataset should fail")
	}
}

func TestAblationShapesOnAnticorrelated(t *testing.T) {
	// The ablations should not beat the full algorithm by much (they give
	// up guarantees, not gain quality) and each must still produce a
	// feasible set within budget.
	ds := dataset.Anticorrelated(xrand.New(9), 1500, 3)
	opts := DefaultOptions()
	opts.MaxM = 1500
	const r = 8
	space := funcspace.NewFull(3)
	regretOf := func(v Variant) int {
		t.Helper()
		res, err := soloVariant(t.Context(), ds, r, opts, v)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.IDs) > r || len(res.IDs) == 0 {
			t.Fatalf("%s: |S| = %d", v.Name(), len(res.IDs))
		}
		got, err := eval.RankRegretCtx(t.Context(), ds, res.IDs, space, 6000, 17)
		if err != nil {
			t.Fatal(err)
		}
		return got
	}
	full := regretOf(Variant{})
	noGrid := regretOf(Variant{NoGrid: true})
	noSamples := regretOf(Variant{NoSamples: true})
	noBasis := regretOf(Variant{NoBasis: true})
	t.Logf("ablation rank-regrets: full=%d no-grid=%d no-samples=%d no-basis=%d",
		full, noGrid, noSamples, noBasis)
	// Dropping the samples leaves only (gamma+1)^(d-1) grid directions —
	// on anti-correlated data the rank between grid directions degrades,
	// so the no-samples variant should be clearly worse than full.
	if noSamples < full/2 {
		t.Errorf("no-samples ablation (%d) dramatically better than full (%d)?", noSamples, full)
	}
}

func TestHDRRRReturnsThresholdSet(t *testing.T) {
	ds := dataset.Independent(xrand.New(21), 600, 3)
	opts := DefaultOptions()
	opts.MaxM = 1200
	res, err := soloRRR(t.Context(), ds, 20, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.K != 20 {
		t.Errorf("K = %d, want the echoed threshold 20", res.K)
	}
	// Every vector of the solver's own discretization must be covered at
	// rank <= 20 (Lemma 2). Verify with an independent estimator.
	got, err := eval.RankRegretCtx(t.Context(), ds, res.IDs, funcspace.NewFull(3), 6000, 23)
	if err != nil {
		t.Fatal(err)
	}
	if got > 3*20 {
		t.Errorf("HDRRR k=20: estimated rank-regret %d", got)
	}
	if _, err := soloRRR(t.Context(), ds, 0, opts); err == nil {
		t.Error("k=0 should fail")
	}
	if _, err := soloRRR(t.Context(), ds, 1000, opts); err == nil {
		t.Error("k>n should fail")
	}
}
