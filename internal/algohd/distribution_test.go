package algohd

import (
	"math"
	"sort"
	"testing"

	"github.com/rankregret/rankregret/internal/dataset"
	"github.com/rankregret/rankregret/internal/eval"
	"github.com/rankregret/rankregret/internal/funcspace"
	"github.com/rankregret/rankregret/internal/geom"
	"github.com/rankregret/rankregret/internal/xrand"
)

func TestGaussianPreferenceValidation(t *testing.T) {
	if _, err := GaussianPreference(nil, 0.1); err == nil {
		t.Error("empty center should fail")
	}
	if _, err := GaussianPreference(geom.Vector{1, -1}, 0.1); err == nil {
		t.Error("negative center should fail")
	}
	if _, err := GaussianPreference(geom.Vector{0, 0}, 0.1); err == nil {
		t.Error("zero center should fail")
	}
	if _, err := GaussianPreference(geom.Vector{1, 1}, 0); err == nil {
		t.Error("zero sigma should fail")
	}
}

func TestGaussianPreferenceSamplesNearCenter(t *testing.T) {
	center := geom.Vector{0.8, 0.6}
	s, err := GaussianPreference(center, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(7)
	var maxDist float64
	for i := 0; i < 2000; i++ {
		u := s(rng)
		if len(u) != 2 {
			t.Fatalf("sample dim %d", len(u))
		}
		if !geom.NonNegative(u) {
			t.Fatalf("sample %v outside the orthant", u)
		}
		if math.Abs(geom.Norm(u)-1) > 1e-9 {
			t.Fatalf("sample %v not unit length", u)
		}
		if d := geom.Dist(u, center); d > maxDist {
			maxDist = d
		}
	}
	// sigma 0.05 keeps virtually all samples within ~5 sigma of the center.
	if maxDist > 0.3 {
		t.Errorf("samples strayed %v from the center with sigma 0.05", maxDist)
	}
}

func TestMixturePreference(t *testing.T) {
	a, _ := GaussianPreference(geom.Vector{1, 0.05}, 0.02)
	b, _ := GaussianPreference(geom.Vector{0.05, 1}, 0.02)
	mix, err := MixturePreference([]float64{3, 1}, []Sampler{a, b})
	if err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(11)
	nearA := 0
	const total = 4000
	for i := 0; i < total; i++ {
		u := mix(rng)
		if u[0] > u[1] {
			nearA++
		}
	}
	frac := float64(nearA) / total
	if frac < 0.70 || frac > 0.80 {
		t.Errorf("mixture weight 3:1 produced %.3f from the first component, want ~0.75", frac)
	}

	if _, err := MixturePreference([]float64{1}, nil); err == nil {
		t.Error("mismatched lengths should fail")
	}
	if _, err := MixturePreference([]float64{-1, 1}, []Sampler{a, b}); err == nil {
		t.Error("negative weight should fail")
	}
	if _, err := MixturePreference([]float64{0, 0}, []Sampler{a, b}); err == nil {
		t.Error("zero total weight should fail")
	}
}

// TestSampledVecSetRejection checks a custom Da distribution is
// rejection-sampled into the space: draws outside it are redrawn, and a
// sampler that never lands inside fails.
func TestSampledVecSetRejection(t *testing.T) {
	ds := dataset.Independent(xrand.New(1), 100, 2)
	cone, err := funcspace.WeakRanking(2, 1) // u[0] >= u[1]
	if err != nil {
		t.Fatal(err)
	}
	// A sampler concentrated inside the cone: accepted directly.
	inside, _ := GaussianPreference(geom.Vector{1, 0.2}, 0.01)
	vs, _, err := NewSharedVecSet(ds, cone, 4, 2, inside).Acquire(t.Context(), 50)
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range vs.Vecs {
		if !cone.ContainsDirection(u) {
			t.Fatalf("vector %v outside the cone", u)
		}
	}
	// A sampler concentrated outside the cone: every draw is rejected.
	outside, _ := GaussianPreference(geom.Vector{0.01, 1}, 0.001)
	if _, _, err := NewSharedVecSet(ds, cone, 4, 3, outside).Acquire(t.Context(), 10); err == nil {
		t.Error("sampler entirely outside the space should fail after max rejects")
	}
}

// TestSampledSolveOverEmptyGrid solves with a Sampler over a space so small
// that the polar grid Db admits no direction: D is then all samples, as for
// the uniform solve over the same space.
func TestSampledSolveOverEmptyGrid(t *testing.T) {
	ds := dataset.Anticorrelated(xrand.New(4), 300, 3)
	center := geom.Normalize(geom.Vector{0.31, 0.52, 0.79})
	ball, err := funcspace.NewBall(center, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if grid, _, err := buildGrid(ds, ball, 6); err != nil || len(grid) != 0 {
		t.Fatalf("ball admits %d grid directions (err %v), want 0", len(grid), err)
	}
	sampler, err := GaussianPreference(center, 0.002)
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.M = 200
	opts.Space = ball
	opts.Sampler = sampler
	res, err := HDRRMCtx(t.Context(), ds, 5, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.VecCount != 200 {
		t.Errorf("|D| = %d, want the 200 samples", res.VecCount)
	}
	if len(res.IDs) == 0 || len(res.IDs) > 5 || !sort.IntsAreSorted(res.IDs) || res.K < 1 {
		t.Errorf("malformed result %+v", res)
	}
}

func TestHDRRMWithPreferenceDistribution(t *testing.T) {
	// Users cluster around a known preference; HDRRM with that sampler
	// should serve those users at least as well as the uniform solve.
	ds := dataset.Anticorrelated(xrand.New(5), 2000, 3)
	center := geom.Vector{0.7, 0.2, 0.1}
	s, err := GaussianPreference(center, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.MaxM = 2000
	opts.Sampler = s
	res, err := HDRRMCtx(t.Context(), ds, 8, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.IDs) == 0 || len(res.IDs) > 8 {
		t.Fatalf("|S| = %d", len(res.IDs))
	}
	// Evaluate on the user distribution: the rank-regret near the center
	// should be small even though the full-space regret on anti-correlated
	// data is large.
	ball, err := funcspace.NewBall(center, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	got, err := eval.RankRegretCtx(t.Context(), ds, res.IDs, ball, 4000, 9)
	if err != nil {
		t.Fatal(err)
	}
	uniform := DefaultOptions()
	uniform.MaxM = 2000
	ures, err := HDRRMCtx(t.Context(), ds, 8, uniform)
	if err != nil {
		t.Fatal(err)
	}
	ugot, err := eval.RankRegretCtx(t.Context(), ds, ures.IDs, ball, 4000, 9)
	if err != nil {
		t.Fatal(err)
	}
	if got > 3*ugot+15 {
		t.Errorf("distribution-aware solve has regret %d near the center, uniform solve %d", got, ugot)
	}
}
