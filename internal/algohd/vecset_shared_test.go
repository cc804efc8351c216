package algohd

import (
	"context"
	"reflect"
	"testing"

	"github.com/rankregret/rankregret/internal/dataset"
	"github.com/rankregret/rankregret/internal/xrand"
)

// TestSharedVecSetPrefixEquivalence is the core determinism property of the
// reuse tier: a view acquired from a SharedVecSet at any m is vector-for-
// vector identical to a VecSet freshly built with that m from the same
// seed, whether the view is a prefix, the initial build, or an extension.
func TestSharedVecSetPrefixEquivalence(t *testing.T) {
	ds := dataset.Independent(xrand.New(1), 120, 3)
	const gamma, seed = 4, 9
	shared := NewSharedVecSet(ds, nil, gamma, seed, nil)

	acquire := func(m int, want AcquireOutcome) *VecSet {
		t.Helper()
		vs, outcome, err := shared.Acquire(context.Background(), m)
		if err != nil {
			t.Fatal(err)
		}
		if outcome != want {
			t.Errorf("Acquire(%d) outcome = %v, want %v", m, outcome, want)
		}
		return vs
	}
	fresh := func(m int) *VecSet {
		t.Helper()
		vs, err := BuildVecSetCtx(t.Context(), ds, nil, gamma, m, xrand.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		return vs
	}

	for _, step := range []struct {
		m       int
		outcome AcquireOutcome
	}{
		{80, VecSetBuilt},     // first acquire builds grid + 80 samples
		{30, VecSetReused},    // prefix view
		{80, VecSetReused},    // full view
		{150, VecSetExtended}, // stream extension
		{100, VecSetReused},   // prefix of the extended stream
	} {
		got := acquire(step.m, step.outcome)
		want := fresh(step.m)
		if got.GridCount != want.GridCount {
			t.Fatalf("m=%d: grid count %d, want %d", step.m, got.GridCount, want.GridCount)
		}
		if !reflect.DeepEqual(got.Vecs, want.Vecs) {
			t.Fatalf("m=%d: acquired vectors differ from a fresh build", step.m)
		}
		// Per-vector top lists agree regardless of shared-cache history.
		for _, v := range []int{0, got.Len() / 2, got.Len() - 1} {
			if !reflect.DeepEqual(topOf(t, got, v, 7), topOf(t, want, v, 7)) {
				t.Fatalf("m=%d: Top(%d, 7) differs from a fresh build", step.m, v)
			}
		}
	}
}

// TestHDRRMWithSharedVecSet checks that solving through acquired views for
// a sweep of budgets gives exactly the standalone HDRRMCtx results, and
// that the reported rank-regret is non-increasing in the budget when the
// discretization is fixed.
func TestHDRRMWithSharedVecSet(t *testing.T) {
	ds := dataset.Anticorrelated(xrand.New(3), 150, 3)
	opts := testOpts() // fixed M, so every budget shares one vector set
	shared := NewSharedVecSet(ds, nil, opts.EffectiveGamma(), opts.Seed, nil)
	prevK := ds.N() + 1
	for r := 4; r <= 9; r++ {
		want, err := HDRRMCtx(t.Context(), ds, r, opts)
		if err != nil {
			t.Fatal(err)
		}
		vs, _, err := shared.Acquire(context.Background(), opts.SampleSize(ds.N(), ds.Dim(), r))
		if err != nil {
			t.Fatal(err)
		}
		got, err := HDRRMWithVecSetCtx(context.Background(), ds, r, opts, vs)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("r=%d: shared-vecset result %+v, want standalone %+v", r, got, want)
		}
		if got.K > prevK {
			t.Errorf("r=%d: rank-regret %d increased from %d at the smaller budget", r, got.K, prevK)
		}
		prevK = got.K
	}
}

// TestHDRRRWithSharedVecSet is the dual-path analogue.
func TestHDRRRWithSharedVecSet(t *testing.T) {
	ds := dataset.Independent(xrand.New(5), 140, 3)
	opts := testOpts()
	shared := NewSharedVecSet(ds, nil, opts.EffectiveGamma(), opts.Seed, nil)
	for _, k := range []int{3, 8, 15} {
		want, err := soloRRR(t.Context(), ds, k, opts)
		if err != nil {
			t.Fatal(err)
		}
		vs, _, err := shared.Acquire(context.Background(), opts.SampleSizeRRR(ds.N(), ds.Dim(), k))
		if err != nil {
			t.Fatal(err)
		}
		got, err := HDRRRWithVecSetCtx(context.Background(), ds, k, opts, vs)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("k=%d: shared-vecset result %+v, want standalone %+v", k, got, want)
		}
	}
}

// TestEnsureTopKCancellation is the regression test for the formerly
// swallowed EnsureTopKCtx error: cancellation must propagate out, leave the
// cache in its previous consistent state, and a later build must succeed
// and agree with an undisturbed set.
func TestEnsureTopKCancellation(t *testing.T) {
	ds := dataset.Independent(xrand.New(2), 200, 3)
	vs, err := BuildVecSetCtx(t.Context(), ds, nil, 4, 100, xrand.New(4))
	if err != nil {
		t.Fatal(err)
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if err := vs.EnsureTopKCtx(cancelled, 10); err != context.Canceled {
		t.Fatalf("EnsureTopKCtx on a cancelled ctx = %v, want context.Canceled", err)
	}
	// The failed build must not have committed anything: a fresh set built
	// the same way answers identically.
	ref, err := BuildVecSetCtx(t.Context(), ds, nil, 4, 100, xrand.New(4))
	if err != nil {
		t.Fatal(err)
	}
	if err := vs.EnsureTopKCtx(context.Background(), 10); err != nil {
		t.Fatal(err)
	}
	for _, v := range []int{0, 50, vs.Len() - 1} {
		if !reflect.DeepEqual(topOf(t, vs, v, 10), topOf(t, ref, v, 10)) {
			t.Errorf("Top(%d, 10) after cancelled build differs from undisturbed set", v)
		}
	}
}

// TestSharedVecSetCancelledExtensionResyncs checks that a cancelled
// extension does not poison the sample stream: the committed prefix (and
// its top-K cache) survives, the rng is resynced by replaying the stream
// from the seed, and the next extension still matches a fresh build
// exactly.
func TestSharedVecSetCancelledExtensionResyncs(t *testing.T) {
	ds := dataset.Independent(xrand.New(6), 100, 3)
	const gamma, seed = 3, 11
	shared := NewSharedVecSet(ds, nil, gamma, seed, nil)
	if _, _, err := shared.Acquire(context.Background(), 300); err != nil {
		t.Fatal(err)
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := shared.Acquire(cancelled, 2000); err != context.Canceled {
		t.Fatalf("cancelled extension = %v, want context.Canceled", err)
	}
	// The committed prefix is still served without rebuilding.
	if _, outcome, err := shared.Acquire(context.Background(), 200); err != nil || outcome != VecSetReused {
		t.Fatalf("prefix after cancelled extension = outcome %v err %v, want a plain reuse", outcome, err)
	}
	vs, outcome, err := shared.Acquire(context.Background(), 600)
	if err != nil {
		t.Fatal(err)
	}
	if outcome != VecSetExtended {
		t.Errorf("acquire after cancelled extension outcome = %v, want an extension", outcome)
	}
	want, err := BuildVecSetCtx(t.Context(), ds, nil, gamma, 600, xrand.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(vs.Vecs, want.Vecs) {
		t.Error("vectors after resynced extension differ from a fresh seeded build")
	}
}
