package algohd

import (
	"reflect"
	"sync"
	"testing"

	"github.com/rankregret/rankregret/internal/dataset"
	"github.com/rankregret/rankregret/internal/funcspace"
	"github.com/rankregret/rankregret/internal/xrand"
)

// Parallelism is a latency knob, never a result knob: HDRRM, HDRRR, and the
// ablation variants must produce bit-identical results at every worker
// count. Run with -race this also exercises the tile hand-off in the
// scoring pass.
func TestParallelismBitIdentical(t *testing.T) {
	opts := DefaultOptions()
	opts.MaxM = 3000
	w3, err := funcspace.WeakRanking(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	sets := []struct {
		name string
		ds   *dataset.Dataset
	}{
		{"anti", dataset.Anticorrelated(xrand.New(11), 600, 3)},
		{"weather", dataset.SimWeather(xrand.New(1), 800)},
	}
	for _, s := range sets {
		type outcome struct {
			rrm, rrr, variant Result
		}
		var base *outcome
		for _, par := range []int{1, 4, 16} {
			o := opts
			o.Parallelism = par
			var got outcome
			var err error
			if got.rrm, err = HDRRMCtx(t.Context(), s.ds, 8, o); err != nil {
				t.Fatalf("%s par=%d HDRRM: %v", s.name, par, err)
			}
			if got.rrr, err = soloRRR(t.Context(), s.ds, 30, o); err != nil {
				t.Fatalf("%s par=%d HDRRR: %v", s.name, par, err)
			}
			ro := o
			if s.ds.Dim() == 3 {
				// Exercise the restricted-space (RRRM) path too.
				ro.Space = w3
			}
			if got.variant, err = soloVariant(t.Context(), s.ds, 8, ro, Variant{NoBasis: true}); err != nil {
				t.Fatalf("%s par=%d variant: %v", s.name, par, err)
			}
			if base == nil {
				base = &got
				continue
			}
			if !reflect.DeepEqual(got, *base) {
				t.Errorf("%s: parallelism %d result differs from parallelism 1:\n got %+v\nwant %+v",
					s.name, par, got, *base)
			}
		}
	}
}

// TestPooledScratchConcurrentSolves runs HDRRM solves concurrently over one
// SharedVecSet, budgets cycling over base..base+4 and sample counts mixed
// between them, so searches take ASMS scratch from the pool while others
// return it, the sample stream extends and the top-K cache deepens under
// them, and each search starts from whatever basis index the cache holds
// and publishes its own. Every solve must equal its serial result. Run
// with -race it also checks that no two searches share scratch and that
// published indexes are never written.
func TestPooledScratchConcurrentSolves(t *testing.T) {
	const (
		base    = 10
		solvers = 8
		rounds  = 3
	)
	samples := []int{600, 2000, 300, 1400, 1000}
	ds := dataset.SimWeather(xrand.New(1), 800)
	o := DefaultOptions()
	acquire := func(shared *SharedVecSet, m int) (*VecSet, error) {
		vs, _, err := shared.Acquire(t.Context(), m)
		return vs, err
	}
	serial := make([]Result, len(samples))
	shared := NewSharedVecSet(ds, nil, o.EffectiveGamma(), o.Seed, nil)
	for i, m := range samples {
		vs, err := acquire(shared, m)
		if err != nil {
			t.Fatal(err)
		}
		if serial[i], err = HDRRMWithVecSetCtx(t.Context(), ds, base+i, o, vs); err != nil {
			t.Fatal(err)
		}
	}

	shared = NewSharedVecSet(ds, nil, o.EffectiveGamma(), o.Seed, nil)
	var wg sync.WaitGroup
	for g := range solvers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := range rounds {
				i := (g + round) % len(samples)
				vs, err := acquire(shared, samples[i])
				if err != nil {
					t.Error(err)
					return
				}
				res, err := HDRRMWithVecSetCtx(t.Context(), ds, base+i, o, vs)
				if err != nil {
					t.Error(err)
					return
				}
				if !reflect.DeepEqual(res, serial[i]) {
					t.Errorf("solver %d round %d, m=%d r=%d: got %+v, serial %+v", g, round, samples[i], base+i, res, serial[i])
				}
			}
		}()
	}
	wg.Wait()
}
