package engine

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"github.com/rankregret/rankregret/internal/algo2d"
	"github.com/rankregret/rankregret/internal/algohd"
	"github.com/rankregret/rankregret/internal/dataset"
	"github.com/rankregret/rankregret/internal/funcspace"
	"github.com/rankregret/rankregret/internal/xrand"
)

func TestRegistry(t *testing.T) {
	algos := Algorithms()
	for _, want := range []string{"2drrm", "hdrrm", "2drrr", "mdrrrr", "mdrc", "mdrms", "mdrrr", "rms-greedy", "skyline"} {
		found := false
		for _, a := range algos {
			if a == want {
				found = true
			}
		}
		if !found {
			t.Errorf("algorithm %q not registered (have %v)", want, algos)
		}
	}
	if s, err := Resolve("", 2); err != nil || s.Name() != "2drrm" {
		t.Errorf("Resolve auto d=2 = %v, %v", s, err)
	}
	if s, err := Resolve("", 5); err != nil || s.Name() != "hdrrm" {
		t.Errorf("Resolve auto d=5 = %v, %v", s, err)
	}
	if _, err := Resolve("quantum", 2); err == nil {
		t.Error("unknown algorithm should fail to resolve")
	}
}

// goldenSolve reproduces the pre-engine rankregret.Solve dispatch by
// calling the internal algorithm entry points directly, so the golden tests
// below assert the registry path is byte-identical to the old switch.
func goldenSolve(ctx context.Context, ds *dataset.Dataset, r int, algo string, opts Options) (*Solution, error) {
	ho := opts.hd()
	switch algo {
	case "2drrm":
		var res algo2d.Result
		var err error
		if opts.Space != nil {
			res, err = algo2d.TwoDRRMRestrictedCtx(ctx, ds, r, opts.Space)
		} else {
			res, err = algo2d.TwoDRRMCtx(ctx, ds, r)
		}
		if err != nil {
			return nil, err
		}
		return &Solution{IDs: res.IDs, RankRegret: res.RankRegret, Exact: true, Algorithm: algo}, nil
	case "2drrr":
		res, err := algo2d.TwoDRRRBaselineForRRMCtx(ctx, ds, r)
		if err != nil {
			return nil, err
		}
		return &Solution{IDs: res.IDs, RankRegret: res.RankRegret, Exact: true, Algorithm: algo}, nil
	case "hdrrm":
		res, err := algohd.HDRRMCtx(ctx, ds, r, ho)
		if err != nil {
			return nil, err
		}
		return &Solution{IDs: res.IDs, RankRegret: res.K, Algorithm: algo}, nil
	case "mdrrrr":
		res, err := algohd.MDRRRrCtx(ctx, ds, r, ho)
		if err != nil {
			return nil, err
		}
		return &Solution{IDs: res.IDs, RankRegret: res.K, Algorithm: algo}, nil
	case "mdrms":
		res, err := algohd.MDRMSCtx(ctx, ds, r, ho)
		if err != nil {
			return nil, err
		}
		return &Solution{IDs: res.IDs, Algorithm: algo}, nil
	}
	return nil, errors.New("golden: unhandled algorithm " + algo)
}

// TestGoldenDispatch checks, on seeded workloads, that registry dispatch
// returns solutions identical to direct calls into the algorithm packages.
func TestGoldenDispatch(t *testing.T) {
	island := dataset.SimIsland(xrand.New(7), 300)
	nba := dataset.SimNBA(xrand.New(7), 500)
	weak2, err := funcspace.WeakRanking(5, 2)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		ds   *dataset.Dataset
		r    int
		algo string
		opts Options
	}{
		{"2drrm island", island, 5, "2drrm", Options{Seed: 1}},
		{"2drrr island", island, 5, "2drrr", Options{Seed: 1}},
		{"hdrrm nba", nba, 8, "hdrrm", Options{Seed: 1, MaxSamples: 2000}},
		{"hdrrm nba restricted", nba, 8, "hdrrm", Options{Seed: 3, MaxSamples: 2000, Space: weak2}},
		{"mdrrrr nba", nba, 8, "mdrrrr", Options{Seed: 1, Samples: 512}},
		{"mdrms nba", nba, 8, "mdrms", Options{Seed: 1, Samples: 512}},
	}
	// A fresh engine per case and a second solve per engine: the first
	// exercises the compute path, the second the cache path; both must be
	// identical to the golden result.
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want, err := goldenSolve(t.Context(), tc.ds, tc.r, tc.algo, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			e := New(0)
			for pass, label := range []string{"computed", "cached"} {
				got, err := e.Solve(context.Background(), tc.ds, tc.r, tc.algo, tc.opts)
				if err != nil {
					t.Fatalf("pass %d: %v", pass, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s solution = %+v, want %+v", label, got, want)
				}
			}
			if st := e.CacheStats(); st.Hits != 1 || st.Misses != 1 {
				t.Errorf("cache stats = %+v, want 1 hit / 1 miss", st)
			}
		})
	}
}

func TestSolveRRRGolden(t *testing.T) {
	island := dataset.SimIsland(xrand.New(7), 300)
	e := New(0)
	got, err := e.SolveRRR(context.Background(), island, 3, "", Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	res, ok, err := algo2d.TwoDRRRExactCtx(t.Context(), island, 3)
	if err != nil || !ok {
		t.Fatalf("golden dual: %v ok=%v", err, ok)
	}
	if !reflect.DeepEqual(got.IDs, res.IDs) || got.RankRegret != res.RankRegret || !got.Exact {
		t.Errorf("dual solve = %+v, want %+v", got, res)
	}

	nba := dataset.SimNBA(xrand.New(7), 500)
	gotHD, err := e.SolveRRR(context.Background(), nba, 40, "", Options{Seed: 1, MaxSamples: 1500})
	if err != nil {
		t.Fatal(err)
	}
	ho := Options{Seed: 1, MaxSamples: 1500}.hd()
	vs, _, err := algohd.NewSharedVecSet(nba, nil, ho.EffectiveGamma(), ho.Seed, nil).Acquire(t.Context(), ho.SampleSizeRRR(nba.N(), nba.Dim(), 40))
	if err != nil {
		t.Fatal(err)
	}
	resHD, err := algohd.HDRRRWithVecSetCtx(t.Context(), nba, 40, ho, vs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotHD.IDs, resHD.IDs) || gotHD.RankRegret != resHD.K {
		t.Errorf("HD dual solve = %+v, want %+v", gotHD, resHD)
	}
}

// TestCancellationAbortsHDRRM starts an HDRRM solve on the full simulated
// Weather dataset — tens of seconds of work — cancels it almost
// immediately, and requires the solve to return well before completion.
func TestCancellationAbortsHDRRM(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	weather := dataset.SimWeather(xrand.New(1), 120000)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	e := New(0)
	start := time.Now()
	_, err := e.Solve(ctx, weather, 10, "hdrrm", Options{Seed: 1})
	elapsed := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	// The full solve takes tens of seconds; a cooperative abort must come
	// back orders of magnitude sooner.
	if elapsed > 5*time.Second {
		t.Errorf("cancelled solve returned after %v, want well under the full solve time", elapsed)
	}
}

// TestCancellation2D does the same for the 2D DP sweep.
func TestCancellation2D(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	// Anticorrelated data maximizes the skyline, making the DP sweep slow.
	anti := dataset.Anticorrelated(xrand.New(1), 20000, 2)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	e := New(0)
	start := time.Now()
	_, err := e.Solve(ctx, anti, 10, "2drrm", Options{Seed: 1})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("cancelled 2D solve returned after %v", elapsed)
	}
}

func TestVariantSolver(t *testing.T) {
	nba := dataset.SimNBA(xrand.New(7), 400)
	opts := Options{Seed: 1, MaxSamples: 1000}
	v := algohd.Variant{NoBasis: true}
	ho := opts.hd()
	vs, _, err := algohd.NewSharedVecSet(nba, nil, ho.EffectiveGamma(), ho.Seed, nil).Acquire(t.Context(), ho.SampleSize(nba.N(), nba.Dim(), 6))
	if err != nil {
		t.Fatal(err)
	}
	want, err := algohd.HDRRMVariantWithVecSetCtx(t.Context(), nba, 6, ho, v, vs)
	if err != nil {
		t.Fatal(err)
	}
	e := New(0)
	got, err := e.SolveWith(context.Background(), nba, 6, VariantSolver(v), opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.IDs, want.IDs) || got.RankRegret != want.K {
		t.Errorf("variant solve = %+v, want %+v", got, want)
	}
	// Variant solvers must not collide with plain hdrrm cache entries.
	plain, err := e.Solve(context.Background(), nba, 6, "hdrrm", opts)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(plain.IDs, got.IDs) && plain.RankRegret == got.RankRegret {
		t.Log("variant and plain coincide on this workload; cache keying still distinct")
	}
	if st := e.CacheStats(); st.Misses != 2 {
		t.Errorf("cache misses = %d, want 2 (distinct keys for variant and plain)", st.Misses)
	}
}

func TestValidation(t *testing.T) {
	e := New(0)
	ctx := context.Background()
	if _, err := e.Solve(ctx, nil, 5, "", Options{}); err == nil {
		t.Error("nil dataset should fail")
	}
	ds := dataset.SimIsland(xrand.New(1), 50)
	if _, err := e.Solve(ctx, ds, 0, "", Options{}); err == nil {
		t.Error("r = 0 should fail")
	}
	if _, err := e.SolveRRR(ctx, ds, 51, "", Options{}); err == nil {
		t.Error("k > n should fail")
	}
	if _, err := e.Solve(ctx, dataset.SimNBA(xrand.New(1), 50), 5, "2drrm", Options{}); !errors.Is(err, ErrDimension) {
		t.Errorf("2drrm on d=5: err = %v, want ErrDimension", err)
	}
	if _, err := e.SolveRRR(ctx, ds, 5, "mdrc", Options{}); err == nil {
		t.Error("non-dual solver on SolveRRR should fail")
	}
}

// TestCacheMutationIsolation ensures callers mutating a returned solution
// cannot corrupt the cached copy.
func TestCacheMutationIsolation(t *testing.T) {
	island := dataset.SimIsland(xrand.New(7), 200)
	e := New(0)
	first, err := e.Solve(context.Background(), island, 4, "", Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	saved := append([]int(nil), first.IDs...)
	for i := range first.IDs {
		first.IDs[i] = -1
	}
	second, err := e.Solve(context.Background(), island, 4, "", Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(second.IDs, saved) {
		t.Errorf("cached solution corrupted by caller mutation: %v, want %v", second.IDs, saved)
	}
}

// TestSamplerDisablesCache: custom preference samplers have no stable cache
// identity, so solves carrying one must bypass the cache entirely.
func TestSamplerDisablesCache(t *testing.T) {
	nba := dataset.SimNBA(xrand.New(7), 300)
	sampler, err := algohd.GaussianPreference([]float64{1, 1, 1, 1, 1}, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	e := New(0)
	opts := Options{Seed: 1, MaxSamples: 500, Sampler: sampler}
	if _, err := e.Solve(context.Background(), nba, 7, "hdrrm", opts); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Solve(context.Background(), nba, 7, "hdrrm", opts); err != nil {
		t.Fatal(err)
	}
	if st := e.CacheStats(); st.Hits != 0 || st.Misses != 0 || st.Len != 0 {
		t.Errorf("sampler solves touched the cache: %+v", st)
	}
}
