package engine

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"github.com/rankregret/rankregret/internal/algo2d"
	"github.com/rankregret/rankregret/internal/dataset"
	"github.com/rankregret/rankregret/internal/xrand"
)

// solve2D is the standalone 2DRRM answer for ds at budget r: a one-off plan,
// no engine.
func solve2D(t *testing.T, ds *dataset.Dataset, r int) *Solution {
	t.Helper()
	res, err := algo2d.TwoDRRMCtx(context.Background(), ds, r)
	if err != nil {
		t.Fatal(err)
	}
	return &Solution{IDs: res.IDs, RankRegret: res.RankRegret, Exact: true, Algorithm: AlgoTwoDRRM}
}

// TestPlanTierSweep checks that the VecSet tier keeps one 2D sweep plan per
// dataset version: an r sweep builds it once, concurrent first solves build
// it once, an appended version builds its own, and every answer equals the
// standalone solve.
func TestPlanTierSweep(t *testing.T) {
	ctx := context.Background()
	ds := dataset.SimIsland(xrand.New(1), 800)
	opts := Options{Seed: 1}

	t.Run("sweep", func(t *testing.T) {
		e := New(0)
		for r := 3; r <= 8; r++ {
			got, err := e.Solve(ctx, ds, r, AlgoTwoDRRM, opts)
			if err != nil {
				t.Fatal(err)
			}
			if want := solve2D(t, ds, r); !reflect.DeepEqual(got, want) {
				t.Fatalf("r=%d: tier solve %+v, standalone %+v", r, got, want)
			}
		}
		if st := e.VecSetStats(); st.Builds != 1 || st.Reuses != 5 || st.Len != 1 {
			t.Fatalf("r sweep 3..8: %+v, want 1 build / 5 reuses in 1 entry", st)
		}
		// The dual reads the same plan.
		if _, err := e.SolveRRR(ctx, ds, 12, AlgoTwoDRRM, opts); err != nil {
			t.Fatal(err)
		}
		if st := e.VecSetStats(); st.Builds != 1 || st.Reuses != 6 {
			t.Fatalf("after an RRR solve: %+v, want 1 build / 6 reuses", st)
		}
	})

	t.Run("concurrent-first", func(t *testing.T) {
		e := New(0)
		// Distinct budgets, so the solution cache's in-flight coalescing
		// cannot be what shares the build.
		want := []*Solution{solve2D(t, ds, 4), solve2D(t, ds, 5)}
		var wg sync.WaitGroup
		errs := make([]error, 2)
		for i := range errs {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				r := 4 + i
				got, err := e.Solve(ctx, ds, r, AlgoTwoDRRM, opts)
				if err == nil && !reflect.DeepEqual(got, want[i]) {
					err = fmt.Errorf("r=%d: concurrent solve %+v differs from standalone", r, got)
				}
				errs[i] = err
			}(i)
		}
		wg.Wait()
		if err := errors.Join(errs...); err != nil {
			t.Fatal(err)
		}
		if st := e.VecSetStats(); st.Builds != 1 || st.Reuses != 1 {
			t.Fatalf("two concurrent first solves: %+v, want 1 build / 1 reuse", st)
		}
	})

	t.Run("append", func(t *testing.T) {
		e := New(0)
		if _, err := e.Solve(ctx, ds, 5, AlgoTwoDRRM, opts); err != nil {
			t.Fatal(err)
		}
		v1 := ds.Snapshot()
		appendRandomRows(v1, xrand.New(9), 10)
		got, err := e.Solve(ctx, v1, 5, AlgoTwoDRRM, opts)
		if err != nil {
			t.Fatal(err)
		}
		if want := solve2D(t, v1, 5); !reflect.DeepEqual(got, want) {
			t.Fatalf("appended version: tier solve %+v, standalone %+v", got, want)
		}
		if st := e.VecSetStats(); st.Builds != 2 || st.Repairs != 0 || st.Len != 2 {
			t.Fatalf("after an append: %+v, want 2 builds in 2 entries", st)
		}
		// The old version keeps its own plan.
		if _, err := e.Solve(ctx, ds, 6, AlgoTwoDRRM, opts); err != nil {
			t.Fatal(err)
		}
		if st := e.VecSetStats(); st.Builds != 2 || st.Reuses != 1 {
			t.Fatalf("re-solving the old version: %+v, want 2 builds / 1 reuse", st)
		}
	})

	t.Run("failed-build-not-cached", func(t *testing.T) {
		e := New(0)
		cancelled, cancel := context.WithCancel(ctx)
		cancel()
		if _, err := e.Solve(cancelled, ds, 5, AlgoTwoDRRM, opts); !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled solve: err = %v, want context.Canceled", err)
		}
		got, err := e.Solve(ctx, ds, 5, AlgoTwoDRRM, opts)
		if err != nil {
			t.Fatal(err)
		}
		if want := solve2D(t, ds, 5); !reflect.DeepEqual(got, want) {
			t.Fatalf("after a failed build: %+v, want %+v", got, want)
		}
		if st := e.VecSetStats(); st.Builds != 1 || st.Reuses != 0 {
			t.Fatalf("after a failed build and a solve: %+v, want 1 build", st)
		}
	})
}

// TestPlanAndVecSetShareEntry checks that hdrrm and 2drrm on one 2D dataset
// share a tier entry and that each keeps its standalone answer, whichever
// runs first.
func TestPlanAndVecSetShareEntry(t *testing.T) {
	ctx := context.Background()
	ds := dataset.Anticorrelated(xrand.New(8), 300, 2)
	opts := Options{Seed: 1, Samples: 300}
	want := map[string]*Solution{}
	for _, algo := range []string{AlgoHDRRM, AlgoTwoDRRM} {
		sol, err := New(-1).Solve(ctx, ds, 4, algo, opts)
		if err != nil {
			t.Fatal(err)
		}
		want[algo] = sol
	}
	for _, order := range [][]string{{AlgoHDRRM, AlgoTwoDRRM}, {AlgoTwoDRRM, AlgoHDRRM}} {
		e := New(0)
		for _, algo := range order {
			got, err := e.Solve(ctx, ds, 4, algo, opts)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want[algo]) {
				t.Fatalf("order %v: %s solve %+v, standalone %+v", order, algo, got, want[algo])
			}
		}
		if st := e.VecSetStats(); st.Len != 1 || st.Builds != 2 {
			t.Fatalf("order %v: %+v, want one entry holding two builds (plan and vector set)", order, st)
		}
	}
}

// TestPlanConcurrentSolves runs 8 goroutines that cycle r over one tier
// plan, straight through the solver so the solution cache cannot answer;
// every result must equal its serial one. The race job repeats it.
func TestPlanConcurrentSolves(t *testing.T) {
	ctx := context.Background()
	ds := dataset.SimIsland(xrand.New(2), 1500)
	const base, steps, workers, rounds = 2, 6, 8, 3
	want := make([]*Solution, steps)
	for i := range want {
		want[i] = solve2D(t, ds, base+i)
	}
	opts := Options{Seed: 1, VecSets: NewVecSetCache(DefaultVecSetCacheSize)}
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for j := 0; j < rounds*steps; j++ {
				i := (w + j) % steps
				got, err := twoDRRMSolver{}.Solve(ctx, ds, base+i, opts)
				if err == nil && !reflect.DeepEqual(got, want[i]) {
					err = fmt.Errorf("worker %d r=%d: %+v, serial %+v", w, base+i, got, want[i])
				}
				if err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		t.Fatal(err)
	}
	if st := opts.VecSets.Stats(); st.Builds != 1 || st.Reuses != workers*rounds*steps-1 {
		t.Fatalf("concurrent sweep: %+v, want 1 build and every other solve a reuse", st)
	}
}

// TestMDRRRTiedRows2D: the deterministic k-set baseline on tied 2D rows
// returns an answer instead of failing (its exact path sweeps every k-set).
func TestMDRRRTiedRows2D(t *testing.T) {
	rng := xrand.New(11)
	for trial := 0; trial < 30; trial++ {
		rows := make([][]float64, 4+rng.Intn(12))
		for i := range rows {
			rows[i] = []float64{float64(rng.Intn(5)) / 2, float64(rng.Intn(5)) / 2}
		}
		ds := dataset.MustFromRows(rows)
		sol, err := New(-1).Solve(context.Background(), ds, 2, AlgoMDRRR, Options{Seed: 1})
		if err != nil {
			t.Fatalf("trial %d (%v): %v", trial, rows, err)
		}
		if len(sol.IDs) == 0 || len(sol.IDs) > 2 {
			t.Fatalf("trial %d: %d ids for r = 2", trial, len(sol.IDs))
		}
	}
}

// TestWarmPrimesPlan: Warm on a 2D dataset builds its sweep plan, and the
// first real solve at another budget reuses it.
func TestWarmPrimesPlan(t *testing.T) {
	ds := dataset.SimIsland(xrand.New(3), 600)
	e := New(0)
	if err := e.Warm(context.Background(), ds, 0, Options{Seed: 1}); err != nil {
		t.Fatal(err)
	}
	got, err := e.Solve(context.Background(), ds, 7, "", Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if want := solve2D(t, ds, 7); !reflect.DeepEqual(got, want) {
		t.Fatalf("post-warm solve %+v, standalone %+v", got, want)
	}
	if st := e.VecSetStats(); st.Builds != 1 || st.Reuses != 1 {
		t.Fatalf("warm then solve: %+v, want 1 build / 1 reuse", st)
	}
}
