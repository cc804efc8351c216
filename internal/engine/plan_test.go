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
	"github.com/rankregret/rankregret/internal/obs"
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
// it once, an appended version makes its own (a build or a repair), and
// every answer equals the standalone solve.
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
		if st := e.VecSetStats(); st.Builds+st.Repairs != 2 || st.Len != 2 {
			t.Fatalf("after an append: %+v, want 2 builds or repairs in 2 entries", st)
		}
		// The old version keeps its own plan.
		if _, err := e.Solve(ctx, ds, 6, AlgoTwoDRRM, opts); err != nil {
			t.Fatal(err)
		}
		if st := e.VecSetStats(); st.Builds+st.Repairs != 2 || st.Reuses != 1 {
			t.Fatalf("re-solving the old version: %+v, want 2 builds or repairs / 1 reuse", st)
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

// appendJitteredRows appends count rows to ds, each a random row of ds
// moved by up to ±0.01 per attribute and clamped to [0, 1]: the serving
// benchmark's write, which a 2D plan can nearly always repair across.
func appendJitteredRows(ds *dataset.Dataset, rng *xrand.Rand, count int) {
	for range count {
		src := ds.Row(rng.Intn(ds.N()))
		row := make([]float64, len(src))
		for j, v := range src {
			row[j] = min(max(v+0.02*(rng.Float64()-0.5), 0), 1)
		}
		ds.Append(row)
	}
}

// TestPlanTierRepair checks the plan repair across appends: a jittered
// append repairs the previous version's plan and answers every budget and
// an RRR threshold as a standalone solve does; a delete in the window
// rebuilds; the old version keeps reusing its own plan; and an hdrrm solve
// whose newest identity entry holds only a plan builds its vector set.
func TestPlanTierRepair(t *testing.T) {
	ctx := context.Background()
	v0 := dataset.SimIsland(xrand.New(1), 800)
	opts := Options{Seed: 1}
	e := New(0)
	if _, err := e.Solve(ctx, v0, 5, AlgoTwoDRRM, opts); err != nil {
		t.Fatal(err)
	}
	v1 := v0.Snapshot()
	appendJitteredRows(v1, xrand.New(2), 8)
	tr := obs.NewTrace("t")
	if _, err := e.Solve(obs.WithTrace(ctx, tr), v1, 5, AlgoTwoDRRM, opts); err != nil {
		t.Fatal(err)
	}
	if got := tr.Annotation("plan"); got != "repaired" {
		t.Fatalf("solve after a jittered append: plan=%q, want repaired", got)
	}
	if st := e.VecSetStats(); st.Builds != 1 || st.Repairs != 1 || st.Len != 2 {
		t.Fatalf("after a jittered append: %+v, want 1 build / 1 repair in 2 entries", st)
	}
	for r := 1; r <= 12; r++ {
		got, err := e.Solve(ctx, v1, r, AlgoTwoDRRM, opts)
		if err != nil {
			t.Fatal(err)
		}
		if want := solve2D(t, v1, r); !reflect.DeepEqual(got, want) {
			t.Fatalf("repaired plan r=%d: %+v, standalone %+v", r, got, want)
		}
	}
	gotRRR, err := e.SolveRRR(ctx, v1, 15, AlgoTwoDRRM, opts)
	if err != nil {
		t.Fatal(err)
	}
	wantRRR, err := New(-1).SolveRRR(ctx, v1, 15, AlgoTwoDRRM, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotRRR, wantRRR) {
		t.Fatalf("repaired plan RRR k=15: %+v, standalone %+v", gotRRR, wantRRR)
	}

	// The pinned old version reuses its own plan.
	if _, err := e.Solve(ctx, v0, 7, AlgoTwoDRRM, opts); err != nil {
		t.Fatal(err)
	}
	if st := e.VecSetStats(); st.Builds != 1 || st.Repairs != 1 || st.Reuses != 13 {
		t.Fatalf("re-solving v0: %+v, want 1 build / 1 repair / 13 reuses", st)
	}

	// A delete between the versions rebuilds.
	v2 := v1.Snapshot()
	appendJitteredRows(v2, xrand.New(3), 2)
	if err := v2.Delete([]int{3}); err != nil {
		t.Fatal(err)
	}
	got, err := e.Solve(ctx, v2, 5, AlgoTwoDRRM, opts)
	if err != nil {
		t.Fatal(err)
	}
	if want := solve2D(t, v2, 5); !reflect.DeepEqual(got, want) {
		t.Fatalf("after a delete: %+v, standalone %+v", got, want)
	}
	if st := e.VecSetStats(); st.Builds != 2 || st.Repairs != 1 {
		t.Fatalf("after a delete: %+v, want 2 builds / 1 repair", st)
	}

	// The identity's newest entry, v2's, holds only a plan: an hdrrm solve
	// of the next version has no vector set to repair from and builds one.
	v3 := v2.Snapshot()
	appendJitteredRows(v3, xrand.New(4), 3)
	hdOpts := Options{Seed: 1, Samples: 200}
	got, err = e.Solve(ctx, v3, 4, AlgoHDRRM, hdOpts)
	if err != nil {
		t.Fatal(err)
	}
	want, err := New(-1).Solve(ctx, v3, 4, AlgoHDRRM, hdOpts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("hdrrm after a plan-only version: %+v, standalone %+v", got, want)
	}
}

// TestPlanOnlyVersionKeepsVecSetSource checks that a version only 2D
// solves have used does not hide an older version's vector set: hdrrm on
// v0, 2drrm on v1, then hdrrm on v2 repairs v0's vector set across both
// appends and answers as a standalone solve does.
func TestPlanOnlyVersionKeepsVecSetSource(t *testing.T) {
	ctx := context.Background()
	v0 := dataset.SimIsland(xrand.New(1), 800)
	opts := Options{Seed: 1, Samples: 200}
	e := New(0)
	if _, err := e.Solve(ctx, v0, 4, AlgoHDRRM, opts); err != nil {
		t.Fatal(err)
	}
	v1 := v0.Snapshot()
	appendJitteredRows(v1, xrand.New(2), 4)
	if _, err := e.Solve(ctx, v1, 5, AlgoTwoDRRM, opts); err != nil {
		t.Fatal(err)
	}
	v2 := v1.Snapshot()
	appendJitteredRows(v2, xrand.New(3), 4)
	tr := obs.NewTrace("t")
	got, err := e.Solve(obs.WithTrace(ctx, tr), v2, 4, AlgoHDRRM, opts)
	if err != nil {
		t.Fatal(err)
	}
	if a := tr.Annotation("vecset"); a != "repaired" {
		t.Fatalf("hdrrm after a plan-only version: vecset=%q, want repaired", a)
	}
	want, err := New(-1).Solve(ctx, v2, 4, AlgoHDRRM, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("hdrrm after a plan-only version: %+v, standalone %+v", got, want)
	}
}

// TestPlanRepairConcurrentSolves races solves on a version and the next
// one, appended to it: the next version's first solves race its plan's
// repair from the old version's plan, which solves on the old version
// read at the same time. Every result must equal its standalone solve, and
// the new plan is made once. The race job repeats it.
func TestPlanRepairConcurrentSolves(t *testing.T) {
	ctx := context.Background()
	v0 := dataset.SimIsland(xrand.New(2), 1500)
	v1 := v0.Snapshot()
	appendJitteredRows(v1, xrand.New(4), 8)
	const base, steps, workers = 3, 4, 8
	want := map[*dataset.Dataset][]*Solution{}
	for _, ds := range []*dataset.Dataset{v0, v1} {
		for i := range steps {
			want[ds] = append(want[ds], solve2D(t, ds, base+i))
		}
	}
	opts := Options{Seed: 1, VecSets: NewVecSetCache(DefaultVecSetCacheSize)}
	if _, err := (twoDRRMSolver{}).Solve(ctx, v0, base, opts); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range 2 * steps {
				ds, i := v0, (w+j)%steps
				if (w+j)%2 == 1 {
					ds = v1
				}
				got, err := twoDRRMSolver{}.Solve(ctx, ds, base+i, opts)
				if err == nil && !reflect.DeepEqual(got, want[ds][i]) {
					err = fmt.Errorf("worker %d r=%d: %+v, standalone %+v", w, base+i, got, want[ds][i])
				}
				if err != nil {
					errs[w] = err
					return
				}
			}
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		t.Fatal(err)
	}
	if st := opts.VecSets.Stats(); st.Builds != 1 || st.Repairs != 1 {
		t.Fatalf("racing v0 and v1 solves: %+v, want 1 build and 1 repair", st)
	}
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
