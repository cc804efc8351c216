package engine

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/rankregret/rankregret/internal/algohd"
	"github.com/rankregret/rankregret/internal/dataset"
	"github.com/rankregret/rankregret/internal/xrand"
)

func appendRandomRows(ds *dataset.Dataset, rng *xrand.Rand, count int) {
	row := make([]float64, ds.Dim())
	for i := 0; i < count; i++ {
		for j := range row {
			row[j] = rng.Float64()
		}
		ds.Append(row)
	}
}

// appendDominatedRows appends rows with negligible values on every
// attribute: they are always-beaten by (essentially) every existing row, so
// they can never enter a top-K list, which makes their later deletion a
// zero-churn repair by construction.
func appendDominatedRows(ds *dataset.Dataset, count int) (ids []int) {
	row := make([]float64, ds.Dim())
	for j := range row {
		row[j] = 1e-9
	}
	for i := 0; i < count; i++ {
		ids = append(ids, ds.N())
		ds.Append(row)
	}
	return ids
}

// TestEngineVecSetRepairOnMutation drives the full engine path across a
// snapshot chain — append, append-dominated, delete, rewrite — checking that
// each repairable step materializes its VecSet entry by repair (counter
// moves), every solution equals a cold engine's on the same version, and
// solves pinned to older versions keep answering from their untouched
// entries.
func TestEngineVecSetRepairOnMutation(t *testing.T) {
	ctx := context.Background()
	e := New(0)
	opts := Options{Seed: 1, Samples: 300, Gamma: 3}
	const r = 6

	base := dataset.Anticorrelated(xrand.New(17), 400, 3)
	sol0, err := e.Solve(ctx, base, r, AlgoHDRRM, opts)
	if err != nil {
		t.Fatal(err)
	}
	if st := e.VecSetStats(); st.Builds != 1 || st.Repairs != 0 {
		t.Fatalf("after cold solve: %+v", st)
	}

	// coldCheck solves ds on a throwaway engine and requires equality.
	coldCheck := func(ds *dataset.Dataset, sol *Solution) {
		t.Helper()
		want, err := New(0).Solve(ctx, ds, r, AlgoHDRRM, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(sol, want) {
			t.Fatalf("incremental solution %+v != cold %+v", sol, want)
		}
	}

	// Step 1: append.
	v1 := base.Snapshot()
	appendRandomRows(v1, xrand.New(5), 12)
	sol1, err := e.Solve(ctx, v1, r, AlgoHDRRM, opts)
	if err != nil {
		t.Fatal(err)
	}
	if st := e.VecSetStats(); st.Repairs != 1 || st.Builds != 1 {
		t.Fatalf("after append solve: %+v, want exactly one repair and no new build", st)
	}
	coldCheck(v1, sol1)

	// Step 2: append rows that cannot enter any list; their later deletion
	// is a guaranteed zero-churn repair.
	v2 := v1.Snapshot()
	doomed := appendDominatedRows(v2, 5)
	sol2, err := e.Solve(ctx, v2, r, AlgoHDRRM, opts)
	if err != nil {
		t.Fatal(err)
	}
	if st := e.VecSetStats(); st.Repairs != 2 || st.Builds != 1 {
		t.Fatalf("after dominated-append solve: %+v, want a second repair", st)
	}
	coldCheck(v2, sol2)

	// Step 3: delete three of the dominated rows — novel content, repaired
	// from v2's entry.
	v3 := v2.Snapshot()
	if err := v3.Delete(doomed[:3]); err != nil {
		t.Fatal(err)
	}
	sol3, err := e.Solve(ctx, v3, r, AlgoHDRRM, opts)
	if err != nil {
		t.Fatal(err)
	}
	if st := e.VecSetStats(); st.Repairs != 3 || st.Builds != 1 {
		t.Fatalf("after delete solve: %+v, want a third repair", st)
	}
	coldCheck(v3, sol3)

	// Deleting the remaining dominated rows restores v1's exact content:
	// the fingerprint round-trips (mutation-path independence) and the solve
	// is answered from the existing caches with no repair and no build.
	v3b := v3.Snapshot()
	if err := v3b.Delete([]int{v3b.N() - 2, v3b.N() - 1}); err != nil {
		t.Fatal(err)
	}
	if v3b.Fingerprint() != v1.Fingerprint() {
		t.Fatal("append+delete round trip changed the fingerprint")
	}
	statsBefore := e.VecSetStats()
	sol3b, err := e.Solve(ctx, v3b, r, AlgoHDRRM, opts)
	if err != nil {
		t.Fatal(err)
	}
	if st := e.VecSetStats(); st.Repairs != statsBefore.Repairs || st.Builds != statsBefore.Builds {
		t.Fatalf("round-trip content re-built or re-repaired: %+v -> %+v", statsBefore, st)
	}
	if !reflect.DeepEqual(sol3b.IDs, sol1.IDs) || sol3b.RankRegret != sol1.RankRegret {
		t.Fatalf("round-trip solutions diverged: %+v vs %+v", sol3b, sol1)
	}

	// Pinned solves on old versions answer from their untouched entries: no
	// new build, no new repair, same solution as before the mutations.
	buildsBefore := e.VecSetStats().Builds
	sol0b, err := e.Solve(ctx, base, r+1, AlgoHDRRM, opts) // different r: misses the solution cache, hits the VecSet entry
	if err != nil {
		t.Fatal(err)
	}
	if st := e.VecSetStats(); st.Builds != buildsBefore || st.Repairs != 3 {
		t.Fatalf("pinned solve rebuilt or re-repaired: %+v", st)
	}
	want0b, err := New(0).Solve(ctx, base, r+1, AlgoHDRRM, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sol0b, want0b) {
		t.Fatalf("pinned solve diverged: %+v vs %+v", sol0b, want0b)
	}
	if sol0c, err := e.Solve(ctx, base, r, AlgoHDRRM, opts); err != nil || !reflect.DeepEqual(sol0c, sol0) {
		t.Fatalf("pinned re-solve = %+v, %v; want original %+v", sol0c, err, sol0)
	}

	// Step 3: a rewrite (Shift) is not repairable — the tier must build
	// cold, and results must still match.
	v4 := v3.Snapshot()
	v4.Shift([]float64{0.05, 0.05, 0.05})
	sol4, err := e.Solve(ctx, v4, r, AlgoHDRRM, opts)
	if err != nil {
		t.Fatal(err)
	}
	if st := e.VecSetStats(); st.Repairs != 3 {
		t.Fatalf("rewrite must not be repaired: %+v", st)
	}
	coldCheck(v4, sol4)
}

// TestDivergentSnapshotsDoNotPoisonRepair breaks the snapshot discipline on
// purpose: two snapshots of one version mutated independently share a
// (lineage, version) line, so the delta window between them composes
// cleanly while describing the wrong source. The repair's surviving-row
// content verification must catch the drift and fall back to a cold build
// with correct results.
func TestDivergentSnapshotsDoNotPoisonRepair(t *testing.T) {
	ctx := context.Background()
	e := New(0)
	opts := Options{Seed: 1, Samples: 250, Gamma: 3}
	const r = 5

	base := dataset.Independent(xrand.New(3), 200, 3)
	if _, err := e.Solve(ctx, base, r, AlgoHDRRM, opts); err != nil {
		t.Fatal(err)
	}

	// Branch A: one append; solved, so its entry becomes the identity head.
	brA := base.Snapshot()
	brA.Append([]float64{0.99, 0.98, 0.97})
	solA, err := e.Solve(ctx, brA, r, AlgoHDRRM, opts)
	if err != nil {
		t.Fatal(err)
	}
	_ = solA

	// Branch B: diverges from base with DIFFERENT appended content, ending
	// at a higher version than branch A's entry. Its Deltas(brA.Version())
	// window splits the coalesced append and composes structurally — only
	// the content check can tell it came from the wrong branch.
	brB := base.Snapshot()
	brB.Append([]float64{0.01, 0.02, 0.03})
	brB.Append([]float64{0.5, 0.6, 0.7})
	repairsBefore := e.VecSetStats().Repairs
	solB, err := e.Solve(ctx, brB, r, AlgoHDRRM, opts)
	if err != nil {
		t.Fatal(err)
	}
	if st := e.VecSetStats(); st.Repairs != repairsBefore {
		t.Fatalf("divergent branch was repaired instead of rebuilt: %+v", st)
	}
	want, err := New(0).Solve(ctx, brB, r, AlgoHDRRM, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(solB, want) {
		t.Fatalf("divergent-branch solution poisoned: %+v != cold %+v", solB, want)
	}

	// The 2D sweep plan's repair: branch A's repaired plan is the identity
	// head, and branch B's delta window since it holds appends only, so
	// only the row comparison can tell that B's first appended row, just
	// below the top row, is not A's, which lies below every row.
	t.Run("2d", func(t *testing.T) {
		base := dataset.SimIsland(xrand.New(3), 800)
		e := New(0)
		if _, err := e.Solve(ctx, base, r, AlgoTwoDRRM, opts); err != nil {
			t.Fatal(err)
		}
		brA := base.Snapshot()
		brA.Append([]float64{0, 0})
		if _, err := e.Solve(ctx, brA, r, AlgoTwoDRRM, opts); err != nil {
			t.Fatal(err)
		}
		if st := e.VecSetStats(); st.Repairs != 1 {
			t.Fatalf("branch A was not repaired: %+v", st)
		}
		top := base.Row(0)
		for i := range base.N() {
			if row := base.Row(i); row[1] > top[1] {
				top = row
			}
		}
		brB := base.Snapshot()
		brB.Append([]float64{top[0] - 0.001, top[1] - 0.001})
		brB.Append([]float64{0, 0})
		for r := 1; r <= 8; r++ {
			got, err := e.Solve(ctx, brB, r, AlgoTwoDRRM, opts)
			if err != nil {
				t.Fatal(err)
			}
			if want := solve2D(t, brB, r); !reflect.DeepEqual(got, want) {
				t.Fatalf("divergent-branch 2drrm r=%d poisoned: %+v != standalone %+v", r, got, want)
			}
		}
		if st := e.VecSetStats(); st.Repairs != 1 || st.Builds != 2 {
			t.Fatalf("divergent branch's plan: %+v, want 2 builds / 1 repair", st)
		}
	})
}

// TestSchedulerEdgeCases is the table-driven sweep over scheduler edge
// behavior: queue-full rejection, retention-cap eviction order,
// cancel-while-queued, and a job pinned to a dataset version that the
// registry has already dropped.
func TestSchedulerEdgeCases(t *testing.T) {
	ds := dataset.SimIsland(xrand.New(3), 120)
	cases := []struct {
		name string
		run  func(t *testing.T)
	}{
		{"queue-full-rejection", func(t *testing.T) {
			s, b := newBlockingScheduler(t, 1, 2)
			testBlock.cur.Store(&b)
			defer testBlock.cur.Store(nil)
			if _, err := s.Submit(blockReq(ds, b, 1)); err != nil {
				t.Fatal(err)
			}
			<-b.started // the only worker is now parked
			for i := 0; i < 2; i++ {
				if _, err := s.Submit(blockReq(ds, b, 2+i)); err != nil {
					t.Fatalf("queued submit %d: %v", i, err)
				}
			}
			if _, err := s.Submit(blockReq(ds, b, 9)); !errors.Is(err, ErrQueueFull) {
				t.Fatalf("overflow submit err = %v, want ErrQueueFull", err)
			}
			close(b.release)
		}},
		{"retention-cap-eviction-order", func(t *testing.T) {
			s, _ := newBlockingScheduler(t, 1, 8)
			s.retain = 2 // shrink the history so eviction is observable
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			var ids []string
			for i := 0; i < 4; i++ {
				st, err := s.Submit(blockReq(ds, blockingSolver{}, 1+i))
				if err != nil {
					t.Fatal(err)
				}
				if _, err := s.Wait(ctx, st.ID); err != nil {
					t.Fatal(err)
				}
				ids = append(ids, st.ID)
			}
			// Oldest finished jobs are forgotten first; the newest two remain.
			for _, id := range ids[:2] {
				if _, ok := s.Get(id); ok {
					t.Fatalf("job %s survived past the retention cap", id)
				}
			}
			for _, id := range ids[2:] {
				if _, ok := s.Get(id); !ok {
					t.Fatalf("job %s evicted out of order", id)
				}
			}
		}},
		{"cancel-while-queued", func(t *testing.T) {
			s, b := newBlockingScheduler(t, 1, 4)
			testBlock.cur.Store(&b)
			defer testBlock.cur.Store(nil)
			if _, err := s.Submit(blockReq(ds, b, 1)); err != nil {
				t.Fatal(err)
			}
			<-b.started
			queued, err := s.Submit(blockReq(ds, b, 2))
			if err != nil {
				t.Fatal(err)
			}
			st, ok := s.Cancel(queued.ID)
			if !ok {
				t.Fatal("cancel: unknown job")
			}
			if st.State != JobFailed || !strings.Contains(st.Error, "canceled") {
				t.Fatalf("cancelled-while-queued status = %+v", st)
			}
			if st.StartedAt.IsZero() != true {
				t.Fatalf("cancelled queued job claims to have started: %+v", st)
			}
			close(b.release)
		}},
		{"job-pinned-to-deleted-version", func(t *testing.T) {
			// A registry drops old versions under a retention cap, but a job
			// holding the snapshot keeps solving consistent data.
			e := New(0)
			s := NewScheduler(e, 1, 4)
			t.Cleanup(s.Close)
			b := blockingSolver{started: make(chan string, 4), release: make(chan struct{})}
			testBlock.cur.Store(&b)
			defer testBlock.cur.Store(nil)

			v0 := dataset.SimIsland(xrand.New(9), 150)
			if _, err := s.Submit(blockReq(ds, b, 1)); err != nil {
				t.Fatal(err)
			}
			<-b.started // worker parked: the pinned job stays queued
			pinned, err := s.Submit(Request{Dataset: v0, Mode: ModeRRM, RK: 4, Algorithm: AlgoTwoDRRM, Opts: Options{Seed: 1}})
			if err != nil {
				t.Fatal(err)
			}
			// The "registry" moves on: the current version mutates and v0 is
			// dropped from retention (the job's pointer is the only survivor).
			cur := v0.Snapshot()
			appendRandomRows(cur, xrand.New(2), 30)
			close(b.release)

			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			st, err := s.Wait(ctx, pinned.ID)
			if err != nil {
				t.Fatal(err)
			}
			if st.State != JobDone {
				t.Fatalf("pinned job state = %s (%s)", st.State, st.Error)
			}
			want, err := New(0).Solve(ctx, v0, 4, AlgoTwoDRRM, Options{Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(st.Solution.IDs, want.IDs) || st.Solution.RankRegret != want.RankRegret {
				t.Fatalf("pinned job solved mutated data: %+v != %+v", st.Solution, want)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, tc.run)
	}
}

// TestRepairSpeedupCIWeather is the acceptance measurement: on the CI-scale
// simweather case, repairing the VecSet tier across a small append must beat
// rebuilding it cold by a wide margin (>= 10x without the race detector; the
// assertion relaxes under -race where instrumentation compresses ratios).
// The repaired lists are additionally spot-checked against the cold build.
func TestRepairSpeedupCIWeather(t *testing.T) {
	if testing.Short() {
		t.Skip("timing measurement")
	}
	ctx := context.Background()
	ho := algohd.DefaultOptions()
	const (
		n = 4000
		r = 10
		k = 32
	)
	base := dataset.SimWeather(xrand.New(1), n)
	m0 := ho.SampleSize(base.N(), base.Dim(), r)
	old := algohd.NewSharedVecSet(base, nil, ho.EffectiveGamma(), 1, nil)
	view, _, err := old.Acquire(ctx, m0)
	if err != nil {
		t.Fatal(err)
	}
	if err := view.EnsureTopKCtx(ctx, k); err != nil {
		t.Fatal(err)
	}

	v1 := base.Snapshot()
	appendRandomRows(v1, xrand.New(4), 16)
	deltas, ok := v1.Deltas(base.Version())
	if !ok {
		t.Fatal("history truncated")
	}
	m1 := ho.SampleSize(v1.N(), v1.Dim(), r)

	// Best of three for each side: scheduler jitter on a shared CI runner
	// can inflate the ~30ms repair interval far more than the ~500ms cold
	// build, and the floor below is a hard assertion.
	var repView, cold *algohd.VecSet
	repairT, coldT := time.Duration(1<<62), time.Duration(1<<62)
	for trial := 0; trial < 3; trial++ {
		start := time.Now()
		rep := algohd.NewRepairedVecSet(old, v1, deltas)
		view, outcome, err := rep.Acquire(ctx, m1)
		if err != nil {
			t.Fatal(err)
		}
		if err := view.EnsureTopKCtx(ctx, k); err != nil {
			t.Fatal(err)
		}
		if d := time.Since(start); d < repairT {
			repairT = d
		}
		if outcome != algohd.VecSetRepaired {
			t.Fatalf("outcome = %v, want repaired", outcome)
		}
		repView = view

		start = time.Now()
		c, err := algohd.BuildVecSetCtx(ctx, v1, nil, ho.EffectiveGamma(), m1, xrand.New(1))
		if err != nil {
			t.Fatal(err)
		}
		if err := c.EnsureTopKCtx(ctx, k); err != nil {
			t.Fatal(err)
		}
		if d := time.Since(start); d < coldT {
			coldT = d
		}
		cold = c
	}

	repTops, err := repView.TopsCtx(ctx, k)
	if err != nil {
		t.Fatal(err)
	}
	coldTops, err := cold.TopsCtx(ctx, k)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []int{0, 1, repView.Len() / 2, repView.Len() - 1} {
		if !reflect.DeepEqual(repTops[v][:k], coldTops[v][:k]) {
			t.Fatalf("vector %d: repaired and cold lists differ", v)
		}
	}

	ratio := float64(coldT) / float64(repairT)
	t.Logf("simweather ci-scale append repair: cold rebuild %v, incremental repair %v (%.1fx)", coldT, repairT, ratio)
	minRatio := 10.0
	if raceEnabled {
		minRatio = 3.0
	}
	if ratio < minRatio {
		t.Fatalf("repair speedup %.1fx below the %.0fx floor (cold %v, repair %v)", ratio, minRatio, coldT, repairT)
	}
}
