package engine

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"github.com/rankregret/rankregret/internal/algohd"
	"github.com/rankregret/rankregret/internal/dataset"
	"github.com/rankregret/rankregret/internal/obs"
	"github.com/rankregret/rankregret/internal/xrand"
)

// TestVecSetCacheConcurrentStress is the tier's -race stress test: 32
// goroutines issue a mix of direct solves and scheduler batches over two
// shared datasets and a spread of budgets. With a fixed sample count every
// solve on one dataset maps to one VecSet key, so the build coalescing must
// produce exactly one build per dataset, zero extensions, and identical
// solutions everywhere.
func TestVecSetCacheConcurrentStress(t *testing.T) {
	e := New(0)
	sched := NewScheduler(e, 8, 64)
	defer sched.Close()

	datasets := []*dataset.Dataset{
		dataset.Independent(xrand.New(1), 120, 3),
		dataset.Anticorrelated(xrand.New(2), 130, 4),
	}
	opts := Options{Seed: 5, Samples: 300, Gamma: 3}
	rs := []int{4, 5, 6, 7}

	var results sync.Map // "dsIdx|r" -> *Solution (first writer wins)
	check := func(dsIdx, r int, sol *Solution) error {
		key := fmt.Sprintf("%d|%d", dsIdx, r)
		prev, loaded := results.LoadOrStore(key, sol)
		if loaded && !reflect.DeepEqual(prev.(*Solution), sol) {
			return fmt.Errorf("solve %s returned a different solution across goroutines", key)
		}
		return nil
	}

	const workers = 32
	errc := make(chan error, workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			dsIdx := w % len(datasets)
			ds := datasets[dsIdx]
			if w%2 == 0 {
				// Direct single solves, sweeping r.
				for _, r := range rs {
					sol, err := e.Solve(context.Background(), ds, r, "hdrrm", opts)
					if err != nil {
						errc <- err
						return
					}
					if err := check(dsIdx, r, sol); err != nil {
						errc <- err
						return
					}
				}
				errc <- nil
				return
			}
			// One batch through the scheduler covering the same sweep.
			reqs := make([]Request, len(rs))
			for i, r := range rs {
				reqs[i] = Request{Dataset: ds, Mode: ModeRRM, RK: r, Algorithm: "hdrrm", Opts: opts}
			}
			statuses := sched.BatchPartial(context.Background(), reqs)
			for i, st := range statuses {
				if st.State != JobDone {
					errc <- fmt.Errorf("batch job %s state %s: %s", st.ID, st.State, st.Error)
					return
				}
				if err := check(dsIdx, rs[i], st.Solution); err != nil {
					errc <- err
					return
				}
			}
			errc <- nil
		}(w)
	}
	for w := 0; w < workers; w++ {
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}

	st := e.VecSetStats()
	if st.Builds != uint64(len(datasets)) {
		t.Errorf("vecset builds = %d, want exactly %d (one per dataset key)", st.Builds, len(datasets))
	}
	if st.Extensions != 0 {
		t.Errorf("vecset extensions = %d, want 0 (fixed sample count)", st.Extensions)
	}
	if st.Len != len(datasets) {
		t.Errorf("vecset cache len = %d, want %d", st.Len, len(datasets))
	}
}

// TestVecSetCacheKeying checks the tier's key: solves differing only in r
// or k share an entry, while dataset, space, gamma, or seed changes build
// new ones.
func TestVecSetCacheKeying(t *testing.T) {
	e := New(0)
	ds := dataset.Independent(xrand.New(3), 100, 3)
	base := Options{Seed: 2, Samples: 200, Gamma: 3}
	ctx := context.Background()

	solve := func(r int, opts Options) {
		t.Helper()
		if _, err := e.Solve(ctx, ds, r, "hdrrm", opts); err != nil {
			t.Fatal(err)
		}
	}
	solve(4, base)
	if st := e.VecSetStats(); st.Builds != 1 {
		t.Fatalf("builds after first solve = %d, want 1", st.Builds)
	}
	solve(5, base) // r sweep: same key
	solve(6, base)
	if _, err := e.SolveRRR(ctx, ds, 8, "hdrrm", base); err != nil { // dual: same key
		t.Fatal(err)
	}
	if st := e.VecSetStats(); st.Builds != 1 || st.Reuses != 3 {
		t.Fatalf("stats after sweep = %+v, want 1 build / 3 reuses", st)
	}

	diffSeed := base
	diffSeed.Seed = 9
	solve(4, diffSeed)
	diffGamma := base
	diffGamma.Gamma = 4
	solve(4, diffGamma)
	if st := e.VecSetStats(); st.Builds != 3 {
		t.Fatalf("builds after seed+gamma changes = %d, want 3", st.Builds)
	}

	// Growing m on the same key extends rather than rebuilds.
	bigger := base
	bigger.Samples = 400
	solve(4, bigger)
	if st := e.VecSetStats(); st.Builds != 3 || st.Extensions != 1 {
		t.Fatalf("stats after larger m = %+v, want 3 builds / 1 extension", st)
	}
}

// TestVecSetCacheEviction checks LRU bounds: the tier never holds more than
// its capacity and rebuilds evicted entries on demand.
func TestVecSetCacheEviction(t *testing.T) {
	c := NewVecSetCache(2)
	ctx := context.Background()
	var sets []*dataset.Dataset
	for i := 0; i < 3; i++ {
		sets = append(sets, dataset.Independent(xrand.New(int64(10+i)), 60, 3))
	}
	opts := Options{Seed: 1, Samples: 100, Gamma: 3}
	for _, ds := range sets {
		if _, err := c.Acquire(ctx, ds, opts, 100); err != nil {
			t.Fatal(err)
		}
	}
	st := c.Stats()
	if st.Builds != 3 || st.Len != 2 {
		t.Fatalf("stats after 3 distinct acquires at cap 2 = %+v", st)
	}
	// The first dataset was evicted: acquiring it again rebuilds.
	if _, err := c.Acquire(ctx, sets[0], opts, 100); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Builds != 4 || st.Len != 2 {
		t.Fatalf("stats after re-acquiring evicted entry = %+v, want 4 builds at len 2", st)
	}
}

// TestSamplerBypassesVecSetTier: sampler-backed solves have no cacheable
// identity and must not touch the tier.
func TestSamplerBypassesVecSetTier(t *testing.T) {
	e := New(0)
	ds := dataset.Independent(xrand.New(4), 80, 3)
	sampler, err := algohd.GaussianPreference([]float64{1, 1, 1}, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Seed: 1, Samples: 150, Gamma: 3, Sampler: sampler}
	if _, err := e.Solve(context.Background(), ds, 4, "hdrrm", opts); err != nil {
		t.Fatal(err)
	}
	if st := e.VecSetStats(); st.Builds != 0 || st.Len != 0 {
		t.Errorf("sampler-backed solve touched the VecSet tier: %+v", st)
	}
}

// TestVecSetCacheRepairsFromLRUSource: when a full tier's least recently
// used entry is the previous version of the dataset being solved, the new
// version still repairs from it; the entry is evicted only after the
// repair source has been taken.
func TestVecSetCacheRepairsFromLRUSource(t *testing.T) {
	c := NewVecSetCache(2)
	ctx := context.Background()
	opts := Options{Seed: 1, Samples: 100, Gamma: 3}
	v0 := dataset.Independent(xrand.New(20), 80, 3)
	other := dataset.Independent(xrand.New(21), 80, 3)
	for _, ds := range []*dataset.Dataset{v0, other} {
		if _, err := c.Acquire(ctx, ds, opts, 100); err != nil {
			t.Fatal(err)
		}
	}
	v1 := v0.Snapshot()
	appendRandomRows(v1, xrand.New(22), 3)
	if _, err := c.Acquire(ctx, v1, opts, 100); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Builds != 2 || st.Repairs != 1 || st.Len != 2 {
		t.Fatalf("stats after solving v1 with v0 least recently used = %+v, want 2 builds / 1 repair at len 2", st)
	}
}

// TestTraceAnnotatesVecSetOutcome checks that a traced solve records what
// the VecSet tier did: a solve after an append carries vecset=repaired, and
// 2D solves carry the plan slot's outcome.
func TestTraceAnnotatesVecSetOutcome(t *testing.T) {
	e := New(0)
	opts := Options{Seed: 1, Samples: 200, Gamma: 3}
	traced := func(ds *dataset.Dataset, r int, algo string) *obs.Trace {
		t.Helper()
		tr := obs.NewTrace("t")
		if _, err := e.Solve(obs.WithTrace(t.Context(), tr), ds, r, algo, opts); err != nil {
			t.Fatal(err)
		}
		return tr
	}
	base := dataset.Independent(xrand.New(4), 120, 3)
	if got := traced(base, 5, AlgoHDRRM).Annotation("vecset"); got != "built" {
		t.Fatalf("cold solve: vecset=%q, want built", got)
	}
	next := base.Snapshot()
	appendRandomRows(next, xrand.New(5), 4)
	if got := traced(next, 5, AlgoHDRRM).Annotation("vecset"); got != "repaired" {
		t.Fatalf("solve after an append: vecset=%q, want repaired", got)
	}
	flat := dataset.Independent(xrand.New(6), 120, 2)
	if got := traced(flat, 5, AlgoTwoDRRM).Annotation("plan"); got != "built" {
		t.Fatalf("2D solve: plan=%q, want built", got)
	}
	if got := traced(flat, 6, AlgoTwoDRRM).Annotation("plan"); got != "reused" {
		t.Fatalf("2D solve at another budget: plan=%q, want reused", got)
	}
}
