package algohd

import (
	"context"
	"reflect"
	"slices"
	"sort"
	"sync"
	"testing"

	"github.com/rankregret/rankregret/internal/dataset"
	"github.com/rankregret/rankregret/internal/funcspace"
	"github.com/rankregret/rankregret/internal/geom"
	"github.com/rankregret/rankregret/internal/skyline"
	"github.com/rankregret/rankregret/internal/xrand"
)

// mutateFn applies one scripted mutation to a snapshot. unpopular holds
// base-dataset row ids in descending order of id, least list-popular first
// within the scenario's picks; deleting in slice order keeps earlier
// deletions from shifting later targets.
type mutateFn func(t *testing.T, rng *xrand.Rand, ds *dataset.Dataset, unpopular []int)

func appendRows(count int) mutateFn {
	return func(t *testing.T, rng *xrand.Rand, ds *dataset.Dataset, unpopular []int) {
		t.Helper()
		row := make([]float64, ds.Dim())
		for i := 0; i < count; i++ {
			for j := range row {
				row[j] = rng.Float64()
			}
			ds.Append(row)
		}
	}
}

func deleteRows(ids ...int) mutateFn {
	return func(t *testing.T, rng *xrand.Rand, ds *dataset.Dataset, unpopular []int) {
		t.Helper()
		if err := ds.Delete(ids); err != nil {
			t.Fatal(err)
		}
	}
}

// deleteUnpopular deletes the rows at the given positions of the unpopular
// list — rows that appear in few (ideally zero) committed top-K lists, so
// the deletion stays under the repair churn threshold.
func deleteUnpopular(idx ...int) mutateFn {
	return func(t *testing.T, rng *xrand.Rand, ds *dataset.Dataset, unpopular []int) {
		t.Helper()
		ids := make([]int, len(idx))
		for i, p := range idx {
			ids[i] = unpopular[p]
		}
		if err := ds.Delete(ids); err != nil {
			t.Fatal(err)
		}
	}
}

// leastPopular returns count row ids of vs's dataset ordered by ascending
// membership count over the committed depth-k lists, then re-sorted by
// descending id so scenario deletions in slice order never shift later
// targets.
func leastPopular(tb testing.TB, vs *VecSet, n, k, count int) []int {
	occ := make([]int, n)
	for v := 0; v < vs.Len(); v++ {
		for _, id := range topOf(tb, vs, v, k) {
			occ[id]++
		}
	}
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i
	}
	sort.Slice(ids, func(a, b int) bool {
		if occ[ids[a]] != occ[ids[b]] {
			return occ[ids[a]] < occ[ids[b]]
		}
		return ids[a] < ids[b]
	})
	ids = ids[:count]
	sort.Sort(sort.Reverse(sort.IntSlice(ids)))
	return ids
}

// requireIdenticalTops asserts every vector's depth-k list matches between
// the two sets, exactly.
func requireIdenticalTops(t *testing.T, got, want *VecSet, k int) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("vector counts differ: %d vs %d", got.Len(), want.Len())
	}
	for v := 0; v < got.Len(); v++ {
		g, w := topOf(t, got, v, k), topOf(t, want, v, k)
		if !slices.Equal(g, w) {
			t.Fatalf("vector %d: repaired top-%d %v != cold %v", v, k, g, w)
		}
	}
}

// TestRepairedTopsBitIdentical is the core contract: after any repairable
// mutation sequence, the repaired set's top-K lists are exactly those of a
// cold build over the mutated dataset — same ids, same order, same
// tie-breaks — and the acquire outcome reports a repair.
func TestRepairedTopsBitIdentical(t *testing.T) {
	const (
		n     = 150
		d     = 3
		gamma = 3
		m     = 120
		k     = 7
	)
	scenarios := []struct {
		name    string
		mutate  []mutateFn
		repared bool // expected: materialized via repair (vs declined)
	}{
		{"append-few", []mutateFn{appendRows(5)}, true},
		{"append-burst", []mutateFn{appendRows(40)}, true},
		{"delete-few", []mutateFn{deleteUnpopular(0, 1, 2)}, true},
		{"delete-then-append", []mutateFn{deleteUnpopular(3, 4), appendRows(8)}, true},
		{"append-then-delete-appended", []mutateFn{appendRows(6), deleteRows(151, 154)}, true},
		{"mixed-many-steps", []mutateFn{appendRows(10), deleteUnpopular(5), appendRows(3), deleteUnpopular(6, 7)}, true},
	}
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			ctx := context.Background()
			base := dataset.Anticorrelated(xrand.New(9), n, d)
			old := NewSharedVecSet(base, nil, gamma, 42, nil)
			oldView, _, err := old.Acquire(ctx, m)
			if err != nil {
				t.Fatal(err)
			}
			// Commit lists on the source so there is something to repair.
			ensureTopK(t, oldView, k)
			unpopular := leastPopular(t, oldView, n, k, 8)

			cur := base
			rng := xrand.New(31)
			for _, mut := range sc.mutate {
				next := cur.Snapshot()
				mut(t, rng, next, unpopular)
				cur = next
			}
			deltas, ok := cur.Deltas(base.Version())
			if !ok {
				t.Fatal("delta history truncated")
			}

			rep := NewRepairedVecSet(old, cur, deltas)
			repView, outcome, err := rep.Acquire(ctx, m)
			if err != nil {
				t.Fatal(err)
			}
			if sc.repared && outcome != VecSetRepaired {
				t.Fatalf("outcome = %v, want repaired", outcome)
			}

			cold, err := BuildVecSetCtx(t.Context(), cur, nil, gamma, m, xrand.New(42))
			if err != nil {
				t.Fatal(err)
			}
			ensureTopK(t, cold, k)
			requireIdenticalTops(t, repView, cold, k)

			// Deepening and extending the repaired set must also agree with a
			// cold set at the deeper k / larger m (exercises the carried
			// skyband superset and the resynced sample stream).
			k2, m2 := 2*k, m+30
			repView2, _, err := rep.Acquire(ctx, m2)
			if err != nil {
				t.Fatal(err)
			}
			cold2, err := BuildVecSetCtx(t.Context(), cur, nil, gamma, m2, xrand.New(42))
			if err != nil {
				t.Fatal(err)
			}
			ensureTopK(t, cold2, k2)
			requireIdenticalTops(t, repView2, cold2, k2)

			// The source set is untouched: its lists still describe the old
			// dataset (version pinning relies on this).
			coldOld, err := BuildVecSetCtx(t.Context(), base, nil, gamma, m, xrand.New(42))
			if err != nil {
				t.Fatal(err)
			}
			ensureTopK(t, coldOld, k)
			requireIdenticalTops(t, oldView, coldOld, k)
		})
	}
}

// TestRepairDeclines checks every decline path falls back to a cold build
// with correct results: rewrite deltas, delete churn past the threshold, and
// append floods.
func TestRepairDeclines(t *testing.T) {
	const (
		n     = 120
		gamma = 3
		m     = 80
		k     = 5
	)
	ctx := context.Background()
	cases := []struct {
		name   string
		mutate mutateFn
	}{
		{"rewrite", func(t *testing.T, rng *xrand.Rand, ds *dataset.Dataset, _ []int) {
			ds.Shift([]float64{0.1, 0.1, 0.1})
		}},
		{"churn", func(t *testing.T, rng *xrand.Rand, ds *dataset.Dataset, _ []int) {
			// Delete half the dataset: far past the churn threshold.
			ids := make([]int, 0, n/2)
			for i := 0; i < n; i += 2 {
				ids = append(ids, i)
			}
			if err := ds.Delete(ids); err != nil {
				t.Fatal(err)
			}
		}},
		{"append-flood", appendRows(3 * n)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			base := dataset.Independent(xrand.New(5), n, 3)
			old := NewSharedVecSet(base, nil, gamma, 7, nil)
			oldView, _, err := old.Acquire(ctx, m)
			if err != nil {
				t.Fatal(err)
			}
			ensureTopK(t, oldView, k)

			cur := base.Snapshot()
			tc.mutate(t, xrand.New(1), cur, nil)
			deltas, ok := cur.Deltas(base.Version())
			if !ok {
				t.Fatal("history truncated")
			}
			rep := NewRepairedVecSet(old, cur, deltas)
			repView, outcome, err := rep.Acquire(ctx, m)
			if err != nil {
				t.Fatal(err)
			}
			if outcome != VecSetBuilt {
				t.Fatalf("outcome = %v, want cold-build fallback", outcome)
			}
			cold, err := BuildVecSetCtx(t.Context(), cur, nil, gamma, m, xrand.New(7))
			if err != nil {
				t.Fatal(err)
			}
			ensureTopK(t, cold, k)
			requireIdenticalTops(t, repView, cold, k)
		})
	}
}

// TestRepairChain materializes a chain of pending repairs — several
// mutations with no solve in between — and checks the final state equals a
// cold build, with each link resolved incrementally.
func TestRepairChain(t *testing.T) {
	const (
		gamma = 3
		m     = 100
		k     = 6
	)
	ctx := context.Background()
	v0 := dataset.Correlated(xrand.New(3), 130, 3)
	s0 := NewSharedVecSet(v0, nil, gamma, 11, nil)
	view0, _, err := s0.Acquire(ctx, m)
	if err != nil {
		t.Fatal(err)
	}
	ensureTopK(t, view0, k)

	rng := xrand.New(8)
	v1 := v0.Snapshot()
	appendRows(7)(t, rng, v1, nil)
	d01, _ := v1.Deltas(v0.Version())
	s1 := NewRepairedVecSet(s0, v1, d01) // never acquired: stays pending

	v2 := v1.Snapshot()
	deleteRows(131, 2)(t, rng, v2, nil)
	d12, _ := v2.Deltas(v1.Version())
	s2 := NewRepairedVecSet(s1, v2, d12)

	view2, outcome, err := s2.Acquire(ctx, m)
	if err != nil {
		t.Fatal(err)
	}
	if outcome != VecSetRepaired {
		t.Fatalf("chain outcome = %v, want repaired", outcome)
	}
	cold, err := BuildVecSetCtx(t.Context(), v2, nil, gamma, m, xrand.New(11))
	if err != nil {
		t.Fatal(err)
	}
	ensureTopK(t, cold, k)
	requireIdenticalTops(t, view2, cold, k)
}

// TestRepairHandsOverRNG checks the sample stream across a repair: the
// repaired set takes over its source's clean rng, which leaves the source
// to resync, and each set's next extension still draws exactly the samples
// of a fresh build over its own dataset. A second repair from the re-synced
// and extended source takes over its rng at the new end of the stream.
func TestRepairHandsOverRNG(t *testing.T) {
	const (
		gamma = 3
		seed  = 5
		m     = 80
		k     = 6
	)
	ctx := t.Context()
	base := dataset.Anticorrelated(xrand.New(12), 120, 3)
	old := NewSharedVecSet(base, nil, gamma, seed, nil)
	view, _, err := old.Acquire(ctx, m)
	if err != nil {
		t.Fatal(err)
	}
	ensureTopK(t, view, k)
	repair := func(src *SharedVecSet, mut mutateFn) (*SharedVecSet, *dataset.Dataset) {
		t.Helper()
		next := src.Dataset().Snapshot()
		mut(t, xrand.New(2), next, nil)
		deltas, ok := next.Deltas(src.Dataset().Version())
		if !ok {
			t.Fatal("delta history truncated")
		}
		rep := NewRepairedVecSet(src, next, deltas)
		if _, outcome, err := rep.Acquire(ctx, m); err != nil || outcome != VecSetRepaired {
			t.Fatalf("repair: outcome %v, err %v", outcome, err)
		}
		if rep.rngDirty || rep.rng == nil || !src.rngDirty || src.rng != nil {
			t.Fatalf("after the repair: repaired rng %v dirty %v, source rng %v dirty %v; want the repaired set to own the clean rng",
				rep.rng != nil, rep.rngDirty, src.rng != nil, src.rngDirty)
		}
		return rep, next
	}
	requireFresh := func(s *SharedVecSet, ds *dataset.Dataset, m int) {
		t.Helper()
		vs, outcome, err := s.Acquire(ctx, m)
		if err != nil || outcome != VecSetExtended {
			t.Fatalf("extension to m=%d: outcome %v, err %v", m, outcome, err)
		}
		want, err := BuildVecSetCtx(ctx, ds, nil, gamma, m, xrand.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		if !slices.EqualFunc(vs.Vecs, want.Vecs, slices.Equal) {
			t.Fatalf("extension to m=%d draws other samples than a fresh build", m)
		}
	}

	rep, repDS := repair(old, appendRows(5))
	requireFresh(rep, repDS, m+40)
	requireFresh(old, base, m+25)
	rep2, rep2DS := repair(old, appendRows(3))
	if rep2.samples != m+25 {
		t.Fatalf("second repair starts at %d samples, want %d", rep2.samples, m+25)
	}
	requireFresh(rep2, rep2DS, m+60)
}

// TestRepairRestrictedSpace repairs a set built over a restricted utility
// space and requires both the repair and (via a churn-forced decline) the
// cold-build fallback to keep discretizing that space, matching standalone
// builds exactly.
func TestRepairRestrictedSpace(t *testing.T) {
	const (
		gamma = 3
		m     = 80
		k     = 5
	)
	ctx := context.Background()
	space, err := funcspace.NewBall(geom.Vector{0.6, 0.5, 0.6}, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	base := dataset.Independent(xrand.New(14), 120, 3)
	for _, forceDecline := range []bool{false, true} {
		old := NewSharedVecSet(base, space, gamma, 5, nil)
		oldView, _, err := old.Acquire(ctx, m)
		if err != nil {
			t.Fatal(err)
		}
		ensureTopK(t, oldView, k)

		cur := base.Snapshot()
		if forceDecline {
			ids := make([]int, 0, 60)
			for i := 0; i < 120; i += 2 {
				ids = append(ids, i)
			}
			if err := cur.Delete(ids); err != nil {
				t.Fatal(err)
			}
		} else {
			appendRows(9)(t, xrand.New(3), cur, nil)
		}
		deltas, ok := cur.Deltas(base.Version())
		if !ok {
			t.Fatal("history truncated")
		}
		rep := NewRepairedVecSet(old, cur, deltas)
		view, outcome, err := rep.Acquire(ctx, m)
		if err != nil {
			t.Fatal(err)
		}
		if forceDecline && outcome != VecSetBuilt {
			t.Fatalf("churn flood outcome = %v, want built", outcome)
		}
		if !forceDecline && outcome != VecSetRepaired {
			t.Fatalf("append outcome = %v, want repaired", outcome)
		}
		cold, err := BuildVecSetCtx(t.Context(), cur, space, gamma, m, xrand.New(5))
		if err != nil {
			t.Fatal(err)
		}
		ensureTopK(t, cold, k)
		requireIdenticalTops(t, view, cold, k)
	}
}

// TestRepairParallelismIndependence repairs the same mutation at several
// worker counts and requires identical lists, mirroring the scoring passes'
// bit-identical parallelism contract.
func TestRepairParallelismIndependence(t *testing.T) {
	const (
		gamma = 3
		m     = 90
		k     = 6
	)
	ctx := context.Background()
	base := dataset.Anticorrelated(xrand.New(21), 140, 4)
	cur := base.Snapshot()
	rng := xrand.New(2)
	appendRows(12)(t, rng, cur, nil)
	deleteRows(9, 50)(t, rng, cur, nil)
	deltas, _ := cur.Deltas(base.Version())

	var want *VecSet
	for _, par := range []int{1, 4, 16} {
		old := NewSharedVecSet(base, nil, gamma, 13, nil)
		oldView, _, err := old.Acquire(ctx, m)
		if err != nil {
			t.Fatal(err)
		}
		oldView.SetParallelism(par)
		ensureTopK(t, oldView, k)
		rep := NewRepairedVecSet(old, cur, deltas)
		view, outcome, err := rep.Acquire(ctx, m)
		if err != nil {
			t.Fatal(err)
		}
		if outcome != VecSetRepaired {
			t.Fatalf("par=%d outcome = %v, want repaired", par, outcome)
		}
		if want == nil {
			want = view
			continue
		}
		requireIdenticalTops(t, view, want, k)
	}
}

// bandOf returns the source set's cached skyband ids (nil when it has none).
func bandOf(s *SharedVecSet) []int {
	s.tc.buildMu.Lock()
	defer s.tc.buildMu.Unlock()
	return slices.Clone(s.tc.skyIDs)
}

// bandBeaters counts the rows of band that always-beat row, were it
// appended as row id.
func bandBeaters(ds *dataset.Dataset, band []int, row []float64, id int) int {
	c := 0
	for _, b := range band {
		if skyline.AlwaysBeats(ds.Row(b), row, b, id) {
			c++
		}
	}
	return c
}

// appendCopies appends a copy of each listed row, every value lowered by up
// to 1% of the unit range (clamped at 0) when lower is set, else exact.
func appendCopies(ds *dataset.Dataset, rng *xrand.Rand, ids []int, lower bool) {
	for _, id := range ids {
		row := slices.Clone(ds.Row(id))
		if lower {
			for j := range row {
				row[j] = max(row[j]-0.01*rng.Float64(), 0)
			}
		}
		ds.Append(row)
	}
}

// interiorRows picks count distinct rows outside band: each has at least
// depth always-beaters inside it, and so does any copy no larger on every
// attribute appended after it.
func interiorRows(rng *xrand.Rand, ds *dataset.Dataset, band []int, count int) []int {
	var out []int
	for _, i := range rng.Perm(ds.N()) {
		if len(out) == count {
			break
		}
		if _, in := slices.BinarySearch(band, i); !in {
			out = append(out, i)
		}
	}
	return out
}

// simplexRows returns n rows on the plane x+y+z = 1: no two are comparable,
// so every row is in every skyband and the cache abandons pruning.
func simplexRows(n int) *dataset.Dataset {
	rng := xrand.New(6)
	ds := dataset.New(3)
	for range n {
		a, b := rng.Float64(), rng.Float64()
		if a+b > 1 {
			a, b = 1-a, 1-b
		}
		ds.Append([]float64{a, b, 1 - a - b})
	}
	return ds
}

// TestRepairEntrantFilterBitIdentical repairs across appends the entrant
// filter prunes in different ways and requires every repaired list, and the
// HDRRM answer at several budgets, to equal a cold build's on the mutated
// data. Where the case expects no row to get through the filter, the
// repaired cache must share its source's lists and basis index.
func TestRepairEntrantFilterBitIdentical(t *testing.T) {
	const (
		gamma = 3
		m     = 120
		seed  = 42
	)
	ctx := t.Context()
	indep := func() *dataset.Dataset { return dataset.Independent(xrand.New(3), 150, 3) }
	ball, err := funcspace.NewBall(geom.Vector{0.6, 0.5, 0.6}, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	jitterInterior := func(t *testing.T, src *SharedVecSet, ds *dataset.Dataset) {
		rng := xrand.New(9)
		appendCopies(ds, rng, interiorRows(rng, ds, bandOf(src), 8), true)
	}
	cases := []struct {
		name  string
		base  func() *dataset.Dataset
		space funcspace.Space
		depth int  // the source's list depth, committed by an HDRRR pass
		chain bool // the source is itself repaired across a random append
		// mutate edits the snapshot of the source's dataset.
		mutate   func(t *testing.T, src *SharedVecSet, ds *dataset.Dataset)
		shortcut bool // no row gets through: lists and basis index shared
	}{
		{"jittered-interior", indep, nil, 8, false, jitterInterior, true},
		{"duplicate-of-unbeaten", indep, nil, 2, false, func(t *testing.T, src *SharedVecSet, ds *dataset.Dataset) {
			// The first maximum of an attribute: nothing beats it, so its
			// copy has one beater and survives at depth 2.
			appendCopies(ds, nil, ds.Basis()[:1], false)
		}, false},
		{"duplicate-of-once-beaten", indep, nil, 2, false, func(t *testing.T, src *SharedVecSet, ds *dataset.Dataset) {
			// A band row whose copy has exactly depth band beaters: the
			// filter must drop it.
			band := bandOf(src)
			for _, id := range band {
				if bandBeaters(ds, band, ds.Row(id), ds.N()) == 2 {
					appendCopies(ds, nil, []int{id}, false)
					return
				}
			}
			t.Fatal("no band row whose copy has exactly 2 band beaters")
		}, true},
		{"dominate-front", indep, nil, 8, false, func(t *testing.T, src *SharedVecSet, ds *dataset.Dataset) {
			top := make([]float64, ds.Dim())
			for i := range ds.N() {
				for j, v := range ds.Row(i) {
					top[j] = max(top[j], v)
				}
			}
			for i := range 3 {
				row := slices.Clone(top)
				for j := range row {
					row[j] += 0.01 * float64(i+1)
				}
				ds.Append(row)
			}
		}, false},
		{"tied-with-lower-id", indep, nil, 8, false, func(t *testing.T, src *SharedVecSet, ds *dataset.Dataset) {
			band := bandOf(src)
			appendCopies(ds, nil, []int{band[0], band[len(band)/2], band[len(band)-1]}, false)
		}, false},
		{"append-and-delete", indep, nil, 8, false, func(t *testing.T, src *SharedVecSet, ds *dataset.Dataset) {
			jitterInterior(t, src, ds)
			vs, _, err := src.Acquire(t.Context(), m)
			if err != nil {
				t.Fatal(err)
			}
			if err := ds.Delete(leastPopular(t, vs, src.Dataset().N(), 8, 3)); err != nil {
				t.Fatal(err)
			}
		}, false},
		{"chain", indep, nil, 8, true, jitterInterior, true},
		{"cancelled-deepening", indep, nil, 8, false, func(t *testing.T, src *SharedVecSet, ds *dataset.Dataset) {
			// A deepening cancelled before its first tile leaves the band
			// at depth 32 over depth-8 lists. Copies of band rows with 8
			// to 31 band beaters cannot enter a list, but belong in the
			// extended band.
			vs, _, err := src.Acquire(t.Context(), m)
			if err != nil {
				t.Fatal(err)
			}
			cancelled, cancel := context.WithCancel(t.Context())
			cancel()
			if vs.EnsureTopKCtx(cancelled, 32) == nil {
				t.Fatal("a cancelled deepening succeeded")
			}
			band := bandOf(src)
			var ids []int
			for _, id := range band {
				if b := bandBeaters(ds, band, ds.Row(id), ds.N()); b >= 8 && b < 32 && len(ids) < 4 {
					ids = append(ids, id)
				}
			}
			if len(ids) == 0 {
				t.Fatal("no band row whose copy has 8 to 31 band beaters")
			}
			appendCopies(ds, nil, ids, false)
		}, false},
		{"abandoned-band", func() *dataset.Dataset { return simplexRows(150) }, nil, 8, false, jitterInterior, false},
		{"depth-at-n", func() *dataset.Dataset { return dataset.Independent(xrand.New(3), 12, 3) }, nil, 12, false, func(t *testing.T, src *SharedVecSet, ds *dataset.Dataset) {
			appendCopies(ds, xrand.New(9), []int{3, 7}, true)
		}, false},
		{"restricted-space", indep, ball, 8, false, jitterInterior, true},
	}
	o := DefaultOptions()
	o.Gamma, o.Seed = gamma, seed
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			base := c.base()
			src := NewSharedVecSet(base, c.space, gamma, seed, nil)
			commit := func(s *SharedVecSet, ds *dataset.Dataset) {
				t.Helper()
				vs, _, err := s.Acquire(ctx, m)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := HDRRRWithVecSetCtx(ctx, ds, c.depth, o, vs); err != nil {
					t.Fatal(err)
				}
			}
			commit(src, base)
			if c.chain {
				next := base.Snapshot()
				appendRows(6)(t, xrand.New(5), next, nil)
				deltas, _ := next.Deltas(base.Version())
				bandBefore := bandOf(src)
				src = NewRepairedVecSet(src, next, deltas)
				commit(src, next)
				if len(bandOf(src)) <= len(bandBefore) {
					t.Fatalf("the chained source's band did not grow: %d rows, %d before", len(bandOf(src)), len(bandBefore))
				}
				base = next
			}
			switch c.name {
			case "abandoned-band":
				if !src.tc.skyAbandoned {
					t.Fatal("the source did not abandon its skyband")
				}
			case "depth-at-n":
				if src.tc.skySub != nil {
					t.Fatal("the source has a skyband at depth n")
				}
			}

			cur := base.Snapshot()
			c.mutate(t, src, cur)
			deltas, ok := cur.Deltas(base.Version())
			if !ok {
				t.Fatal("delta history truncated")
			}
			rep := NewRepairedVecSet(src, cur, deltas)
			repView, outcome, err := rep.Acquire(ctx, m)
			if err != nil || outcome != VecSetRepaired {
				t.Fatalf("repair: outcome %v, err %v", outcome, err)
			}
			// Read before the solves below can deepen either cache.
			shared := &rep.tc.tops[0] == &src.tc.tops[0]
			carried := rep.tc.basis.Load() != nil && rep.tc.basis.Load() == src.tc.basis.Load()

			cold, err := BuildVecSetCtx(ctx, cur, c.space, gamma, m, xrand.New(seed))
			if err != nil {
				t.Fatal(err)
			}
			depth := rep.tc.topK
			ensureTopK(t, cold, depth)
			requireIdenticalTops(t, repView, cold, depth)
			if carried {
				requireExactIndex(t, rep.tc.basis.Load(), cur, uniqueInts(cur.Basis()), cold)
			}
			for _, r := range []int{4, 6, 9} {
				got, err := HDRRMWithVecSetCtx(ctx, cur, r, o, repView)
				if err != nil {
					t.Fatal(err)
				}
				want, err := HDRRMWithVecSetCtx(ctx, cur, r, o, cold)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("HDRRM r=%d: repaired %+v, cold %+v", r, got, want)
				}
			}
			// Deepening prunes with the band the repair extended.
			ensureTopK(t, repView, 4*depth)
			ensureTopK(t, cold, 4*depth)
			requireIdenticalTops(t, repView, cold, 4*depth)
			if shared != c.shortcut || carried != c.shortcut {
				t.Fatalf("lists shared with the source: %v, basis index carried: %v; want %v", shared, carried, c.shortcut)
			}
		})
	}
}

// TestRepairShortcutConcurrentExtend extends and deepens a source set and
// the set repaired from it without a list changing, at the same time: the
// two caches share the source's committed lists, skyband, and basis index,
// so under -race this catches any write into what they share (an outer
// list slice without a capped capacity, say). Each must still match a cold
// build over its own dataset.
func TestRepairShortcutConcurrentExtend(t *testing.T) {
	const (
		gamma = 3
		m     = 120
		seed  = 42
		depth = 8
	)
	ctx := t.Context()
	o := DefaultOptions()
	o.Gamma, o.Seed = gamma, seed
	base := dataset.Independent(xrand.New(3), 150, 3)
	src := NewSharedVecSet(base, nil, gamma, seed, nil)
	vs, _, err := src.Acquire(ctx, m)
	if err != nil {
		t.Fatal(err)
	}
	// Staged to depth as a solve is, so the deepening's seeded pass leaves
	// grid cells for the repair to copy.
	ensureTopK(t, vs, minBuildDepth)
	if _, err := HDRRRWithVecSetCtx(ctx, base, depth, o, vs); err != nil {
		t.Fatal(err)
	}
	next := base.Snapshot()
	rng := xrand.New(9)
	appendCopies(next, rng, interiorRows(rng, next, bandOf(src), 8), true)
	deltas, _ := next.Deltas(base.Version())
	rep := NewRepairedVecSet(src, next, deltas)
	if _, outcome, err := rep.Acquire(ctx, m); err != nil || outcome != VecSetRepaired {
		t.Fatalf("repair: outcome %v, err %v", outcome, err)
	}
	if &rep.tc.tops[0] != &src.tc.tops[0] {
		t.Fatal("the repair did not share the source's lists")
	}

	sets := []struct {
		s  *SharedVecSet
		ds *dataset.Dataset
		m  int
	}{{src, base, m + 60}, {rep, next, m + 90}}
	got := make([]*VecSet, len(sets))
	var wg sync.WaitGroup
	for i, c := range sets {
		wg.Add(1)
		go func() {
			defer wg.Done()
			vs, _, err := c.s.Acquire(ctx, c.m)
			if err == nil {
				err = vs.EnsureTopKCtx(ctx, 4*depth)
			}
			if err == nil {
				_, err = HDRRMWithVecSetCtx(ctx, c.ds, 6, o, vs)
			}
			if err != nil {
				t.Error(err)
			}
			got[i] = vs
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	for i, c := range sets {
		cold, err := BuildVecSetCtx(ctx, c.ds, nil, gamma, c.m, xrand.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		ensureTopK(t, cold, 4*depth)
		requireIdenticalTops(t, got[i], cold, 4*depth)
	}
}
