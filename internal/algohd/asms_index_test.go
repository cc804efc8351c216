package algohd

import (
	"context"
	"fmt"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"github.com/rankregret/rankregret/internal/dataset"
	"github.com/rankregret/rankregret/internal/ksearch"
	"github.com/rankregret/rankregret/internal/setcover"
	"github.com/rankregret/rankregret/internal/xrand"
)

// naiveCoverSets builds ASMS's set system at threshold k with maps, one
// append per (vector, tuple) pair: the universe is the vectors whose top-k
// list misses the basis, and each candidate tuple (ascending id) covers the
// universe elements whose list holds it.
func naiveCoverSets(tops [][]int, nv, k int, basis []int) (universe int, ids []int, sets [][]int) {
	inBasis := map[int]bool{}
	for _, b := range basis {
		inBasis[b] = true
	}
	coverOf := map[int][]int{}
	for v := 0; v < nv; v++ {
		top := tops[v][:min(k, len(tops[v]))]
		if slices.ContainsFunc(top, func(t int) bool { return inBasis[t] }) {
			continue
		}
		for _, t := range top {
			coverOf[t] = append(coverOf[t], universe)
		}
		universe++
	}
	for t := range coverOf {
		ids = append(ids, t)
	}
	sort.Ints(ids)
	for _, t := range ids {
		sets = append(sets, coverOf[t])
	}
	return universe, ids, sets
}

// requireNaiveSets checks the set system x holds after a probe at k against
// naiveCoverSets over the same lists.
func requireNaiveSets(t *testing.T, x *asmsIndex, tops [][]int, k int) {
	t.Helper()
	universe, ids, sets := naiveCoverSets(tops, x.nv, min(k, x.n), x.basis)
	if len(x.rows) != universe || x.cover.universe != universe {
		t.Fatalf("k=%d: universe %d (rows %d), want %d", k, x.cover.universe, len(x.rows), universe)
	}
	if !slices.Equal(x.cover.touched, ids) {
		t.Fatalf("k=%d: candidate tuples %v, want %v", k, x.cover.touched, ids)
	}
	if !slices.EqualFunc(x.cover.sets, sets, equalInt32s) {
		t.Fatalf("k=%d: cover sets %v, want %v", k, x.cover.sets, sets)
	}
}

// equalInt32s reports whether a flat int32 cover set lists the same
// elements, in the same order, as a naive int set.
func equalInt32s(a []int32, b []int) bool {
	return slices.EqualFunc(a, b, func(x int32, y int) bool { return int(x) == y })
}

// TestASMSIndexMatchesFreshProbes runs one search-scoped cover index through
// a sequence of thresholds and checks every probe against a fresh ASMSCtx on
// an identically built twin vector set, and the index's cover sets against
// the naive map construction.
func TestASMSIndexMatchesFreshProbes(t *testing.T) {
	sequences := []struct {
		name string
		ks   []int
		// deepen is the index of a probe that must find the top-K cache
		// shallower than its k, forcing a deepening mid-search.
		deepen int
	}{
		{"ascending", []int{1, 2, 4, 8, 16, 12, 10, 11}, -1},
		{"descending", []int{16, 8, 4, 2, 1}, -1},
		{"repeated", []int{3, 3, 5, 5, 3, 3}, -1},
		{"past cache depth", []int{1, 2, 40, 3}, 2},
	}
	sets := []struct {
		name    string
		noBasis bool
		noGrid  bool
	}{
		{"full", false, false},
		{"no-basis", true, false},
		{"no-grid", false, true},
	}
	for d := 3; d <= 5; d++ {
		ds := dataset.Anticorrelated(xrand.New(int64(40+d)), 150, d)
		for _, vc := range sets {
			var basis []int
			if !vc.noBasis {
				basis = uniqueInts(ds.Basis())
			}
			build := func() *VecSet {
				vs, err := BuildVecSetCtx(t.Context(), ds, nil, 3, 120, xrand.New(int64(d)))
				if err != nil {
					t.Fatal(err)
				}
				if vc.noGrid {
					vs = newVecSet(ds, vs.Vecs[vs.GridCount:], 0, 0)
				}
				return vs
			}
			for _, seq := range sequences {
				t.Run(fmt.Sprintf("d=%d/%s/%s", d, vc.name, seq.name), func(t *testing.T) {
					vs, twin := build(), build()
					x := newASMSIndex(ds.N(), vs.Len(), vs.TopsCtx, basis)
					for i, k := range seq.ks {
						if i == seq.deepen && vs.tc.topK >= k {
							t.Fatalf("probe %d (k=%d): cache already at depth %d", i, k, vs.tc.topK)
						}
						got, err := x.probe(t.Context(), k)
						if err != nil {
							t.Fatal(err)
						}
						want := asms(t, ds, k, basis, twin)
						if !slices.Equal(got, want) {
							t.Fatalf("probe %d (k=%d): index gives %v, fresh ASMS %v", i, k, got, want)
						}
						requireNaiveSets(t, x, twin.tc.tops, k)
					}
				})
			}
		}
	}
}

// TestCoverNotCoverable feeds the cover builders universes a tuple cannot
// cover, an empty top list and an empty k-set, and expects an error rather
// than a panic.
func TestCoverNotCoverable(t *testing.T) {
	tops := [][]int{{0, 1}, {}, {2, 1}}
	x := newASMSIndex(3, len(tops), func(context.Context, int) ([][]int, error) { return tops, nil }, []int{0})
	if q, err := x.probe(t.Context(), 2); err == nil || !strings.Contains(err.Error(), "not coverable") {
		t.Errorf("ASMS over an empty top list: got %v, %v; want a not-coverable error", q, err)
	}
	_, err := kSetSearch(t.Context(), 3, 2, func(int) ([][]int, error) { return [][]int{{1, 2}, {}}, nil })
	if err == nil || !strings.Contains(err.Error(), "not coverable") {
		t.Errorf("hitting set over an empty k-set: got %v; want a not-coverable error", err)
	}
}

// TestDropRowsClearsEveryList builds k = 3, whose universe is larger than
// the next build's at k = 5, then deepens past both, and requires that no
// row slot still holds a top list once the rows are dropped: pooled scratch
// must not keep lists alive that a deepening replaced.
func TestDropRowsClearsEveryList(t *testing.T) {
	ds := dataset.Anticorrelated(xrand.New(7), 150, 4)
	vs, err := BuildVecSetCtx(t.Context(), ds, nil, 3, 120, xrand.New(7))
	if err != nil {
		t.Fatal(err)
	}
	x := newASMSIndex(ds.N(), vs.Len(), vs.TopsCtx, uniqueInts(ds.Basis()))
	for _, k := range []int{8, 3, 5, 40} {
		if err := x.build(t.Context(), k); err != nil {
			t.Fatal(err)
		}
	}
	if len(x.rows) == 0 {
		t.Fatal("no open vectors: the test exercises nothing")
	}
	x.dropRows()
	for i, row := range x.rows[:cap(x.rows)] {
		if row != nil {
			t.Fatalf("row slot %d still holds a list of %d ids", i, len(row))
		}
	}
}

// TestCoverSetsInt32Overflow hands the cover build a set system with 2^31
// entries (one list shared by every row, so the test holds 8 MiB) and
// expects an error before any count is taken.
func TestCoverSetsInt32Overflow(t *testing.T) {
	rows := make([][]int, 1<<11)
	list := make([]int, 1<<20)
	for i := range rows {
		rows[i] = list
	}
	var cs coverSets
	if err := cs.build(1, rows); err == nil || !strings.Contains(err.Error(), "overflows int32") {
		t.Fatalf("build over %d entries: got %v, want an int32 overflow error", len(rows)*len(list), err)
	}
	if cs.count != nil {
		t.Fatalf("the refused build allocated counts")
	}
}

// FuzzCoverSets checks the flat cover sets of an ASMS index against the
// naive map construction on random top lists. Each vector's list takes
// depth bytes of data as distinct tuple ids mod n; basisBits picks the
// basis (bit 15 stands for tuple n-1). The index first probes another
// threshold, so the checked probe reuses its scratch and basis positions,
// and its lists are served at exactly the depth asked for, as a deepening
// cache would. Greedy must pick the same sets from both systems.
func FuzzCoverSets(f *testing.F) {
	f.Add(uint8(10), uint8(3), uint8(2), uint8(5), uint16(0b11), []byte{0, 9, 4, 0, 9, 4, 1, 2, 3, 9, 8, 7})
	f.Add(uint8(5), uint8(5), uint8(5), uint8(1), uint16(0), []byte{4, 3, 2, 1, 0, 0, 1, 2, 3, 4})
	f.Add(uint8(30), uint8(4), uint8(3), uint8(2), uint16(1<<15|1), []byte("shared ids across the top lists"))
	f.Fuzz(func(t *testing.T, n, depth, k, k0 uint8, basisBits uint16, data []byte) {
		nt := 1 + int(n)%40
		dep := 1 + int(depth)%min(nt, 8)
		nv := min(len(data)/dep, 64)
		lists := make([][]int, nv)
		for v := range lists {
			used := make([]bool, nt)
			for _, b := range data[v*dep : (v+1)*dep] {
				id := int(b) % nt
				for used[id] {
					id = (id + 1) % nt
				}
				used[id] = true
				lists[v] = append(lists[v], id)
			}
		}
		var basis []int
		for i := 0; i < 16; i++ {
			if basisBits&(1<<i) != 0 {
				if i == 15 {
					basis = append(basis, nt-1)
				} else if i < nt {
					basis = append(basis, i)
				}
			}
		}
		basis = uniqueInts(basis)
		atDepth := func(_ context.Context, k int) ([][]int, error) {
			out := make([][]int, nv)
			for v, l := range lists {
				out[v] = l[:min(k, len(l))]
			}
			return out, nil
		}
		x := newASMSIndex(nt, nv, atDepth, basis)
		kk := 1 + int(k)%dep
		for _, probe := range []int{1 + int(k0)%dep, kk} {
			if err := x.build(t.Context(), probe); err != nil {
				t.Fatal(err)
			}
		}
		requireNaiveSets(t, x, lists, kk)
		universe, ids, sets := naiveCoverSets(lists, nv, kk, basis)
		want, wantOK := setcover.Greedy(universe, sets)
		got, gotOK, _ := setcover.GreedyCtx(t.Context(), x.cover.universe, x.cover.sets)
		if !slices.Equal(got, want) || gotOK != wantOK || !wantOK {
			t.Fatalf("greedy over the index picks %v (%v), over the naive sets %v (%v)", got, gotOK, want, wantOK)
		}
		q, err := x.probe(t.Context(), kk)
		if err != nil {
			t.Fatal(err)
		}
		wantQ := append([]int(nil), basis...)
		for _, ci := range want {
			wantQ = append(wantQ, ids[ci])
		}
		if wantQ = uniqueInts(wantQ); !slices.Equal(q, wantQ) {
			t.Fatalf("probe gives %v, want %v", q, wantQ)
		}
	})
}

// privateHDRRM is HDRRMWithVecSetCtx's search with the given basis over a
// fresh private index, which neither reads nor publishes vs's cache index.
func privateHDRRM(t *testing.T, ds *dataset.Dataset, r int, basis []int, vs *VecSet) Result {
	t.Helper()
	x := newASMSIndex(ds.N(), vs.Len(), vs.TopsCtx, basis)
	ids, k, err := ksearch.Smallest(ds.N(), func(k int) ([]int, bool, error) {
		q, err := x.probe(t.Context(), k)
		return q, len(q) <= r, err
	})
	x.release()
	if err != nil {
		t.Fatal(err)
	}
	return Result{IDs: ids, K: k, VecCount: vs.Len()}
}

// privateASMS is one ASMS pass at k over a fresh private index.
func privateASMS(t *testing.T, ds *dataset.Dataset, k int, basis []int, vs *VecSet) []int {
	t.Helper()
	x := newASMSIndex(ds.N(), vs.Len(), vs.TopsCtx, basis)
	q, err := x.probe(t.Context(), k)
	x.release()
	if err != nil {
		t.Fatal(err)
	}
	return q
}

// requireExactIndex checks a published basis index against a fresh scan
// of the same vectors to the same depth over another set's lists.
func requireExactIndex(t *testing.T, bx *basisIndex, ds *dataset.Dataset, basis []int, twin *VecSet) {
	t.Helper()
	if bx == nil {
		t.Fatal("no basis index published")
	}
	x := newASMSIndex(ds.N(), bx.nv, twin.TopsCtx, basis)
	defer x.release()
	if err := x.build(t.Context(), bx.depth); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(x.open, bx.open) {
		t.Fatalf("published index over %d vectors at depth %d differs from a fresh scan", bx.nv, bx.depth)
	}
}

// TestSharedBasisIndexMatchesPrivate runs every kind of search that uses a
// top-K cache's basis index against the same search with a fresh private
// index on a twin set, and checks each published index against a fresh
// scan: repeated budget sweeps, a view shorter than the index, a longer
// view after a sample-tail extension, fixed-k HDRRR passes below and past
// the index's depth, searches whose basis is not the forced one (which
// must leave the index alone), and a repaired set (which starts with none).
func TestSharedBasisIndexMatchesPrivate(t *testing.T) {
	const gamma, seed, m = 3, 7, 300
	ctx := t.Context()
	ds := dataset.Anticorrelated(xrand.New(21), 300, 4)
	basis := uniqueInts(ds.Basis())
	o := DefaultOptions()
	shared := NewSharedVecSet(ds, nil, gamma, seed, nil)
	twin := NewSharedVecSet(ds, nil, gamma, seed, nil)
	acquire := func(s *SharedVecSet, m int) *VecSet {
		t.Helper()
		vs, _, err := s.Acquire(ctx, m)
		if err != nil {
			t.Fatal(err)
		}
		return vs
	}
	published := func() *basisIndex { return acquire(shared, 0).tc.basis.Load() }
	sweep := func(name string, m, r int) {
		t.Helper()
		got, err := HDRRMWithVecSetCtx(ctx, ds, r, o, acquire(shared, m))
		if err != nil {
			t.Fatal(err)
		}
		if want := privateHDRRM(t, ds, r, basis, acquire(twin, m)); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s m=%d r=%d: shared index gives %+v, private %+v", name, m, r, got, want)
		}
		requireExactIndex(t, published(), ds, basis, acquire(twin, m))
	}

	if published() != nil {
		t.Fatal("a fresh cache holds a basis index")
	}
	for r := 6; r <= 10; r++ {
		sweep("first sweep", m, r)
	}
	after := published()
	for r := 6; r <= 10; r++ {
		sweep("repeated sweep", m, r)
	}
	if published() != after {
		t.Fatal("a repeated sweep republished an index it had nothing to add to")
	}
	grid := acquire(shared, 0).Len()

	sweep("shorter view", m/2, 8)
	if bx := published(); bx.nv != grid+m {
		t.Fatalf("after a shorter view the index covers %d vectors, want %d", bx.nv, grid+m)
	}
	sweep("longer view", m+200, 8)
	if bx := published(); bx.nv != grid+m+200 {
		t.Fatalf("after a longer view the index covers %d vectors, want %d", bx.nv, grid+m+200)
	}

	for _, k := range []int{2, 4*published().depth + 1} {
		deeper := k > published().depth
		if deeper != (k > 2) || k > ds.N() {
			t.Fatalf("HDRRR k=%d against an index at depth %d tests nothing", k, published().depth)
		}
		got, err := HDRRRWithVecSetCtx(ctx, ds, k, o, acquire(shared, m+200))
		if err != nil {
			t.Fatal(err)
		}
		if want := privateASMS(t, ds, k, basis, acquire(twin, m+200)); !slices.Equal(got.IDs, want) {
			t.Fatalf("HDRRR k=%d: shared index gives %v, private %v", k, got.IDs, want)
		}
		if bx := published(); bx.depth < k {
			t.Fatalf("HDRRR k=%d left the index at depth %d", k, bx.depth)
		}
		requireExactIndex(t, published(), ds, basis, acquire(twin, m+200))
	}

	before := published()
	got, err := HDRRMVariantWithVecSetCtx(ctx, ds, 8, o, Variant{NoBasis: true}, acquire(shared, m))
	if err != nil {
		t.Fatal(err)
	}
	if want := privateHDRRM(t, ds, 8, nil, acquire(twin, m)); !reflect.DeepEqual(got, want) {
		t.Fatalf("NoBasis: %+v, private %+v", got, want)
	}
	own := basis[1:]
	for _, k := range []int{3, ds.N()} {
		q, err := ASMSCtx(ctx, ds, k, own, acquire(shared, m))
		if err != nil {
			t.Fatal(err)
		}
		if want := privateASMS(t, ds, k, own, acquire(twin, m)); !slices.Equal(q, want) {
			t.Fatalf("ASMS k=%d with basis %v: %v, private %v", k, own, q, want)
		}
	}
	if published() != before {
		t.Fatal("a search with another basis changed the cache's index")
	}

	next := ds.Snapshot()
	appendRows(6)(t, xrand.New(3), next, nil)
	deltas, ok := next.Deltas(ds.Version())
	if !ok {
		t.Fatal("delta history truncated")
	}
	rep := NewRepairedVecSet(shared, next, deltas)
	repView, outcome, err := rep.Acquire(ctx, m)
	if err != nil || outcome != VecSetRepaired {
		t.Fatalf("repair: outcome %v, err %v", outcome, err)
	}
	if repView.tc.basis.Load() != nil {
		t.Fatal("a repaired cache starts with its source's basis index")
	}
	cold := acquire(NewSharedVecSet(next, nil, gamma, seed, nil), m)
	repBasis := uniqueInts(next.Basis())
	got, err = HDRRMWithVecSetCtx(ctx, next, 8, o, repView)
	if err != nil {
		t.Fatal(err)
	}
	if want := privateHDRRM(t, next, 8, repBasis, cold); !reflect.DeepEqual(got, want) {
		t.Fatalf("repaired set: %+v, private on a cold set %+v", got, want)
	}
	requireExactIndex(t, repView.tc.basis.Load(), next, repBasis, cold)
}
