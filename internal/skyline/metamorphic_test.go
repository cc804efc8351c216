package skyline

import (
	"slices"
	"testing"

	"github.com/rankregret/rankregret/internal/dataset"
	"github.com/rankregret/rankregret/internal/topk"
	"github.com/rankregret/rankregret/internal/xrand"
)

// Metamorphic properties of KSkyband under dataset mutation — the
// invariants the engine's incremental repair leans on:
//
//   - appending a row that k existing rows strictly dominate never changes
//     the k-skyband (the newcomer is beaten by k others, and anything it
//     always-beats was already beaten by its dominators, transitively);
//   - deleting a row outside the k-skyband never changes any top-k result
//     (modulo the id shift), because non-members by definition cannot appear
//     in any top-k.

// dominatedRow builds a row strictly below the componentwise minimum of k
// randomly chosen rows, so at least k rows strictly dominate it.
func dominatedRow(ds *dataset.Dataset, rng *xrand.Rand, k int) []float64 {
	row := make([]float64, ds.Dim())
	for j := range row {
		row[j] = 2 // above any normalized value; min() below pulls it down
	}
	for i := 0; i < k; i++ {
		src := ds.Row(rng.Intn(ds.N()))
		for j, v := range src {
			if v < row[j] {
				row[j] = v
			}
		}
	}
	for j := range row {
		row[j] -= 0.01
	}
	return row
}

func TestKSkybandAppendDominatedUnchanged(t *testing.T) {
	gens := []struct {
		name string
		make func(rng *xrand.Rand, n, d int) *dataset.Dataset
	}{
		{"indep", dataset.Independent},
		{"corr", dataset.Correlated},
		{"anti", dataset.Anticorrelated},
	}
	for _, g := range gens {
		for _, d := range []int{2, 4} {
			for _, k := range []int{1, 3, 8} {
				rng := xrand.New(int64(31*d + k))
				ds := g.make(rng, 160, d)
				before := KSkyband(ds, k)
				if before == nil {
					continue // band abandoned or trivial: nothing to compare
				}
				mut := ds.Snapshot()
				for i := 0; i < 4; i++ {
					mut.Append(dominatedRow(ds, rng, k))
				}
				after := KSkyband(mut, k)
				if !slices.Equal(before, after) {
					t.Errorf("%s d=%d k=%d: appending dominated rows changed the skyband: %v -> %v",
						g.name, d, k, before, after)
				}
			}
		}
	}
}

func TestTopKUnchangedByNonSkybandDelete(t *testing.T) {
	const (
		n       = 150
		k       = 4
		samples = 120
	)
	for _, d := range []int{2, 3, 5} {
		rng := xrand.New(int64(7 * d))
		ds := dataset.Independent(rng, n, d)
		band := KSkyband(ds, k)
		if band == nil {
			t.Fatalf("d=%d: skyband unavailable at this size", d)
		}
		inBand := make([]bool, n)
		for _, id := range band {
			inBand[id] = true
		}
		// Delete a handful of non-members.
		var victims []int
		for id := n - 1; id >= 0 && len(victims) < 5; id-- {
			if !inBand[id] {
				victims = append(victims, id)
			}
		}
		if len(victims) == 0 {
			t.Skipf("d=%d: skyband covers everything", d)
		}
		mut := ds.Snapshot()
		if err := mut.Delete(victims); err != nil {
			t.Fatal(err)
		}
		// Old id -> new id map across the deletion.
		deltas, ok := mut.Deltas(ds.Version())
		if !ok {
			t.Fatal("history truncated")
		}
		oldToNew, _, _, ok := dataset.ComposeDeltas(n, deltas)
		if !ok {
			t.Fatal("compose failed")
		}

		var before, after []float64
		var scratch []int
		for s := 0; s < samples; s++ {
			u := rng.UnitOrthantDirection(d)
			before = ds.Utilities(u, before)
			after = mut.Utilities(u, after)
			// One call per row: the deletes make the two score rows differ
			// in length.
			var lists [][]int
			lists, scratch = topk.SelectBatch([][]float64{before}, nil, k, scratch)
			wantIDs := lists[0]
			lists, scratch = topk.SelectBatch([][]float64{after}, nil, k, scratch)
			gotIDs := lists[0]
			for i, oldID := range wantIDs {
				if mapped := oldToNew[oldID]; mapped != gotIDs[i] {
					t.Fatalf("d=%d sample %d: top-%d changed after non-skyband delete: old %v (mapped pos %d -> %d), new %v",
						d, s, k, wantIDs, i, mapped, gotIDs)
				}
			}
		}
	}
}
