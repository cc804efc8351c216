package algohd

import (
	"context"
	"math"
	"slices"
	"testing"

	"github.com/rankregret/rankregret/internal/dataset"
	"github.com/rankregret/rankregret/internal/funcspace"
	"github.com/rankregret/rankregret/internal/geom"
	"github.com/rankregret/rankregret/internal/topk"
	"github.com/rankregret/rankregret/internal/xrand"
)

// TestGridCellIsNearestGridAngle checks the quantizer behind grid seeding:
// every grid direction lands on a cell holding the same direction (the grid
// repeats directions with a zero prefix), and a random direction lands on
// a cell holding the grid direction whose every polar angle is nearest to
// its own.
func TestGridCellIsNearestGridAngle(t *testing.T) {
	for _, c := range []struct{ d, gamma int }{{2, 1}, {3, 4}, {4, 6}, {5, 3}} {
		cut := cellCuts(c.gamma)
		grid := geom.AngleGrid(c.d, c.gamma)
		for i, u := range grid {
			if got := grid[gridCell(u, cut)]; !slices.Equal(got, u) {
				t.Fatalf("d=%d gamma=%d: grid vector %d %v lands on %v", c.d, c.gamma, i, u, got)
			}
		}
		step := math.Pi / 2 / float64(c.gamma)
		rng := xrand.New(int64(c.d))
		for i := 0; i < 2000; i++ {
			u := rng.UnitOrthantDirection(c.d)
			nearest, stride := 0, 1
			for _, theta := range geom.CartesianToPolar(u) {
				nearest += int(math.Round(theta/step)) * stride
				stride *= c.gamma + 1
			}
			if got, want := grid[gridCell(u, cut)], grid[nearest]; !slices.Equal(got, want) {
				t.Fatalf("d=%d gamma=%d: %v lands on %v, nearest grid direction %v", c.d, c.gamma, u, got, want)
			}
		}
	}
}

// requireTopKLists checks every list of vs at depth k against a per-vector
// topk.TopK over the whole dataset.
func requireTopKLists(t *testing.T, vs *VecSet, ds *dataset.Dataset, k int) {
	t.Helper()
	tops, err := vs.TopsCtx(t.Context(), k)
	if err != nil {
		t.Fatal(err)
	}
	for v, u := range vs.Vecs {
		if want := topk.TopK(ds, u, k, nil); !slices.Equal(tops[v][:k], want) {
			t.Fatalf("vector %d (grid %d) depth %d: %v, TopK %v", v, vs.GridCount, k, tops[v][:k], want)
		}
	}
}

// fallbacks counts the sample vectors of vs whose grid cell holds no grid
// vector, so their selection seeds from the previous row. A seeded pass
// must have built the cache's cell table, and every cell it cached must be
// the vector's own.
func fallbacks(t *testing.T, vs *VecSet) int {
	t.Helper()
	tc := vs.tc
	if tc.cellGrid == nil {
		t.Fatal("no seeded pass ran")
	}
	cut := cellCuts(tc.gamma)
	n := 0
	for v, u := range vs.Vecs {
		c := gridCell(u, cut)
		if v < len(tc.cells) && tc.cells[v] >= 0 && tc.cells[v] != c {
			t.Fatalf("vector %d: cached cell %d, want %d", v, tc.cells[v], c)
		}
		if v >= vs.GridCount && tc.cellGrid[c] < 0 {
			n++
		}
	}
	return n
}

// TestGridSeededTopsMatchTopK pins grid-seeded selection to the per-vector
// reference: staged deepenings over a narrow restricted space whose samples
// mostly fall in cells the space filtered out of the grid, a tail of new
// samples scored at an unchanged depth against the committed grid lists,
// and a deepening pass over a repaired cache.
func TestGridSeededTopsMatchTopK(t *testing.T) {
	ctx := context.Background()
	ds := dataset.Anticorrelated(xrand.New(31), 1200, 4)

	t.Run("narrow cone", func(t *testing.T) {
		// The rays through a small ball: one grid direction, and most
		// samples in cells the space filtered out.
		space, err := funcspace.NewBall(geom.Vector{0.2, 0.4, 0.6, 0.66}, 0.12)
		if err != nil {
			t.Fatal(err)
		}
		vs, err := BuildVecSetCtx(ctx, ds, space, 6, 400, xrand.New(2))
		if err != nil {
			t.Fatal(err)
		}
		if vs.GridCount == 0 {
			t.Fatal("the cone admits no grid direction: nothing seeds from the grid")
		}
		for _, k := range []int{2, 8, 32} {
			requireTopKLists(t, vs, ds, k)
		}
		if fb := fallbacks(t, vs); 2*fb < vs.Len()-vs.GridCount {
			t.Errorf("%d of %d samples fall back; want most, the cone is narrow", fb, vs.Len()-vs.GridCount)
		}
	})

	t.Run("tail at unchanged depth", func(t *testing.T) {
		shared := NewSharedVecSet(ds, nil, 4, 3, nil)
		vs, _, err := shared.Acquire(ctx, 200)
		if err != nil {
			t.Fatal(err)
		}
		requireTopKLists(t, vs, ds, 8)
		if vs.tc.cellGrid != nil {
			t.Fatal("a cache's first pass seeded from the grid")
		}
		vs, outcome, err := shared.Acquire(ctx, 700)
		if err != nil || outcome != VecSetExtended {
			t.Fatalf("extension: outcome %v, err %v", outcome, err)
		}
		requireTopKLists(t, vs, ds, 8)
		if got := vs.tc.topK; got != 8 {
			t.Fatalf("extension rebuilt at depth %d, want the tail at depth 8", got)
		}
		for v := vs.GridCount + 200; v < vs.Len(); v++ {
			if vs.tc.cells[v] < 0 {
				t.Fatalf("tail vector %d was not seeded from the grid", v)
			}
		}
		if fb := fallbacks(t, vs); fb != 0 {
			t.Errorf("%d samples fall back over the full orthant, want 0", fb)
		}
	})

	t.Run("deepening after repair", func(t *testing.T) {
		old := NewSharedVecSet(ds, nil, 4, 4, nil)
		oldView, _, err := old.Acquire(ctx, 500)
		if err != nil {
			t.Fatal(err)
		}
		ensureTopK(t, oldView, 8)
		cur := ds.Snapshot()
		appendRows(12)(t, xrand.New(5), cur, nil)
		deltas, ok := cur.Deltas(ds.Version())
		if !ok {
			t.Fatal("history truncated")
		}
		vs, outcome, err := NewRepairedVecSet(old, cur, deltas).Acquire(ctx, 500)
		if err != nil || outcome != VecSetRepaired {
			t.Fatalf("repair: outcome %v, err %v", outcome, err)
		}
		requireTopKLists(t, vs, cur, 8)
		requireTopKLists(t, vs, cur, 32)
		if vs.tc.grid != vs.GridCount || vs.tc.gamma != 4 {
			t.Fatalf("repaired cache has grid %d gamma %d, want %d and 4", vs.tc.grid, vs.tc.gamma, vs.GridCount)
		}
		if fb := fallbacks(t, vs); fb != 0 {
			t.Errorf("%d samples fall back over the full orthant, want 0", fb)
		}
	})
}
