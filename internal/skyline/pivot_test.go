package skyline

import (
	"reflect"
	"testing"

	"github.com/rankregret/rankregret/internal/dataset"
	"github.com/rankregret/rankregret/internal/xrand"
)

// compute2D prefilters by the maximum-sum tuple; these are the shapes where
// that pivot is ambiguous or duplicated.
func TestSkyline2DPivotEdgeCases(t *testing.T) {
	cases := map[string][][]float64{
		"pivot duplicated": {
			{0.2, 0.3}, {0.6, 0.7}, {0.1, 0.9}, {0.6, 0.7}, {0.5, 0.5}, {0.6, 0.7}, {0.9, 0.1},
		},
		"sum tie": {
			{0.3, 0.7}, {0.5, 0.5}, {0.7, 0.3}, {0.2, 0.2}, {0.4, 0.6}, {0.1, 0.1}, {0.5, 0.5},
		},
		"sum tie, one dominated": {
			{0.5, 0.5}, {0.5, 0.4}, {0.4, 0.5}, {0.3, 0.7}, {0.3, 0.6},
		},
		"all rows equal": {
			{0.4, 0.4}, {0.4, 0.4}, {0.4, 0.4}, {0.4, 0.4},
		},
		"single row": {{0.3, 0.8}},
	}
	for name, rows := range cases {
		ds := dataset.MustFromRows(rows)
		if got, want := Compute(ds), bruteSkyline(ds); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: skyline %v, brute %v", name, got, want)
		}
	}
	// Tie-heavy random grids: many duplicates and many tuples sharing the
	// maximum sum.
	for seed := int64(0); seed < 30; seed++ {
		ds := tiedDataset(seed, 80, 2, 3+int(seed%4))
		if got, want := Compute(ds), bruteSkyline(ds); !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: skyline %v, brute %v", seed, got, want)
		}
	}
}

func BenchmarkSkyline2DIsland10K(b *testing.B) {
	ds := dataset.SimIsland(xrand.New(1), 10000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Compute(ds)
	}
}
