package algo2d

import (
	"fmt"
	"testing"

	"github.com/rankregret/rankregret/internal/dataset"
	"github.com/rankregret/rankregret/internal/xrand"
)

func BenchmarkTwoDRRM(b *testing.B) {
	for _, wl := range []string{"indep", "anti"} {
		for _, n := range []int{1000, 5000} {
			ds, _ := dataset.Synthetic(wl, xrand.New(1), n, 2)
			b.Run(fmt.Sprintf("%s/n=%d", wl, n), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := TwoDRRMCtx(b.Context(), ds, 5); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
	// The benchmark workloads' 2D solve: SimIsland 10k at r = 10.
	island := dataset.SimIsland(xrand.New(1), 10000)
	b.Run("island/n=10000", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := TwoDRRMCtx(b.Context(), island, 10); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkNewPlan measures the budget-independent half of an exact 2D
// solve, the banded plan build, on the benchmark workloads' 2D data and on
// independent and anticorrelated data. On anticorrelated data the band is
// every line, so that case guards the build without a band.
func BenchmarkNewPlan(b *testing.B) {
	sets := []struct {
		name string
		ds   *dataset.Dataset
	}{
		{"island/n=10000", dataset.SimIsland(xrand.New(1), 10000)},
		{"indep/n=5000", dataset.Independent(xrand.New(1), 5000, 2)},
		{"anti/n=5000", dataset.Anticorrelated(xrand.New(1), 5000, 2)},
	}
	for _, set := range sets {
		b.Run(set.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := NewPlanCtx(b.Context(), set.ds, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkTwoDRRRBaseline(b *testing.B) {
	for _, wl := range []string{"indep", "anti"} {
		ds, _ := dataset.Synthetic(wl, xrand.New(1), 5000, 2)
		b.Run(wl, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := TwoDRRRBaselineForRRMCtx(b.Context(), ds, 5); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkExactRankRegret(b *testing.B) {
	ds := dataset.Anticorrelated(xrand.New(1), 5000, 2)
	res, err := TwoDRRMCtx(b.Context(), ds, 5)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ExactRankRegret(ds, res.IDs, 0, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTwoDRRMSweepCI is the shape of the benchmark's sweep workload
// for its 2D dataset at CI scale (SimIsland 10k): one prebuilt Plan and
// budgets cycling over 10..14, so each op is the DP over chain budgets
// alone, with no skyline, event sweep or sort.
func BenchmarkTwoDRRMSweepCI(b *testing.B) {
	const base, steps = 10, 5
	ctx := b.Context()
	pl, err := NewPlanCtx(ctx, dataset.SimIsland(xrand.New(1), 10000), nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pl.RRM(ctx, base+i%steps); err != nil {
			b.Fatal(err)
		}
	}
}
