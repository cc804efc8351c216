package topk

import (
	"fmt"
	"testing"

	"github.com/rankregret/rankregret/internal/dataset"
	"github.com/rankregret/rankregret/internal/xrand"
)

func benchData(n, d int) (*dataset.Dataset, []float64) {
	ds := dataset.Independent(xrand.New(1), n, d)
	u := make([]float64, d)
	for j := range u {
		u[j] = 1 / float64(d)
	}
	return ds, u
}

func BenchmarkTopK10Of10K(b *testing.B) {
	ds, u := benchData(10000, 4)
	scores := make([]float64, ds.N())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		TopK(ds, u, 10, scores)
	}
}

func BenchmarkTopK1KOf10K(b *testing.B) {
	ds, u := benchData(10000, 4)
	scores := make([]float64, ds.N())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		TopK(ds, u, 1000, scores)
	}
}

func BenchmarkRankOfSet(b *testing.B) {
	ds, u := benchData(10000, 4)
	scores := make([]float64, ds.N())
	ids := []int{1, 100, 5000, 9999}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		RankOfSet(ds, u, ids, scores)
	}
}

func BenchmarkFullRanking10K(b *testing.B) {
	ds, u := benchData(10000, 4)
	scores := make([]float64, ds.N())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		FullRanking(ds, u, scores)
	}
}

// BenchmarkSelectBatch selects top-k lists from one tile of 16 scored
// random directions over CI-scale simweather, the shape of one tile of the
// HDRRM scoring pass.
func BenchmarkSelectBatch(b *testing.B) {
	ds := dataset.SimWeather(xrand.New(1), 4000)
	rng := xrand.New(2)
	us := make([][]float64, 16)
	for i := range us {
		us[i] = rng.UnitOrthantDirection(ds.Dim())
	}
	rows := ds.UtilitiesBatch(us, nil)
	for _, k := range []int{8, 32} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			var scratch []int
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_, scratch = SelectBatch(rows, nil, k, scratch)
			}
		})
	}
}
