// Benchmarks mirroring every table and figure of the paper's evaluation
// (Section VI). Each BenchmarkFigNN target runs one representative point of
// the corresponding figure per iteration, so `go test -bench=.` touches the
// whole evaluation; `cmd/rrmbench -fig <id>` regenerates a figure's full
// series.
package rankregret_test

import (
	"fmt"
	"testing"

	"github.com/rankregret/rankregret"
	"github.com/rankregret/rankregret/internal/bench"
)

// benchPoint runs one (workload, algorithm) cell of a figure.
func benchPoint(b *testing.B, p bench.Point, algo rankregret.Algorithm) {
	b.Helper()
	ds, err := bench.MakeDataset(p, 1)
	if err != nil {
		b.Fatal(err)
	}
	opts := &rankregret.Options{Algorithm: algo, Seed: 1, MaxSamples: bench.CIScale.MaxM}
	if p.Delta > 0 {
		opts.Delta = p.Delta
	}
	if p.C > 0 {
		sp, err := rankregret.WeakRankingSpace(ds.Dim(), p.C)
		if err != nil {
			b.Fatal(err)
		}
		opts.Space = sp
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rankregret.Solve(b.Context(), ds, p.R, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// synthetic2D enumerates the three synthetic workloads for the 2D figures.
func synthetic2D(b *testing.B, n, r int, algo rankregret.Algorithm) {
	b.Helper()
	for _, wl := range []string{"indep", "corr", "anti"} {
		b.Run(wl, func(b *testing.B) {
			benchPoint(b, bench.Point{Workload: wl, N: n, D: 2, R: r}, algo)
		})
	}
}

// syntheticHD enumerates the three synthetic workloads for the HD figures.
func syntheticHD(b *testing.B, n, d, r int, algo rankregret.Algorithm) {
	b.Helper()
	for _, wl := range []string{"indep", "corr", "anti"} {
		b.Run(wl, func(b *testing.B) {
			benchPoint(b, bench.Point{Workload: wl, N: n, D: d, R: r}, algo)
		})
	}
}

// BenchmarkTableI solves the paper's 7-tuple running example (Table I,
// Figures 1-2) with the exact 2D DP.
func BenchmarkTableI(b *testing.B) {
	benchPoint(b, bench.Point{Workload: "table1", N: 7, D: 2, R: 1}, rankregret.AlgoTwoDRRM)
}

// BenchmarkFig09 — 2D, runtime vs dataset size, 2DRRM vs 2DRRR, three
// synthetic workloads (n = 10K representative point).
func BenchmarkFig09TwoDRRM(b *testing.B) { synthetic2D(b, 10000, 5, rankregret.AlgoTwoDRRM) }
func BenchmarkFig09TwoDRRR(b *testing.B) { synthetic2D(b, 10000, 5, rankregret.AlgoTwoDRRR) }

// BenchmarkFig10 — 2D, runtime vs output size r.
func BenchmarkFig10(b *testing.B) {
	for _, r := range []int{5, 10} {
		for _, algo := range []rankregret.Algorithm{rankregret.AlgoTwoDRRM, rankregret.AlgoTwoDRRR} {
			b.Run(fmt.Sprintf("r=%d/%s", r, algo), func(b *testing.B) {
				benchPoint(b, bench.Point{Workload: "anti", N: 10000, D: 2, R: r}, algo)
			})
		}
	}
}

// BenchmarkFig11 — 2D, the (simulated) Island dataset.
func BenchmarkFig11(b *testing.B) {
	for _, algo := range []rankregret.Algorithm{rankregret.AlgoTwoDRRM, rankregret.AlgoTwoDRRR} {
		b.Run(string(algo), func(b *testing.B) {
			benchPoint(b, bench.Point{Workload: "island", N: 20000, D: 2, R: 5}, algo)
		})
	}
}

// BenchmarkFig12 — 2D, the (simulated) NBA dataset projected to 2 attributes.
func BenchmarkFig12(b *testing.B) {
	for _, algo := range []rankregret.Algorithm{rankregret.AlgoTwoDRRM, rankregret.AlgoTwoDRRR} {
		b.Run(string(algo), func(b *testing.B) {
			benchPoint(b, bench.Point{Workload: "nba", N: 10000, D: 2, R: 5}, algo)
		})
	}
}

// hdAlgos are the four solvers the paper's HD figures compare.
var hdAlgos = []rankregret.Algorithm{
	rankregret.AlgoHDRRM, rankregret.AlgoMDRRRr, rankregret.AlgoMDRC, rankregret.AlgoMDRMS,
}

// BenchmarkFig13..15 — HD, runtime vs dataset size (representative point
// n = 10K, d = 4, r = 10), per workload and solver.
func BenchmarkFig13(b *testing.B) { hdFigure(b, "indep", 10000, 4, 10) }
func BenchmarkFig14(b *testing.B) { hdFigure(b, "corr", 10000, 4, 10) }
func BenchmarkFig15(b *testing.B) { hdFigure(b, "anti", 10000, 4, 10) }

func hdFigure(b *testing.B, wl string, n, d, r int) {
	b.Helper()
	for _, algo := range hdAlgos {
		b.Run(string(algo), func(b *testing.B) {
			benchPoint(b, bench.Point{Workload: wl, N: n, D: d, R: r}, algo)
		})
	}
}

// BenchmarkFig16..18 — HD, impact of dimensionality (d = 5 point).
func BenchmarkFig16(b *testing.B) { hdFigure(b, "indep", 10000, 5, 10) }
func BenchmarkFig17(b *testing.B) { hdFigure(b, "corr", 10000, 5, 10) }
func BenchmarkFig18(b *testing.B) { hdFigure(b, "anti", 10000, 5, 10) }

// BenchmarkFig19..21 — HD, impact of output size (r = 15 point).
func BenchmarkFig19(b *testing.B) { hdFigure(b, "indep", 10000, 4, 15) }
func BenchmarkFig20(b *testing.B) { hdFigure(b, "corr", 10000, 4, 15) }
func BenchmarkFig21(b *testing.B) { hdFigure(b, "anti", 10000, 4, 15) }

// BenchmarkFig22..24 — HDRRM, impact of the error parameter delta.
func BenchmarkFig22(b *testing.B) { deltaFigure(b, "indep") }
func BenchmarkFig23(b *testing.B) { deltaFigure(b, "corr") }
func BenchmarkFig24(b *testing.B) { deltaFigure(b, "anti") }

func deltaFigure(b *testing.B, wl string) {
	b.Helper()
	for _, delta := range []float64{0.01, 0.03, 0.1} {
		b.Run(fmt.Sprintf("delta=%g", delta), func(b *testing.B) {
			benchPoint(b, bench.Point{Workload: wl, N: 10000, D: 4, R: 10, Delta: delta},
				rankregret.AlgoHDRRM)
		})
	}
}

// BenchmarkFig25 — RRRM (weak-ranking cone c = 2), varied dataset size on
// the anti-correlated workload.
func BenchmarkFig25(b *testing.B) {
	for _, algo := range []rankregret.Algorithm{rankregret.AlgoHDRRM, rankregret.AlgoMDRRRr} {
		b.Run(string(algo), func(b *testing.B) {
			benchPoint(b, bench.Point{Workload: "anti", N: 10000, D: 4, R: 10, C: 2}, algo)
		})
	}
}

// BenchmarkFig26 — RRRM, varied dimensionality (d = 5 point).
func BenchmarkFig26(b *testing.B) {
	for _, algo := range []rankregret.Algorithm{rankregret.AlgoHDRRM, rankregret.AlgoMDRRRr} {
		b.Run(string(algo), func(b *testing.B) {
			benchPoint(b, bench.Point{Workload: "anti", N: 10000, D: 5, R: 10, C: 2}, algo)
		})
	}
}

// BenchmarkFig27 — HD, the (simulated) NBA dataset, 5 attributes.
func BenchmarkFig27(b *testing.B) {
	for _, algo := range hdAlgos {
		b.Run(string(algo), func(b *testing.B) {
			benchPoint(b, bench.Point{Workload: "nba", N: 10000, D: 5, R: 10}, algo)
		})
	}
}

// BenchmarkFig28 — HD, the (simulated) Weather dataset, 4 attributes.
func BenchmarkFig28(b *testing.B) {
	for _, algo := range hdAlgos {
		b.Run(string(algo), func(b *testing.B) {
			benchPoint(b, bench.Point{Workload: "weather", N: 40000, D: 4, R: 10}, algo)
		})
	}
}

// BenchmarkAblation — HDRRM with one ingredient removed at a time (beyond
// the paper). Regenerate the quality columns with `cmd/rrmbench -fig
// ablation`.
func BenchmarkAblation(b *testing.B) {
	ds := rankregret.GenerateAnticorrelated(1, 2000, 4)
	for _, v := range []rankregret.HDRRMVariant{
		{}, {NoBasis: true}, {NoGrid: true}, {NoSamples: true},
	} {
		b.Run(v.Name(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := rankregret.SolveVariant(b.Context(), ds, 10, &rankregret.Options{MaxSamples: bench.CIScale.MaxM}, v); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
