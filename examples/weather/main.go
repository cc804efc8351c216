// Weather: how big must the representative set be? A dashboard can only
// show so many monitoring stations; this example sweeps the output budget r
// on the (simulated) 4-attribute Weather dataset and reports the achieved
// rank-regret both absolutely and as a percentile of the dataset — the
// paper's suggested normalization ("top 1% by citations") — showing the
// diminishing returns that let an operator pick the smallest budget that
// meets a percentile target.
package main

import (
	"context"
	"fmt"
	"log"

	"github.com/rankregret/rankregret"
)

func main() {
	ctx := context.Background()
	ds := rankregret.SimWeather(7, 20000)
	fmt.Printf("dataset: %d stations x %d attributes %v\n\n", ds.N(), ds.Dim(), ds.Attrs())

	// The skyline is the candidate set (Theorem 3) and a natural upper
	// reference: with the whole skyline the rank-regret is 1 by definition.
	sky := rankregret.Skyline(ds)
	fmt.Printf("skyline: %d tuples (rank-regret 1, but far too many to display)\n\n", len(sky))

	fmt.Println("budget sweep (HDRRM):")
	fmt.Printf("  %3s  %10s  %12s  %10s\n", "r", "regret<=", "estimated", "percentile")
	for _, r := range []int{5, 8, 10, 15, 20, 30} {
		sol, err := rankregret.Solve(ctx, ds, r, &rankregret.Options{
			Algorithm:  rankregret.AlgoHDRRM,
			MaxSamples: 8000,
		})
		if err != nil {
			log.Fatal(err)
		}
		est, err := rankregret.EvaluateRankRegret(ds, sol.IDs, nil, 30000, 3)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %3d  %10d  %12d  %9.3f%%\n",
			r, sol.RankRegret, est, 100*float64(est)/float64(ds.N()))
	}

	// The dual view: fix a percentile target instead of a budget. "Every
	// user must find a top-0.1% station" means k = n/1000.
	k := ds.N() / 1000
	dual, err := rankregret.SolveRRR(ctx, ds, k, &rankregret.Options{MaxSamples: 8000})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ndual (RRR): guaranteeing top-%d (0.1%%) needs about %d tuples\n", k, len(dual.IDs))
}
