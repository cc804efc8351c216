// Quickstart: solve RRM on the paper's Table I example and on a synthetic
// 4-attribute workload, showing both the exact 2D solver and HDRRM.
package main

import (
	"context"
	"fmt"
	"log"

	"github.com/rankregret/rankregret"
)

func main() {
	ctx := context.Background()
	// The paper's running example (Table I): seven cars over two
	// attributes. For r = 1 the RRM optimum is t3 = (0.57, 0.75).
	rows := [][]float64{
		{0, 1},       // t1
		{0.4, 0.95},  // t2
		{0.57, 0.75}, // t3
		{0.79, 0.6},  // t4
		{0.2, 0.5},   // t5
		{0.35, 0.3},  // t6
		{1, 0},       // t7
	}
	ds, err := rankregret.NewDataset(rows)
	if err != nil {
		log.Fatal(err)
	}

	sol, err := rankregret.Solve(ctx, ds, 1, nil) // d = 2 -> exact 2D DP
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Table I, r=1: chose t%d, rank-regret %d (exact=%v)\n",
		sol.IDs[0]+1, sol.RankRegret, sol.Exact)

	sol3, err := rankregret.Solve(ctx, ds, 3, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Table I, r=3: chose %v, rank-regret %d\n", tupleNames(sol3.IDs), sol3.RankRegret)

	// A bigger high-dimensional instance: 5 000 anti-correlated tuples
	// over 4 attributes, solved with HDRRM.
	big := rankregret.GenerateAnticorrelated(42, 5000, 4)
	solHD, err := rankregret.Solve(ctx, big, 10, &rankregret.Options{Algorithm: rankregret.AlgoHDRRM})
	if err != nil {
		log.Fatal(err)
	}
	est, err := rankregret.EvaluateRankRegret(big, solHD.IDs, nil, 20000, 7)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("anti-correlated n=5000 d=4, r=10 (HDRRM): |S|=%d, guaranteed k=%d on the grid, estimated rank-regret %d (%.2f%% of n)\n",
		len(solHD.IDs), solHD.RankRegret, est, 100*float64(est)/float64(big.N()))
}

func tupleNames(ids []int) []string {
	out := make([]string, len(ids))
	for i, id := range ids {
		out[i] = fmt.Sprintf("t%d", id+1)
	}
	return out
}
