package rankregret_test

import (
	"context"
	"fmt"
	"log"

	"github.com/rankregret/rankregret"
)

// ExampleSolve runs RRM on the paper's Table I dataset: for a budget of
// one tuple, the optimum is t3 = (0.57, 0.75), whose rank never drops below
// 3 under any linear preference.
func ExampleSolve() {
	ds, err := rankregret.NewDataset([][]float64{
		{0, 1}, {0.4, 0.95}, {0.57, 0.75}, {0.79, 0.6}, {0.2, 0.5}, {0.35, 0.3}, {1, 0},
	})
	if err != nil {
		log.Fatal(err)
	}
	sol, err := rankregret.Solve(context.Background(), ds, 1, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("chose t%d with rank-regret %d\n", sol.IDs[0]+1, sol.RankRegret)
	// Output: chose t3 with rank-regret 3
}

// ExampleSolveRRR solves the dual problem: the smallest set guaranteeing
// every user a top-3 tuple.
func ExampleSolveRRR() {
	ds, err := rankregret.NewDataset([][]float64{
		{0, 1}, {0.4, 0.95}, {0.57, 0.75}, {0.79, 0.6}, {0.2, 0.5}, {0.35, 0.3}, {1, 0},
	})
	if err != nil {
		log.Fatal(err)
	}
	sol, err := rankregret.SolveRRR(context.Background(), ds, 3, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%d tuple(s) suffice for rank-regret <= 3\n", len(sol.IDs))
	// Output: 1 tuple(s) suffice for rank-regret <= 3
}

// ExampleWeakRankingSpace solves RRRM: the user is known to weight the
// first attribute at least as much as the second, which shrinks the
// adversary and can only improve the achievable rank-regret.
func ExampleWeakRankingSpace() {
	ds := rankregret.GenerateAnticorrelated(1, 500, 2)
	cone, err := rankregret.WeakRankingSpace(2, 1)
	if err != nil {
		log.Fatal(err)
	}
	full, err := rankregret.Solve(context.Background(), ds, 3, nil)
	if err != nil {
		log.Fatal(err)
	}
	restricted, err := rankregret.Solve(context.Background(), ds, 3, &rankregret.Options{Space: cone})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("restricted optimum (%d) <= full optimum (%d): %v\n",
		restricted.RankRegret, full.RankRegret, restricted.RankRegret <= full.RankRegret)
	// Output: restricted optimum (3) <= full optimum (8): true
}

// ExampleSkyline lists the candidate tuples for RRM (Theorem 3): solutions
// only ever need skyline members.
func ExampleSkyline() {
	ds, err := rankregret.NewDataset([][]float64{
		{0, 1}, {0.4, 0.95}, {0.57, 0.75}, {0.79, 0.6}, {0.2, 0.5}, {0.35, 0.3}, {1, 0},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(rankregret.Skyline(ds))
	// Output: [0 1 2 3 6]
}

// ExampleEvaluateRankRegret measures an arbitrary set's quality: how deep
// in the ranking a user might have to look, in the worst case over sampled
// preferences.
func ExampleEvaluateRankRegret() {
	ds, err := rankregret.NewDataset([][]float64{
		{0, 1}, {0.4, 0.95}, {0.57, 0.75}, {0.79, 0.6}, {0.2, 0.5}, {0.35, 0.3}, {1, 0},
	})
	if err != nil {
		log.Fatal(err)
	}
	// {t1, t7} covers both extremes but nothing in the middle.
	k, err := rankregret.EvaluateRankRegret(ds, []int{0, 6}, nil, 20000, 1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("rank-regret of {t1, t7} is %d\n", k)
	// Output: rank-regret of {t1, t7} is 4
}
