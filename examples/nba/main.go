// NBA: a high-dimensional scouting short-list. A general manager wants a
// handful of player/seasons such that, for any linear weighting of five
// box-score statistics, the list contains someone ranked near the top of
// the whole database — the paper's NBA experiment (Figures 12 and 27).
package main

import (
	"context"
	"fmt"
	"log"

	"github.com/rankregret/rankregret"
)

func main() {
	ctx := context.Background()
	// Simulated stand-in for the paper's 21 961-row, 5-attribute NBA
	// dataset: it keeps the original's correlation structure, which is
	// what drives skyline size and so the experiment's behavior.
	nba := rankregret.SimNBA(2024, 0)
	fmt.Printf("database: %d player/seasons x %d stats %v\n", nba.N(), nba.Dim(), nba.Attrs())

	const r = 10
	sol, err := rankregret.Solve(ctx, nba, r, &rankregret.Options{Algorithm: rankregret.AlgoHDRRM})
	if err != nil {
		log.Fatal(err)
	}
	est, err := rankregret.EvaluateRankRegret(nba, sol.IDs, nil, 50000, 3)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("short list (r=%d), HDRRM: grid-guaranteed k=%d, estimated rank-regret %d\n",
		r, sol.RankRegret, est)
	for _, id := range sol.IDs {
		row := nba.Row(id)
		fmt.Printf("  player %5d:", id)
		for j, v := range row {
			fmt.Printf(" %s=%.2f", nba.Attrs()[j], v)
		}
		fmt.Println()
	}

	// Compare against the baselines the paper evaluates (Figure 27): the
	// heuristic MDRC is fast but can have far worse output quality, and
	// the regret-ratio solver MDRMS optimizes the wrong objective.
	fmt.Println("\nbaseline comparison (same budget):")
	for _, algo := range []rankregret.Algorithm{rankregret.AlgoMDRRRr, rankregret.AlgoMDRC, rankregret.AlgoMDRMS} {
		b, err := rankregret.Solve(ctx, nba, r, &rankregret.Options{Algorithm: algo})
		if err != nil {
			log.Fatal(err)
		}
		bEst, err := rankregret.EvaluateRankRegret(nba, b.IDs, nil, 50000, 3)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-7s |S|=%2d estimated rank-regret %d\n", algo, len(b.IDs), bEst)
	}

	// On two attributes (the paper's Figure 12 setting) the exact 2D
	// solver applies; NBA's strong positive correlation makes a
	// rank-regret of 1 achievable.
	two, err := nba.Project([]int{0, 1})
	if err != nil {
		log.Fatal(err)
	}
	sol2, err := rankregret.Solve(ctx, two, 5, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n2-attribute projection, r=5: exact rank-regret %d (the paper observes 1 on NBA)\n",
		sol2.RankRegret)
}
