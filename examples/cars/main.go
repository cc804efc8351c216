// Cars: the paper's introductory scenario. Alice browses a car database
// with horse power (HP) and fuel economy (MPG) — attributes that trade off
// against each other — and wants a short list guaranteed to contain a
// near-top car for *any* linear weighting of the two.
//
// The example also demonstrates Theorem 1 (shift invariance): converting
// MPG to a shifted scale changes nothing about the RRM answer, while the
// classical regret-ratio (RMS) answer flips — the paper's Figure 1 vs 2.
package main

import (
	"context"
	"fmt"
	"log"

	"github.com/rankregret/rankregret"
)

func main() {
	ctx := context.Background()
	// A synthetic car catalogue: 2 000 cars on the HP/MPG trade-off curve
	// with noise (anti-correlated, like real engine data).
	cars := rankregret.GenerateAnticorrelated(11, 2000, 2)
	if err := cars.SetAttrs([]string{"MPG", "HP"}); err != nil {
		log.Fatal(err)
	}

	const r = 5
	sol, err := rankregret.Solve(ctx, cars, r, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("short list of %d cars out of %d, exact rank-regret %d:\n",
		len(sol.IDs), cars.N(), sol.RankRegret)
	for _, id := range sol.IDs {
		fmt.Printf("  car %4d: MPG=%.3f HP=%.3f\n", id, cars.Value(id, 0), cars.Value(id, 1))
	}
	fmt.Printf("=> whatever weights Alice uses, one of these %d cars ranks in her top %d of all %d cars.\n\n",
		r, sol.RankRegret, cars.N())

	// Shift invariance (Theorem 1): shift MPG by +4 "scale units" — the
	// dataset is essentially unchanged, and so is the RRM solution.
	shifted := cars.Clone()
	shifted.Shift([]float64{4, 0})
	sol2, err := rankregret.Solve(ctx, shifted, r, nil)
	if err != nil {
		log.Fatal(err)
	}
	same := len(sol.IDs) == len(sol2.IDs)
	if same {
		for i := range sol.IDs {
			if sol.IDs[i] != sol2.IDs[i] {
				same = false
				break
			}
		}
	}
	fmt.Printf("after shifting MPG by +4: rank-regret %d, identical solution: %v (Theorem 1)\n\n",
		sol2.RankRegret, same)

	// Contrast: a regret-ratio greedy (the RMS objective) on the original
	// vs the shifted data. RMS is not shift invariant, so its rank-regret
	// can degrade badly after a shift.
	for _, tc := range []struct {
		name string
		ds   *rankregret.Dataset
	}{{"original", cars}, {"shifted", shifted}} {
		rms, err := rankregret.Solve(ctx, tc.ds, r, &rankregret.Options{Algorithm: rankregret.AlgoRMSGreedy})
		if err != nil {
			log.Fatal(err)
		}
		rr, err := rankregret.EvaluateRankRegret2D(tc.ds, rms.IDs, nil)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("RMS greedy on %-8s data: rank-regret %d\n", tc.name, rr)
	}
	fmt.Println("=> minimizing regret-ratio does not minimize rank-regret, and shifting changes its answer.")
}
