// Restricted: the RRRM problem. When something is known about user
// preferences — here the "weak ranking" constraint that attribute 1 matters
// at least as much as attribute 2, which matters at least as much as
// attribute 3 — restricting the utility space shrinks the adversary and
// yields representative sets with much lower rank-regret (the paper's
// Figures 25-26).
package main

import (
	"context"
	"fmt"
	"log"

	"github.com/rankregret/rankregret"
)

func main() {
	ctx := context.Background()
	ds := rankregret.GenerateAnticorrelated(7, 20000, 4)
	const r = 10

	// Plain RRM: the adversary may use any non-negative weights.
	full, err := rankregret.Solve(ctx, ds, r, &rankregret.Options{Algorithm: rankregret.AlgoHDRRM})
	if err != nil {
		log.Fatal(err)
	}
	fullEst, err := rankregret.EvaluateRankRegret(ds, full.IDs, nil, 50000, 5)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("RRM  (full space):        estimated rank-regret %4d\n", fullEst)

	// RRRM with the weak-ranking cone u[0] >= u[1] >= u[2] (c = 2, the
	// paper's Section VI.B.5 setting).
	cone, err := rankregret.WeakRankingSpace(ds.Dim(), 2)
	if err != nil {
		log.Fatal(err)
	}
	restricted, err := rankregret.Solve(ctx, ds, r, &rankregret.Options{
		Algorithm: rankregret.AlgoHDRRM,
		Space:     cone,
	})
	if err != nil {
		log.Fatal(err)
	}
	restEst, err := rankregret.EvaluateRankRegret(ds, restricted.IDs, cone, 50000, 5)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("RRRM (weak ranking, c=2): estimated rank-regret %4d\n", restEst)
	fmt.Println("=> fewer possible preferences, a lower regret level for those users.")

	// RRRM also accepts an estimated utility vector plus uncertainty: a
	// ball around the output of a preference-learning step.
	ball, err := rankregret.BallSpace([]float64{0.4, 0.3, 0.2, 0.1}, 0.08)
	if err != nil {
		log.Fatal(err)
	}
	ballSol, err := rankregret.Solve(ctx, ds, r, &rankregret.Options{
		Algorithm: rankregret.AlgoHDRRM,
		Space:     ball,
	})
	if err != nil {
		log.Fatal(err)
	}
	ballEst, err := rankregret.EvaluateRankRegret(ds, ballSol.IDs, ball, 50000, 5)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("RRRM (ball around a mined vector, radius 0.08): estimated rank-regret %4d\n", ballEst)

	// The candidate sets shrink correspondingly (Theorem 3): the
	// restricted skyline is a subset of the skyline.
	sky := rankregret.Skyline(ds)
	usky, err := rankregret.RestrictedSkyline(ds, cone)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ncandidates: |skyline| = %d, |U-skyline| = %d (Theorem 3)\n", len(sky), len(usky))
}
