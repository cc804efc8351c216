package rankregret_test

import (
	"bytes"
	"math"
	"testing"

	"github.com/rankregret/rankregret"
)

// TestPipelineCSVRoundTripSolve exercises the full user journey: generate a
// workload, serialize to CSV, read it back, normalize, solve, and verify
// the solution independently — the same path the cmd/datagen + cmd/rrm
// tools take.
func TestPipelineCSVRoundTripSolve(t *testing.T) {
	orig := rankregret.GenerateAnticorrelated(3, 600, 3)
	var buf bytes.Buffer
	if err := rankregret.WriteCSV(&buf, orig); err != nil {
		t.Fatal(err)
	}
	ds, err := rankregret.ReadCSV(&buf, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	ds.Normalize()
	sol, err := rankregret.Solve(t.Context(), ds, 8, &rankregret.Options{MaxSamples: 2000})
	if err != nil {
		t.Fatal(err)
	}
	est, err := rankregret.EvaluateRankRegret(ds, sol.IDs, nil, 10000, 17)
	if err != nil {
		t.Fatal(err)
	}
	if est < 1 || est > ds.N() {
		t.Errorf("estimated rank-regret %d out of range", est)
	}
	// The solver's own bound and an independent estimate should be in the
	// same ballpark (Theorems 6/7: the discretization approximates L).
	if sol.RankRegret > 0 && est > 4*sol.RankRegret+20 {
		t.Errorf("estimate %d far above the solver's bound %d", est, sol.RankRegret)
	}
}

// TestSolutionsAreSkylineSubsets verifies Theorem 3 end to end: every
// solver output consists of candidate (skyline) tuples only — any
// non-skyline member could be replaced by a dominator without hurting the
// rank-regret, and the solvers exploit exactly that.
func TestSolutionsAreSkylineSubsets(t *testing.T) {
	ds := rankregret.GenerateAnticorrelated(13, 800, 2)
	onSkyline := map[int]bool{}
	for _, id := range rankregret.Skyline(ds) {
		onSkyline[id] = true
	}
	sol, err := rankregret.Solve(t.Context(), ds, 6, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range sol.IDs {
		if !onSkyline[id] {
			t.Errorf("2DRRM chose non-skyline tuple %d", id)
		}
	}
}

// TestRestrictedCandidatesSubset verifies the restricted half of Theorem 3:
// the U-skyline is contained in the skyline, and RRRM solutions stay within
// the U-skyline's closure under the solver's candidate logic.
func TestRestrictedCandidatesSubset(t *testing.T) {
	ds := rankregret.GenerateIndependent(29, 500, 3)
	cone, err := rankregret.WeakRankingSpace(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	sky := map[int]bool{}
	for _, id := range rankregret.Skyline(ds) {
		sky[id] = true
	}
	usky, err := rankregret.RestrictedSkyline(ds, cone)
	if err != nil {
		t.Fatal(err)
	}
	if len(usky) == 0 {
		t.Fatal("empty U-skyline")
	}
	for _, id := range usky {
		if !sky[id] {
			t.Errorf("U-skyline tuple %d not on the skyline", id)
		}
	}
}

// TestLowerBoundTheorem2 verifies the paper's adversarial construction end
// to end: on the quarter-circle dataset, the optimal size-r set still has
// rank-regret Omega(n/r).
func TestLowerBoundTheorem2(t *testing.T) {
	const n, r = 600, 4
	ds := rankregret.GenerateQuarterCircle(n, 2)
	sol, err := rankregret.Solve(t.Context(), ds, r, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Theorem 2's constant: at least one angular gap is >= pi/(2(r+1)), and
	// tuples are spaced pi/(2(n-1)) apart, so the optimum is at least about
	// (n-1)/(r+1) tuples inside the gap, halved below to be safe against
	// boundary effects.
	floor := (n - 1) / (2 * (r + 1))
	if sol.RankRegret < floor {
		t.Errorf("optimal rank-regret %d below the Theorem 2 floor %d", sol.RankRegret, floor)
	}
}

// TestTwoSolversAgreeIn2D cross-validates HDRRM against the exact 2D DP:
// HDRRM cannot beat the optimum, and on easy data it should land within a
// small factor of it.
func TestTwoSolversAgreeIn2D(t *testing.T) {
	ds := rankregret.GenerateIndependent(41, 1000, 2)
	exact, err := rankregret.Solve(t.Context(), ds, 6, &rankregret.Options{Algorithm: rankregret.AlgoTwoDRRM})
	if err != nil {
		t.Fatal(err)
	}
	hd, err := rankregret.Solve(t.Context(), ds, 6, &rankregret.Options{Algorithm: rankregret.AlgoHDRRM, MaxSamples: 4000})
	if err != nil {
		t.Fatal(err)
	}
	hdExact, err := rankregret.EvaluateRankRegret2D(ds, hd.IDs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if hdExact < exact.RankRegret {
		t.Errorf("HDRRM output has exact regret %d below the DP optimum %d — DP is not optimal?",
			hdExact, exact.RankRegret)
	}
	if hdExact > 10*exact.RankRegret+10 {
		t.Errorf("HDRRM exact regret %d far above the optimum %d", hdExact, exact.RankRegret)
	}
}

// TestDualAndPrimalConsistency: solving RRM with budget r yields regret k;
// solving RRR with threshold k must need at most r tuples (in 2D both are
// exact, so this is a hard invariant, not a heuristic check).
func TestDualAndPrimalConsistency(t *testing.T) {
	ds := rankregret.GenerateAnticorrelated(51, 700, 2)
	for _, r := range []int{2, 4, 6} {
		primal, err := rankregret.Solve(t.Context(), ds, r, nil)
		if err != nil {
			t.Fatal(err)
		}
		dual, err := rankregret.SolveRRR(t.Context(), ds, primal.RankRegret, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(dual.IDs) > r {
			t.Errorf("r=%d: RRM achieved k=%d but RRR(k) needs %d > r tuples",
				r, primal.RankRegret, len(dual.IDs))
		}
		if dual.RankRegret > primal.RankRegret {
			t.Errorf("r=%d: RRR returned regret %d above its threshold %d",
				r, dual.RankRegret, primal.RankRegret)
		}
	}
}

// TestMonotonicityInBudget: the optimal rank-regret is non-increasing in r
// (supersets can only help; Definition 2's monotonicity).
func TestMonotonicityInBudget(t *testing.T) {
	ds := rankregret.GenerateAnticorrelated(61, 900, 2)
	prev := math.MaxInt
	for r := 1; r <= 8; r++ {
		sol, err := rankregret.Solve(t.Context(), ds, r, nil)
		if err != nil {
			t.Fatal(err)
		}
		if sol.RankRegret > prev {
			t.Errorf("optimal regret increased from %d to %d when r grew to %d", prev, sol.RankRegret, r)
		}
		prev = sol.RankRegret
	}
}

// TestPreferenceSamplerEndToEnd: the public Sampler hooks compose with
// Solve and concentrate quality where the users are.
func TestPreferenceSamplerEndToEnd(t *testing.T) {
	ds := rankregret.GenerateAnticorrelated(71, 1500, 3)
	a, err := rankregret.GaussianPreference([]float64{0.8, 0.15, 0.05}, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	b, err := rankregret.GaussianPreference([]float64{0.05, 0.15, 0.8}, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	mix, err := rankregret.MixturePreference([]float64{1, 1}, []rankregret.Sampler{a, b})
	if err != nil {
		t.Fatal(err)
	}
	sol, err := rankregret.Solve(t.Context(), ds, 8, &rankregret.Options{
		Algorithm:  rankregret.AlgoHDRRM,
		Sampler:    mix,
		MaxSamples: 2000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(sol.IDs) == 0 || len(sol.IDs) > 8 {
		t.Fatalf("|S| = %d", len(sol.IDs))
	}
	// Quality near each archetype should be decent even though the
	// full-space regret on anti-correlated data is large.
	ball1, err := rankregret.BallSpace([]float64{0.8, 0.15, 0.08}, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	got, err := rankregret.EvaluateRankRegret(ds, sol.IDs, ball1, 4000, 7)
	if err != nil {
		t.Fatal(err)
	}
	if got > ds.N()/4 {
		t.Errorf("regret near archetype A = %d, suspiciously bad", got)
	}
}

// TestSolveVariantPublicAPI exercises the ablation entry point.
func TestSolveVariantPublicAPI(t *testing.T) {
	ds := rankregret.GenerateIndependent(81, 400, 3)
	for _, v := range []rankregret.HDRRMVariant{
		{}, {NoBasis: true}, {NoGrid: true}, {NoSamples: true},
	} {
		sol, err := rankregret.SolveVariant(t.Context(), ds, 6, &rankregret.Options{MaxSamples: 1000}, v)
		if err != nil {
			t.Errorf("%s: %v", v.Name(), err)
			continue
		}
		if len(sol.IDs) == 0 || len(sol.IDs) > 6 {
			t.Errorf("%s: |S| = %d", v.Name(), len(sol.IDs))
		}
	}
	if _, err := rankregret.SolveVariant(t.Context(), ds, 6, nil, rankregret.HDRRMVariant{NoGrid: true, NoSamples: true}); err == nil {
		t.Error("impossible variant should fail")
	}
	if _, err := rankregret.SolveVariant(t.Context(), nil, 6, nil, rankregret.HDRRMVariant{}); err == nil {
		t.Error("nil dataset should fail")
	}
	if _, err := rankregret.SolveVariant(t.Context(), ds, 0, nil, rankregret.HDRRMVariant{}); err == nil {
		t.Error("r=0 should fail")
	}
}

// TestAdaptiveEstimatorPublicAPI checks the adaptive evaluator against the
// exact 2D sweep through the public API.
func TestAdaptiveEstimatorPublicAPI(t *testing.T) {
	ds := rankregret.GenerateAnticorrelated(91, 800, 2)
	sol, err := rankregret.Solve(t.Context(), ds, 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	exact, err := rankregret.EvaluateRankRegret2D(ds, sol.IDs, nil)
	if err != nil {
		t.Fatal(err)
	}
	ada, err := rankregret.EvaluateRankRegretAdaptive(ds, sol.IDs, nil, 4000, 3)
	if err != nil {
		t.Fatal(err)
	}
	if ada > exact {
		t.Errorf("adaptive estimate %d exceeds exact %d", ada, exact)
	}
	if ada < exact-2 {
		t.Errorf("adaptive estimate %d too far below exact %d", ada, exact)
	}
}

// TestRMSShiftVarianceTableI pins the paper's motivating example (Section
// II, Figures 1-2): on Table I the RMS objective picks t4; after shifting
// attribute A2 by +4 — which changes nothing about the data's order
// structure — RMS flips to t7, the tuple with the worst rank on A2, while
// RRM stays on t3 (Theorem 1).
func TestRMSShiftVarianceTableI(t *testing.T) {
	ds, err := rankregret.NewDataset([][]float64{
		{0, 1}, {0.4, 0.95}, {0.57, 0.75}, {0.79, 0.6}, {0.2, 0.5}, {0.35, 0.3}, {1, 0},
	})
	if err != nil {
		t.Fatal(err)
	}
	rms, err := rankregret.Solve(t.Context(), ds, 1, &rankregret.Options{Algorithm: rankregret.AlgoRMSGreedy})
	if err != nil {
		t.Fatal(err)
	}
	if len(rms.IDs) != 1 || rms.IDs[0] != 3 {
		t.Errorf("RMS on Table I chose %v, paper says t4 (id 3)", rms.IDs)
	}
	shifted := ds.Clone()
	shifted.Shift([]float64{0, 4})
	rms2, err := rankregret.Solve(t.Context(), shifted, 1, &rankregret.Options{Algorithm: rankregret.AlgoRMSGreedy})
	if err != nil {
		t.Fatal(err)
	}
	if len(rms2.IDs) != 1 || rms2.IDs[0] != 6 {
		t.Errorf("RMS on shifted Table I chose %v, paper says t7 (id 6)", rms2.IDs)
	}
	rrm, err := rankregret.Solve(t.Context(), shifted, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rrm.IDs) != 1 || rrm.IDs[0] != 2 {
		t.Errorf("RRM on shifted Table I chose %v, want t3 (id 2)", rrm.IDs)
	}
}
