package rankregret_test

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"

	"github.com/rankregret/rankregret"
)

func tableI(t testing.TB) *rankregret.Dataset {
	t.Helper()
	ds, err := rankregret.NewDataset([][]float64{
		{0, 1}, {0.4, 0.95}, {0.57, 0.75}, {0.79, 0.6}, {0.2, 0.5}, {0.35, 0.3}, {1, 0},
	})
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestSolveTableI(t *testing.T) {
	ds := tableI(t)
	sol, err := rankregret.Solve(t.Context(), ds, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(sol.IDs) != 1 || sol.IDs[0] != 2 {
		t.Errorf("RRM r=1 on Table I chose %v, want [2] (t3)", sol.IDs)
	}
	if !sol.Exact || sol.Algorithm != rankregret.AlgoTwoDRRM {
		t.Errorf("expected exact 2D solve, got exact=%v algo=%q", sol.Exact, sol.Algorithm)
	}
	if sol.RankRegret != 3 {
		t.Errorf("rank-regret = %d, want 3 (t3's worst rank over L)", sol.RankRegret)
	}
}

func TestSolveAutoPicksHDRRMFor3D(t *testing.T) {
	ds := rankregret.GenerateIndependent(1, 300, 3)
	sol, err := rankregret.Solve(t.Context(), ds, 6, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Algorithm != rankregret.AlgoHDRRM {
		t.Errorf("auto algorithm for d=3 = %q, want hdrrm", sol.Algorithm)
	}
	if len(sol.IDs) > 6 {
		t.Errorf("|S| = %d exceeds budget 6", len(sol.IDs))
	}
}

func TestSolveValidation(t *testing.T) {
	ds := tableI(t)
	if _, err := rankregret.Solve(t.Context(), nil, 1, nil); err == nil {
		t.Error("Solve(nil) should fail")
	}
	if _, err := rankregret.Solve(t.Context(), ds, 0, nil); err == nil {
		t.Error("Solve with r=0 should fail")
	}
	if _, err := rankregret.Solve(t.Context(), ds, 1, &rankregret.Options{Algorithm: "bogus"}); err == nil {
		t.Error("unknown algorithm should fail")
	}
	d3 := rankregret.GenerateIndependent(1, 50, 3)
	if _, err := rankregret.Solve(t.Context(), d3, 2, &rankregret.Options{Algorithm: rankregret.AlgoTwoDRRM}); err != rankregret.ErrDimension {
		t.Errorf("2drrm on d=3: err = %v, want ErrDimension", err)
	}
}

func TestSolveRRRExact2D(t *testing.T) {
	ds := rankregret.GenerateAnticorrelated(5, 400, 2)
	sol, err := rankregret.SolveRRR(t.Context(), ds, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !sol.Exact {
		t.Error("2D RRR should be exact")
	}
	got, err := rankregret.EvaluateRankRegret2D(ds, sol.IDs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got > 3 {
		t.Errorf("RRR(k=3) returned a set with exact rank-regret %d", got)
	}
	// Minimality: every strictly smaller set must exceed the threshold.
	if len(sol.IDs) > 1 {
		smaller, err := rankregret.Solve(t.Context(), ds, len(sol.IDs)-1, nil)
		if err != nil {
			t.Fatal(err)
		}
		if smaller.RankRegret <= 3 {
			t.Errorf("a size-%d set achieves rank-regret %d <= 3, so RRR output (size %d) is not minimal",
				len(smaller.IDs), smaller.RankRegret, len(sol.IDs))
		}
	}
}

func TestSolveRRRValidation(t *testing.T) {
	ds := tableI(t)
	if _, err := rankregret.SolveRRR(t.Context(), ds, 0, nil); err == nil {
		t.Error("k=0 should fail")
	}
	if _, err := rankregret.SolveRRR(t.Context(), ds, 100, nil); err == nil {
		t.Error("k>n should fail")
	}
}

func TestSolveRRRHighDim(t *testing.T) {
	ds := rankregret.GenerateIndependent(3, 500, 3)
	sol, err := rankregret.SolveRRR(t.Context(), ds, 25, &rankregret.Options{MaxSamples: 2000})
	if err != nil {
		t.Fatal(err)
	}
	got, err := rankregret.EvaluateRankRegret(ds, sol.IDs, nil, 5000, 99)
	if err != nil {
		t.Fatal(err)
	}
	// Theorem 9 guarantees <= k on the discretized space; the sampled
	// estimate over the full space may exceed it slightly.
	if got > 3*25 {
		t.Errorf("RRR(k=25) estimated rank-regret %d, far above the threshold", got)
	}
}

func TestRestrictedSolveImprovesRegret(t *testing.T) {
	ds := rankregret.GenerateAnticorrelated(9, 3000, 4)
	cone, err := rankregret.WeakRankingSpace(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	full, err := rankregret.Solve(t.Context(), ds, 8, &rankregret.Options{MaxSamples: 2000})
	if err != nil {
		t.Fatal(err)
	}
	restricted, err := rankregret.Solve(t.Context(), ds, 8, &rankregret.Options{Space: cone, MaxSamples: 2000})
	if err != nil {
		t.Fatal(err)
	}
	fullEst, err := rankregret.EvaluateRankRegret(ds, full.IDs, cone, 8000, 5)
	if err != nil {
		t.Fatal(err)
	}
	restEst, err := rankregret.EvaluateRankRegret(ds, restricted.IDs, cone, 8000, 5)
	if err != nil {
		t.Fatal(err)
	}
	// The RRRM solve targets exactly the cone, so it should do at least
	// as well there as the RRM solve does (generous slack for sampling).
	if restEst > 3*fullEst+10 {
		t.Errorf("restricted solve rank-regret %d on U vs %d for the full solve", restEst, fullEst)
	}
}

func TestAllBaselinesRun(t *testing.T) {
	ds := rankregret.GenerateIndependent(17, 400, 3)
	for _, algo := range []rankregret.Algorithm{
		rankregret.AlgoHDRRM, rankregret.AlgoMDRRRr, rankregret.AlgoMDRC,
		rankregret.AlgoMDRMS, rankregret.AlgoMDRRR, rankregret.AlgoRMSGreedy,
		rankregret.AlgoSkylineOnly,
	} {
		sol, err := rankregret.Solve(t.Context(), ds, 8, &rankregret.Options{Algorithm: algo, MaxSamples: 1000})
		if err != nil {
			t.Errorf("%s: %v", algo, err)
			continue
		}
		if len(sol.IDs) == 0 || len(sol.IDs) > 8 {
			t.Errorf("%s: |S| = %d, want in [1, 8]", algo, len(sol.IDs))
		}
		for _, id := range sol.IDs {
			if id < 0 || id >= ds.N() {
				t.Errorf("%s: id %d out of range", algo, id)
			}
		}
	}
}

func TestShiftInvariancePublicAPI(t *testing.T) {
	ds := rankregret.GenerateAnticorrelated(23, 500, 2)
	sol, err := rankregret.Solve(t.Context(), ds, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	shifted := ds.Clone()
	shifted.Shift([]float64{3.5, 0.25})
	sol2, err := rankregret.Solve(t.Context(), shifted, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sol.RankRegret != sol2.RankRegret {
		t.Errorf("rank-regret changed under shifting: %d -> %d (violates Theorem 1)",
			sol.RankRegret, sol2.RankRegret)
	}
}

func TestCSVRoundTrip(t *testing.T) {
	ds := tableI(t)
	var buf bytes.Buffer
	if err := rankregret.WriteCSV(&buf, ds); err != nil {
		t.Fatal(err)
	}
	back, err := rankregret.ReadCSV(&buf, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	if back.N() != ds.N() || back.Dim() != ds.Dim() {
		t.Fatalf("round trip changed shape: %dx%d -> %dx%d", ds.N(), ds.Dim(), back.N(), back.Dim())
	}
	for i := 0; i < ds.N(); i++ {
		for j := 0; j < ds.Dim(); j++ {
			if ds.Value(i, j) != back.Value(i, j) {
				t.Fatalf("value (%d,%d) changed: %v -> %v", i, j, ds.Value(i, j), back.Value(i, j))
			}
		}
	}
}

func TestReadCSVNegate(t *testing.T) {
	in := "price,quality\n10,0.5\n20,0.9\n"
	ds, err := rankregret.ReadCSV(strings.NewReader(in), true, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	if ds.Value(0, 0) != -10 || ds.Value(1, 0) != -20 {
		t.Errorf("negate failed: col0 = %v, %v", ds.Value(0, 0), ds.Value(1, 0))
	}
	if _, err := rankregret.ReadCSV(strings.NewReader(in), true, []int{5}); err == nil {
		t.Error("out-of-range negate column should fail")
	}
}

func TestSkylineAndTopKHelpers(t *testing.T) {
	ds := tableI(t)
	sky := rankregret.Skyline(ds)
	want := map[int]bool{0: true, 1: true, 2: true, 3: true, 6: true}
	if len(sky) != len(want) {
		t.Fatalf("skyline = %v, want 5 tuples", sky)
	}
	for _, id := range sky {
		if !want[id] {
			t.Errorf("tuple %d should not be on the skyline", id)
		}
	}
	top := rankregret.TopK(ds, []float64{0.5, 0.5}, 2)
	if len(top) != 2 {
		t.Fatalf("TopK returned %v", top)
	}
	// u=(0.5,0.5): utilities are .5 .675 .66 .695 .35 .325 .5 -> best t4 (id 3), then t2 (id 1).
	if top[0] != 3 || top[1] != 1 {
		t.Errorf("TopK = %v, want [3 1]", top)
	}
	if r := rankregret.Rank(ds, []float64{0.5, 0.5}, 3); r != 1 {
		t.Errorf("Rank of id 3 = %d, want 1", r)
	}
}

func TestEvaluateHelpers(t *testing.T) {
	ds := rankregret.GenerateIndependent(5, 200, 2)
	sol, err := rankregret.Solve(t.Context(), ds, 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	exact, err := rankregret.EvaluateRankRegret2D(ds, sol.IDs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if exact != sol.RankRegret {
		t.Errorf("exact sweep = %d, DP reported %d", exact, sol.RankRegret)
	}
	est, err := rankregret.EvaluateRankRegret(ds, sol.IDs, nil, 20000, 11)
	if err != nil {
		t.Fatal(err)
	}
	if est > exact {
		t.Errorf("sampled estimate %d exceeds exact %d", est, exact)
	}
	rr, err := rankregret.EvaluateRegretRatio(ds, sol.IDs, nil, 5000, 11)
	if err != nil {
		t.Fatal(err)
	}
	if rr < 0 || rr > 1 {
		t.Errorf("regret-ratio = %v, want within [0,1]", rr)
	}
	ratio, err := rankregret.RatK(ds, sol.IDs, nil, exact, 5000, 11)
	if err != nil {
		t.Fatal(err)
	}
	if ratio != 1 {
		t.Errorf("Rat_k at the exact rank-regret = %v, want 1 (Lemma 1)", ratio)
	}
}

func TestGenerators(t *testing.T) {
	cases := []struct {
		name string
		ds   *rankregret.Dataset
		n, d int
	}{
		{"indep", rankregret.GenerateIndependent(1, 100, 3), 100, 3},
		{"corr", rankregret.GenerateCorrelated(1, 100, 3), 100, 3},
		{"anti", rankregret.GenerateAnticorrelated(1, 100, 3), 100, 3},
		{"quarter", rankregret.GenerateQuarterCircle(100, 2), 100, 2},
		{"island", rankregret.SimIsland(1, 500), 500, 2},
		{"nba", rankregret.SimNBA(1, 500), 500, 5},
		{"weather", rankregret.SimWeather(1, 500), 500, 4},
	}
	for _, tc := range cases {
		if tc.ds.N() != tc.n || tc.ds.Dim() != tc.d {
			t.Errorf("%s: got %dx%d, want %dx%d", tc.name, tc.ds.N(), tc.ds.Dim(), tc.n, tc.d)
		}
		for i := 0; i < tc.ds.N(); i++ {
			for j := 0; j < tc.ds.Dim(); j++ {
				v := tc.ds.Value(i, j)
				if v < 0 || v > 1 {
					t.Fatalf("%s: value (%d,%d) = %v outside [0,1]", tc.name, i, j, v)
				}
			}
		}
	}
}

func TestSpaceConstructors(t *testing.T) {
	if _, err := rankregret.WeakRankingSpace(4, 2); err != nil {
		t.Error(err)
	}
	if _, err := rankregret.WeakRankingSpace(2, 5); err == nil {
		t.Error("c >= d should fail")
	}
	if _, err := rankregret.BallSpace([]float64{0.5, 0.5}, 0.1); err != nil {
		t.Error(err)
	}
	if _, err := rankregret.BallSpace([]float64{0.05, 0.5}, 0.1); err == nil {
		t.Error("ball leaving the orthant should fail")
	}
	if _, err := rankregret.PolytopeSpace(2, [][]float64{{1, -1}}, []float64{0}); err != nil {
		t.Error(err)
	}
	if sp := rankregret.FullSpace(3); sp.Dim() != 3 {
		t.Errorf("FullSpace dim = %d", sp.Dim())
	}
}

func TestHDRRMBeatsBaselinesOnAnticorrelated(t *testing.T) {
	// The paper's headline experimental finding: HDRRM always has the
	// lowest output rank-regret; MDRC or MDRMS have the worst.
	ds := rankregret.GenerateAnticorrelated(31, 4000, 4)
	regret := func(algo rankregret.Algorithm) int {
		t.Helper()
		sol, err := rankregret.Solve(t.Context(), ds, 10, &rankregret.Options{Algorithm: algo, MaxSamples: 4000})
		if err != nil {
			t.Fatal(err)
		}
		est, err := rankregret.EvaluateRankRegret(ds, sol.IDs, nil, 20000, 13)
		if err != nil {
			t.Fatal(err)
		}
		return est
	}
	hd := regret(rankregret.AlgoHDRRM)
	mdrc := regret(rankregret.AlgoMDRC)
	mdrms := regret(rankregret.AlgoMDRMS)
	if hd > mdrc && hd > mdrms {
		t.Errorf("HDRRM regret %d worse than both MDRC (%d) and MDRMS (%d)", hd, mdrc, mdrms)
	}
	worst := mdrc
	if mdrms > worst {
		worst = mdrms
	}
	if worst < hd {
		t.Errorf("expected MDRC/MDRMS to be the worst; HDRRM=%d MDRC=%d MDRMS=%d", hd, mdrc, mdrms)
	}
}

func TestTopKSets2DPublicAPI(t *testing.T) {
	ds := tableI(t)
	sets, err := rankregret.TopKSets2D(t.Context(), ds, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(sets) == 0 {
		t.Fatal("no top-1 sets")
	}
	// Hitting every 1-set is equivalent to rank-regret 1: the union of all
	// top-1 winners must therefore have rank-regret exactly 1.
	var union []int
	seen := map[int]bool{}
	for _, s := range sets {
		if len(s) != 1 {
			t.Fatalf("1-set with %d members", len(s))
		}
		if !seen[s[0]] {
			seen[s[0]] = true
			union = append(union, s[0])
		}
	}
	got, err := rankregret.EvaluateRankRegret2D(ds, union, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got != 1 {
		t.Errorf("union of top-1 winners has rank-regret %d, want 1", got)
	}
	if _, err := rankregret.TopKSets2D(t.Context(), ds, 0); err == nil {
		t.Error("k=0 should fail")
	}
	cancelled, cancel := context.WithCancel(t.Context())
	cancel()
	if _, err := rankregret.TopKSets2D(cancelled, ds, 1); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled ctx: err = %v, want context.Canceled", err)
	}
}

func TestRankRegretPercent(t *testing.T) {
	if got := rankregret.RankRegretPercent(6, 600); got != 1 {
		t.Errorf("6/600 = %v%%, want 1", got)
	}
	if got := rankregret.RankRegretPercent(1, 0); got != 0 {
		t.Errorf("n=0 should give 0, got %v", got)
	}
}

func TestSolveRRRRestricted2D(t *testing.T) {
	ds := rankregret.GenerateAnticorrelated(33, 400, 2)
	cone, err := rankregret.WeakRankingSpace(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	sol, err := rankregret.SolveRRR(t.Context(), ds, 3, &rankregret.Options{Space: cone})
	if err != nil {
		t.Fatal(err)
	}
	if !sol.Exact {
		t.Error("restricted 2D RRR should be exact")
	}
	got, err := rankregret.EvaluateRankRegret2D(ds, sol.IDs, cone)
	if err != nil {
		t.Fatal(err)
	}
	if got > 3 {
		t.Errorf("restricted RRR(k=3) has rank-regret %d on the cone", got)
	}
	// The restricted dual never needs more tuples than the full dual.
	full, err := rankregret.SolveRRR(t.Context(), ds, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(sol.IDs) > len(full.IDs) {
		t.Errorf("restricted RRR uses %d tuples, full-space uses %d", len(sol.IDs), len(full.IDs))
	}
}

// TestSolveSweep checks the sweep entry point: each returned solution is
// identical to the corresponding single Solve call, sizes respect their
// budgets, and the achieved rank-regret never worsens as the budget grows.
func TestSolveSweep(t *testing.T) {
	ds := rankregret.GenerateAnticorrelated(9, 150, 3)
	opts := &rankregret.Options{Algorithm: rankregret.AlgoHDRRM, Samples: 300, Gamma: 3, Seed: 2}
	rs := []int{4, 5, 6, 7, 8}
	sols, err := rankregret.SolveSweep(t.Context(), ds, rs, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(sols) != len(rs) {
		t.Fatalf("sweep returned %d solutions for %d budgets", len(sols), len(rs))
	}
	prev := ds.N() + 1
	for i, r := range rs {
		single, err := rankregret.Solve(t.Context(), ds, r, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(sols[i], single) {
			t.Errorf("r=%d: sweep solution %+v != single solve %+v", r, sols[i], single)
		}
		if len(sols[i].IDs) > r {
			t.Errorf("r=%d: solution size %d exceeds budget", r, len(sols[i].IDs))
		}
		if sols[i].RankRegret > prev {
			t.Errorf("r=%d: rank-regret %d worse than smaller budget's %d", r, sols[i].RankRegret, prev)
		}
		prev = sols[i].RankRegret
	}

	if _, err := rankregret.SolveSweep(t.Context(), ds, nil, opts); err == nil {
		t.Error("empty sweep should error")
	}
	if _, err := rankregret.SolveSweep(t.Context(), ds, []int{4, 0}, opts); err == nil {
		t.Error("sweep with an invalid budget should error")
	}
}
