package engine

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"github.com/rankregret/rankregret/internal/algohd"
	"github.com/rankregret/rankregret/internal/dataset"
	"github.com/rankregret/rankregret/internal/topk"
	"github.com/rankregret/rankregret/internal/xrand"
)

// propertyDatasets enumerates the randomized workloads the property harness
// sweeps: every generator family at 2 and 3 dimensions, several seeds.
func propertyDatasets() []struct {
	name string
	ds   *dataset.Dataset
} {
	type gen struct {
		name string
		make func(rng *xrand.Rand, n, d int) *dataset.Dataset
	}
	gens := []gen{
		{"indep", dataset.Independent},
		{"corr", dataset.Correlated},
		{"anti", dataset.Anticorrelated},
	}
	var out []struct {
		name string
		ds   *dataset.Dataset
	}
	for _, g := range gens {
		for _, d := range []int{2, 3} {
			for _, seed := range []int64{1, 2} {
				out = append(out, struct {
					name string
					ds   *dataset.Dataset
				}{
					name: fmt.Sprintf("%s/d%d/seed%d", g.name, d, seed),
					ds:   g.make(xrand.New(seed), 90, d),
				})
			}
		}
	}
	return out
}

// checkWellFormed asserts the structural contract every solver shares: a
// non-empty output of at most r distinct, in-range ids in ascending order.
func checkWellFormed(t *testing.T, ds *dataset.Dataset, r int, sol *Solution) {
	t.Helper()
	if len(sol.IDs) == 0 {
		t.Fatalf("empty solution")
	}
	if len(sol.IDs) > r {
		t.Fatalf("solution size %d exceeds budget r=%d", len(sol.IDs), r)
	}
	prev := -1
	for _, id := range sol.IDs {
		if id < 0 || id >= ds.N() {
			t.Fatalf("id %d out of range [0, %d)", id, ds.N())
		}
		if id <= prev {
			t.Fatalf("ids not strictly ascending: %v", sol.IDs)
		}
		prev = id
	}
}

// TestSolverProperties runs every registered algorithm over randomized
// datasets and checks the guarantees each one actually makes:
//
//   - all: well-formed output (non-empty, <= r, sorted unique in range);
//   - exact solvers (2drrm, 2drrr): no sampled direction may find a rank
//     worse than the reported rank-regret;
//   - hdrrm: the Theorem 9/10 guarantee with respect to its discretized
//     vector set D — rebuilding the exact same D, every direction in it
//     must rank some chosen tuple at or above the reported threshold.
func TestSolverProperties(t *testing.T) {
	const r = 6
	e := New(0)
	for _, tc := range propertyDatasets() {
		for _, algo := range Algorithms() {
			if strings.HasPrefix(algo, "test-") {
				continue // test-only scheduler fixtures, not real solvers
			}
			t.Run(tc.name+"/"+algo, func(t *testing.T) {
				ds := tc.ds
				opts := Options{Seed: 3, Samples: 250, Gamma: 3}
				sol, err := e.Solve(context.Background(), ds, r, algo, opts)
				if errors.Is(err, ErrDimension) {
					if ds.Dim() == 2 {
						t.Fatalf("2D-only solver refused a 2D dataset")
					}
					return
				}
				if err != nil {
					t.Fatal(err)
				}
				checkWellFormed(t, ds, r, sol)

				if sol.Exact && sol.RankRegret > 0 {
					// No sampled utility direction may beat the reported
					// exact rank-regret.
					rng := xrand.New(11)
					scores := make([]float64, ds.N())
					for i := 0; i < 400; i++ {
						u := rng.UnitOrthantDirection(ds.Dim())
						if got := topk.RankOfSet(ds, u, sol.IDs, scores); got > sol.RankRegret {
							t.Fatalf("sampled direction ranks best member %d, worse than exact rank-regret %d", got, sol.RankRegret)
						}
					}
				}

				if algo == AlgoHDRRM {
					// Theorem 9/10: reported K is a hard guarantee over the
					// discrete set D the solver used. Rebuild that D and
					// verify every direction is covered within K.
					ho := opts.hd()
					m := ho.SampleSize(ds.N(), ds.Dim(), r)
					vs, err := algohd.BuildVecSetCtx(t.Context(), ds, nil, ho.EffectiveGamma(), m, xrand.New(ho.Seed))
					if err != nil {
						t.Fatal(err)
					}
					scores := make([]float64, ds.N())
					for v := 0; v < vs.Len(); v++ {
						if got := topk.RankOfSet(ds, vs.Vecs[v], sol.IDs, scores); got > sol.RankRegret {
							t.Fatalf("direction %d of D ranks best member %d, violating the guaranteed threshold %d", v, got, sol.RankRegret)
						}
					}
				}
			})
		}
	}
}

// TestSolverMonotonicity checks the two monotone shapes a budget sweep must
// have: the achieved rank-regret never worsens as r grows (primal), and the
// minimal representative set never grows as the threshold k relaxes (dual,
// exact 2D solver). hdrrm runs with a fixed sample count so every budget
// shares one discretization, which is what the engine's sweep path does.
func TestSolverMonotonicity(t *testing.T) {
	ctx := context.Background()

	t.Run("2drrm/primal", func(t *testing.T) {
		e := New(0)
		ds := dataset.Anticorrelated(xrand.New(4), 200, 2)
		prev := ds.N() + 1
		for r := 1; r <= 10; r++ {
			sol, err := e.Solve(ctx, ds, r, AlgoTwoDRRM, Options{Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			if sol.RankRegret > prev {
				t.Fatalf("r=%d: exact rank-regret %d worse than %d at smaller budget", r, sol.RankRegret, prev)
			}
			prev = sol.RankRegret
		}
	})

	t.Run("2drrm/dual", func(t *testing.T) {
		e := New(0)
		ds := dataset.Anticorrelated(xrand.New(5), 200, 2)
		prev := ds.N() + 1
		for _, k := range []int{1, 2, 4, 8, 16, 32} {
			sol, err := e.SolveRRR(ctx, ds, k, AlgoTwoDRRM, Options{Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			if len(sol.IDs) > prev {
				t.Fatalf("k=%d: minimal set size %d grew from %d at stricter threshold", k, len(sol.IDs), prev)
			}
			prev = len(sol.IDs)
		}
	})

	t.Run("hdrrm/primal", func(t *testing.T) {
		e := New(0)
		ds := dataset.Anticorrelated(xrand.New(6), 150, 3)
		opts := Options{Seed: 2, Samples: 300, Gamma: 3}
		prev := ds.N() + 1
		for r := 4; r <= 10; r++ {
			sol, err := e.Solve(ctx, ds, r, AlgoHDRRM, opts)
			if err != nil {
				t.Fatal(err)
			}
			if sol.RankRegret > prev {
				t.Fatalf("r=%d: guaranteed threshold %d worse than %d at smaller budget", r, sol.RankRegret, prev)
			}
			prev = sol.RankRegret
		}
		// The whole sweep shares one discretization.
		if st := e.VecSetStats(); st.Builds != 1 {
			t.Errorf("sweep built %d vector sets, want 1", st.Builds)
		}
	})
}
