// Package rankregret implements the rank-regret minimization (RRM) problem
// and its restricted variant (RRRM) from "Rank-Regret Minimization",
// Xiao & Li, ICDE 2022 (arXiv:2111.08563).
//
// Given a dataset D of n tuples over d numeric attributes, RRM asks for a
// subset S of at most r tuples that minimizes the maximum, over every linear
// utility function u >= 0, of the best rank any member of S achieves in the
// list of D sorted by u. Intuitively: no matter which (unknown) linear
// preference a user holds, S contains a tuple ranked at most RankRegret(S)
// for that preference. RRRM restricts the adversary to a convex sub-space U
// of utility vectors (e.g. "attribute 1 matters at least as much as
// attribute 2").
//
// The package exposes two solvers from the paper:
//
//   - TwoDRRM: an exact dynamic program over convex chains in dual space,
//     for d = 2 (RRM is in P for two attributes). With s skyline
//     candidates it enumerates the O(s·n) candidate crossings, orders them
//     with a linear-time radix sort, counts start ranks in O(s·n), and runs
//     the DP in O(r·s·n).
//   - HDRRM: for any d, a double-approximation algorithm that discretizes
//     the utility sphere into samples plus a polar grid and solves a
//     sequence of greedy set covers (ASMS).
//
// plus the baselines the paper evaluates against (TwoDRRRBaseline, MDRRRr,
// MDRC, MDRMS), an evaluation toolbox, workload generators, and utility
// function spaces for RRRM. Everything is stdlib-only.
//
// Quick start:
//
//	ds, _ := rankregret.NewDataset(rows) // rows [][]float64, larger = better
//	sol, err := rankregret.Solve(ctx, ds, 5, nil)
//	fmt.Println(sol.IDs, sol.RankRegret)
package rankregret

import (
	"context"
	"errors"
	"fmt"
	"io"

	"github.com/rankregret/rankregret/internal/algo2d"
	"github.com/rankregret/rankregret/internal/algohd"
	"github.com/rankregret/rankregret/internal/dataset"
	"github.com/rankregret/rankregret/internal/engine"
	"github.com/rankregret/rankregret/internal/eval"
	"github.com/rankregret/rankregret/internal/funcspace"
	"github.com/rankregret/rankregret/internal/skyline"
	"github.com/rankregret/rankregret/internal/topk"
	"github.com/rankregret/rankregret/internal/xrand"
)

// Dataset is a row-major matrix of n tuples over d attributes, where on
// every attribute a larger value is preferred. Use Normalize to map each
// attribute to [0, 1] (the paper's setting), Negate for smaller-is-better
// attributes, and Shift to test shift invariance.
//
// Datasets are versioned and mutable: Append and Delete bump a monotone
// Version and record structured deltas (Deltas), and Snapshot takes a cheap
// same-lineage copy, which is how serving layers mutate without disturbing
// solves in flight. The engine repairs its cached per-vector top-K state
// incrementally across append/delete deltas, so solves after a small
// mutation skip most of the cold-build cost with bit-identical results.
type Dataset = dataset.Dataset

// NewDataset builds a Dataset from rows. All rows must have the same,
// non-zero number of attributes.
func NewDataset(rows [][]float64) (*Dataset, error) { return dataset.FromRows(rows) }

// ReadCSV reads a dataset from CSV. If header is true the first record
// names the attributes. Columns listed in negate are treated as
// smaller-is-better and negated on load (rank-regret is shift invariant, so
// no further re-scaling is needed; see Theorem 1).
func ReadCSV(r io.Reader, header bool, negate []int) (*Dataset, error) {
	ds, err := dataset.ReadCSV(r, header)
	if err != nil {
		return nil, err
	}
	for _, j := range negate {
		if j < 0 || j >= ds.Dim() {
			return nil, fmt.Errorf("rankregret: negate column %d out of range [0, %d)", j, ds.Dim())
		}
		ds.Negate(j)
	}
	return ds, nil
}

// WriteCSV writes a dataset as CSV with an attribute-name header.
func WriteCSV(w io.Writer, ds *Dataset) error { return ds.WriteCSV(w, true) }

// Space is a convex sub-space of the non-negative orthant of utility
// vectors, used to restrict RRRM. Implementations in this package: the full
// orthant, weak-ranking cones, convex polytopes, and balls around an
// estimated vector.
type Space = funcspace.Space

// FullSpace returns the unrestricted space L of all non-negative utility
// vectors in d dimensions. Solving with FullSpace is plain RRM.
func FullSpace(d int) Space { return funcspace.NewFull(d) }

// WeakRankingSpace returns the cone {u >= 0 : u[0] >= u[1] >= ... >= u[c]},
// the "weak rankings" restriction the paper uses in its RRRM experiments
// (Section VI.B.5): the first c+1 attributes are in non-increasing order of
// importance.
func WeakRankingSpace(d, c int) (Space, error) { return funcspace.WeakRanking(d, c) }

// PolytopeSpace returns the utility space {u >= 0 : A u <= b} (a convex
// polytope cone cross-section), the most general restriction supported.
func PolytopeSpace(d int, a [][]float64, b []float64) (Space, error) {
	return funcspace.NewPolytope(d, a, b)
}

// BallSpace returns the set of directions within L2 distance radius of the
// (normalized) center vector — the "estimated vector plus uncertainty"
// restriction of Mouratidis et al.
func BallSpace(center []float64, radius float64) (Space, error) {
	return funcspace.NewBall(center, radius)
}

// Algorithm selects a solver by its name in the engine registry.
type Algorithm string

// Available algorithms. Auto picks TwoDRRM for d = 2 and HDRRM otherwise.
const (
	Auto            Algorithm = ""
	AlgoTwoDRRM     Algorithm = engine.AlgoTwoDRRM     // exact DP, d = 2 only
	AlgoHDRRM       Algorithm = engine.AlgoHDRRM       // double approximation, any d
	AlgoTwoDRRR     Algorithm = engine.AlgoTwoDRRR     // Asudeh et al. 2D baseline, d = 2 only
	AlgoMDRRRr      Algorithm = engine.AlgoMDRRRr      // randomized k-set baseline
	AlgoMDRC        Algorithm = engine.AlgoMDRC        // space-partition heuristic baseline
	AlgoMDRMS       Algorithm = engine.AlgoMDRMS       // regret-ratio (RMS) baseline
	AlgoMDRRR       Algorithm = engine.AlgoMDRRR       // deterministic k-set baseline (small n only)
	AlgoRMSGreedy   Algorithm = engine.AlgoRMSGreedy   // classic greedy RMS
	AlgoSkylineOnly Algorithm = engine.AlgoSkylineOnly // returns the first r skyline tuples (naive)
)

// Algorithms returns the names of every solver registered with the engine,
// sorted. Each name is a valid Options.Algorithm value.
func Algorithms() []Algorithm {
	names := engine.Algorithms()
	out := make([]Algorithm, len(names))
	for i, n := range names {
		out[i] = Algorithm(n)
	}
	return out
}

// Options configures Solve. The zero value (and nil) mean: pick the
// algorithm automatically, solve plain RRM with the paper's default
// parameters, seed 1.
type Options struct {
	// Algorithm selects a solver; Auto picks by dimensionality.
	Algorithm Algorithm
	// Space restricts the utility space (nil = full orthant = RRM).
	Space Space
	// Gamma is HDRRM's polar-grid resolution (0 = paper default 6).
	Gamma int
	// Delta is HDRRM's error probability from Theorem 10 (0 = paper
	// default 0.03). Smaller delta means more samples and lower regret.
	Delta float64
	// Samples overrides HDRRM's sample count m (0 = Theorem 10 formula).
	Samples int
	// MaxSamples caps the Theorem 10 formula so huge instances stay
	// tractable (0 = library default 50 000; negative = uncapped).
	MaxSamples int
	// Seed drives all randomness. 0 means seed 1, so results are
	// reproducible by default.
	Seed int64
	// Sampler overrides the user-preference distribution HDRRM samples
	// its directions from (nil = uniform on the space), the paper's
	// Section V.C generalization. See GaussianPreference and
	// MixturePreference.
	Sampler Sampler
	// Parallelism bounds the worker goroutines HDRRM's top-K scoring
	// passes — the dominant cost of a cold solve — may use (0 =
	// GOMAXPROCS). Results are bit-identical at every setting; the knob
	// trades latency for CPU share, e.g. in a daemon running many solves
	// concurrently.
	Parallelism int
}

// Sampler draws one utility direction; it models a non-uniform user
// preference distribution for HDRRM (paper Section V.C).
type Sampler = algohd.Sampler

// GaussianPreference returns a Sampler around a central preference vector
// with isotropic Gaussian noise sigma, projected back to the unit sphere.
func GaussianPreference(center []float64, sigma float64) (Sampler, error) {
	return algohd.GaussianPreference(center, sigma)
}

// MixturePreference returns a Sampler over a finite mixture of samplers
// with the given non-negative weights — a population of user archetypes.
func MixturePreference(weights []float64, samplers []Sampler) (Sampler, error) {
	return algohd.MixturePreference(weights, samplers)
}

// HDRRMVariant selects an HDRRM ablation for SolveVariant: the zero value
// is the full algorithm, and each field removes one ingredient (the forced
// basis, the polar grid Db, or the sampled directions Da). Ablations give
// up parts of Theorem 10's guarantee: the basis carries Theorem 7's
// worst-case bound, the grid its deterministic closeness, and the samples
// Theorem 6's distributional bound.
type HDRRMVariant = algohd.Variant

// SolveVariant runs an HDRRM ablation (see HDRRMVariant). Library users
// solving real problems should call Solve; this entry point exists for the
// ablation benchmarks and for studying the algorithm's design choices.
// Cancelling ctx aborts the solve from inside its hot loops.
func SolveVariant(ctx context.Context, ds *Dataset, r int, opts *Options, v HDRRMVariant) (*Solution, error) {
	if ds == nil || ds.N() == 0 {
		return nil, errors.New("rankregret: empty dataset")
	}
	if r < 1 {
		return nil, fmt.Errorf("rankregret: output size r = %d, need >= 1", r)
	}
	o := opts.orDefault()
	sol, err := engine.Default.SolveWith(ctx, ds, r, engine.VariantSolver(v), o.engineOptions())
	if err != nil {
		return nil, translateEngineErr(err)
	}
	return fromEngine(sol), nil
}

func (o *Options) orDefault() Options {
	var v Options
	if o != nil {
		v = *o
	}
	if v.Seed == 0 {
		v.Seed = 1
	}
	return v
}

// engineOptions converts the public Options to the engine's option struct.
func (o Options) engineOptions() engine.Options {
	return engine.Options{
		Space:       o.Space,
		Gamma:       o.Gamma,
		Delta:       o.Delta,
		Samples:     o.Samples,
		MaxSamples:  o.MaxSamples,
		Seed:        o.Seed,
		Sampler:     o.Sampler,
		Parallelism: o.Parallelism,
	}
}

// translateEngineErr maps engine sentinel errors to this package's public
// ones so callers comparing against ErrDimension keep working.
func translateEngineErr(err error) error {
	if errors.Is(err, engine.ErrDimension) {
		return ErrDimension
	}
	return err
}

// fromEngine converts an engine Solution to the public shape.
func fromEngine(s *engine.Solution) *Solution {
	return &Solution{
		IDs:        s.IDs,
		RankRegret: s.RankRegret,
		Exact:      s.Exact,
		Algorithm:  Algorithm(s.Algorithm),
	}
}

// Solution is the output of Solve and SolveRRR.
type Solution struct {
	// IDs are the chosen tuple indices into the dataset, ascending.
	IDs []int
	// RankRegret is the solver's reported rank-regret of IDs: exact over
	// the whole space for the 2D DP, or the guaranteed threshold k with
	// respect to the discretized space for HDRRM (Theorem 10). Baselines
	// report their internal bound or 0 when they have none. Use
	// EvaluateRankRegret for an independent estimate.
	RankRegret int
	// Exact records whether RankRegret is exact over the full space.
	Exact bool
	// Algorithm is the solver that produced the solution.
	Algorithm Algorithm
}

// ErrDimension is returned when a 2D-only solver is applied to d != 2.
var ErrDimension = errors.New("rankregret: algorithm requires a 2-dimensional dataset")

// Solve computes a size-r rank-regret minimizing subset of ds. With nil
// opts it runs the paper's primary algorithm for the dataset's
// dimensionality: the exact 2D dynamic program when d = 2, HDRRM otherwise.
// Dispatch goes through the engine registry (internal/engine): repeated
// identical solves are answered from its LRU solution cache. Cancelling ctx
// (or exceeding its deadline) aborts the solve from inside the algorithms'
// hot loops and returns ctx.Err().
func Solve(ctx context.Context, ds *Dataset, r int, opts *Options) (*Solution, error) {
	if ds == nil || ds.N() == 0 {
		return nil, errors.New("rankregret: empty dataset")
	}
	if r < 1 {
		return nil, fmt.Errorf("rankregret: output size r = %d, need >= 1", r)
	}
	o := opts.orDefault()
	sol, err := engine.Default.Solve(ctx, ds, r, string(o.Algorithm), o.engineOptions())
	if err != nil {
		return nil, translateEngineErr(err)
	}
	return fromEngine(sol), nil
}

// SolveSweep solves the same dataset for several output budgets rs in one
// call and returns one solution per budget, in order. Sweeps are cheap: the
// engine's VecSet cache tier keeps the budget-independent work of a solve
// and shares it across every budget. For HDRRM that is the function-space
// discretization (polar grid, sample stream, per-vector top-K lists), so
// each point after the first costs only its set-cover search; for the exact
// 2D solver it is the sweep plan (U-skyline, start ranks, crossing events),
// so each point after the first costs only the DP over chain budgets. Both
// are orders of magnitude less than a cold solve. Each solution is
// identical to the corresponding Solve(ctx, ds, r, opts) call. Cancelling
// ctx aborts the sweep from inside the current solve's hot loops.
func SolveSweep(ctx context.Context, ds *Dataset, rs []int, opts *Options) ([]*Solution, error) {
	if len(rs) == 0 {
		return nil, errors.New("rankregret: empty budget sweep")
	}
	out := make([]*Solution, len(rs))
	for i, r := range rs {
		sol, err := Solve(ctx, ds, r, opts)
		if err != nil {
			return nil, fmt.Errorf("rankregret: sweep r = %d: %w", r, err)
		}
		out[i] = sol
	}
	return out, nil
}

// SolveRRR solves the dual rank-regret representative problem: the minimum
// size set with rank-regret at most k. For d = 2 it is exact (a mode of the
// 2D DP); in HD it runs HDRRM's ASMS solver once at threshold k, inheriting
// its (1 + ln|D|) size approximation (Theorem 9). Cancelling ctx aborts the
// solve as in Solve.
//
// Options.Algorithm must name a solver that supports the dual problem
// (2drrm or hdrrm) or be Auto. Earlier releases silently ignored the field
// and always fell back to HDRRR; since the engine refactor a non-dual
// algorithm (e.g. mdrc) is an error, and 2drrm on d != 2 is ErrDimension.
func SolveRRR(ctx context.Context, ds *Dataset, k int, opts *Options) (*Solution, error) {
	if ds == nil || ds.N() == 0 {
		return nil, errors.New("rankregret: empty dataset")
	}
	if k < 1 || k > ds.N() {
		return nil, fmt.Errorf("rankregret: threshold k = %d out of range [1, %d]", k, ds.N())
	}
	o := opts.orDefault()
	sol, err := engine.Default.SolveRRR(ctx, ds, k, string(o.Algorithm), o.engineOptions())
	if err != nil {
		return nil, translateEngineErr(err)
	}
	return fromEngine(sol), nil
}

// Skyline returns the indices of the skyline (Pareto-optimal) tuples of ds,
// the candidate set for RRM (Theorem 3).
func Skyline(ds *Dataset) []int { return skyline.Compute(ds) }

// RestrictedSkyline returns the U-skyline of ds under space (Definition 5),
// the candidate set for RRRM.
func RestrictedSkyline(ds *Dataset, space Space) ([]int, error) {
	return skyline.ComputeRestricted(ds, space)
}

// TopK returns the indices of the k highest-utility tuples of ds for the
// utility vector u, best first.
func TopK(ds *Dataset, u []float64, k int) []int { return topk.TopK(ds, u, k, nil) }

// Rank returns the 1-based rank of tuple id in ds under utility vector u.
func Rank(ds *Dataset, u []float64, id int) int { return topk.Rank(ds, u, id, nil) }

// EvaluateRankRegret estimates the rank-regret of the subset ids over space
// (nil = full orthant) by sampling utility directions, the estimator the
// paper uses to report output quality (100 000 samples there). For d = 2
// with the full space, prefer EvaluateRankRegret2D which is exact. The
// estimate is the same at every core count; for a given seed it differs
// from earlier releases.
func EvaluateRankRegret(ds *Dataset, ids []int, space Space, samples int, seed int64) (int, error) {
	if space == nil {
		space = funcspace.NewFull(ds.Dim())
	}
	return eval.RankRegretCtx(context.Background(), ds, ids, space, samples, seed)
}

// EvaluateRankRegretAdaptive estimates like EvaluateRankRegret but spends
// half the budget refining around the worst directions found, which reaches
// the true maximum with far fewer samples. Still a lower bound.
func EvaluateRankRegretAdaptive(ds *Dataset, ids []int, space Space, samples int, seed int64) (int, error) {
	if space == nil {
		space = funcspace.NewFull(ds.Dim())
	}
	return eval.RankRegretAdaptive(ds, ids, space, samples, seed)
}

// EvaluateRankRegret2D computes the exact rank-regret of ids for a
// 2-dimensional dataset via a plane sweep (space nil = full orthant).
func EvaluateRankRegret2D(ds *Dataset, ids []int, space Space) (int, error) {
	if space == nil {
		space = funcspace.NewFull(ds.Dim())
	}
	return eval.RankRegret2DExact(ds, ids, space)
}

// EvaluateRegretRatio estimates the classical RMS regret-ratio of ids —
// max over sampled u of 1 - w(u, S)/w(u, D) — for comparing against
// regret-ratio minimizing baselines.
func EvaluateRegretRatio(ds *Dataset, ids []int, space Space, samples int, seed int64) (float64, error) {
	if space == nil {
		space = funcspace.NewFull(ds.Dim())
	}
	return eval.RegretRatio(ds, ids, space, samples, seed)
}

// RatK estimates the k-ratio of ids (Section V.A): the fraction of utility
// directions for which ids contains a top-k tuple. It is RatKCurve at the
// single threshold k, so like RatKCurve it returns an error when samples < 1
// or k lies outside [1, n].
func RatK(ds *Dataset, ids []int, space Space, k, samples int, seed int64) (float64, error) {
	curve, err := RatKCurve(ds, ids, space, []int{k}, samples, seed)
	if err != nil {
		return 0, err
	}
	return curve[0], nil
}

// TopKSets2D enumerates, exactly, every distinct top-k set any linear
// utility function can produce on a 2-dimensional dataset (the "k-sets" of
// combinatorial geometry). A set of tuples hits every k-set if and only if
// its rank-regret is at most k. The count grows super-linearly with n,
// which is why the k-set based solvers do not scale — this primitive exists
// for analysis and validation. Cancelling ctx aborts the enumeration and
// returns ctx.Err().
func TopKSets2D(ctx context.Context, ds *Dataset, k int) ([][]int, error) {
	return algo2d.KSets2D(ctx, ds, k)
}

// RankRegretPercent normalizes a rank-regret to the paper's percentage
// form: a rank of k in a dataset of n tuples is the top 100*k/n percent
// ("highly cited papers rank in the top 1%").
func RankRegretPercent(k, n int) float64 {
	if n <= 0 {
		return 0
	}
	return 100 * float64(k) / float64(n)
}

// RatKCurve evaluates RatK for several thresholds in one sampling pass —
// the cumulative distribution of the set's rank-regret over the space.
func RatKCurve(ds *Dataset, ids []int, space Space, ks []int, samples int, seed int64) ([]float64, error) {
	if space == nil {
		space = funcspace.NewFull(ds.Dim())
	}
	return eval.RatKCurve(ds, ids, space, ks, samples, seed)
}

// Workload generators (Borzsony-style synthetic data plus simulated stand-ins
// for the paper's real datasets, which are not shipped here; each matches
// its original's size, dimension and correlation structure).

// GenerateIndependent returns n tuples with d independently uniform
// attributes.
func GenerateIndependent(seed int64, n, d int) *Dataset {
	return dataset.Independent(xrand.New(seed), n, d)
}

// GenerateCorrelated returns n tuples whose attributes are positively
// correlated (good tuples are good everywhere).
func GenerateCorrelated(seed int64, n, d int) *Dataset {
	return dataset.Correlated(xrand.New(seed), n, d)
}

// GenerateAnticorrelated returns n tuples whose attributes trade off
// against each other, the hardest workload for representative queries.
func GenerateAnticorrelated(seed int64, n, d int) *Dataset {
	return dataset.Anticorrelated(xrand.New(seed), n, d)
}

// GenerateQuarterCircle returns the adversarial dataset of Theorem 2: n
// points on the unit quarter circle, for which every size-r subset has
// rank-regret Omega(n/r).
func GenerateQuarterCircle(n, d int) *Dataset { return dataset.QuarterCircle(n, d) }

// SimIsland returns a simulated stand-in for the paper's 2D Island dataset
// (63 383 geographic points; pass n <= 0 for the full size).
func SimIsland(seed int64, n int) *Dataset { return dataset.SimIsland(xrand.New(seed), n) }

// SimNBA returns a simulated stand-in for the paper's 5-attribute NBA
// dataset (21 961 player/season rows; pass n <= 0 for the full size).
func SimNBA(seed int64, n int) *Dataset { return dataset.SimNBA(xrand.New(seed), n) }

// SimWeather returns a simulated stand-in for the paper's 4-attribute
// Weather dataset (178 080 rows; pass n <= 0 for the full size).
func SimWeather(seed int64, n int) *Dataset { return dataset.SimWeather(xrand.New(seed), n) }
