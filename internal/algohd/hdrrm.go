package algohd

import (
	"context"
	"fmt"
	"sort"

	"github.com/rankregret/rankregret/internal/ctxutil"
	"github.com/rankregret/rankregret/internal/dataset"
	"github.com/rankregret/rankregret/internal/funcspace"
	"github.com/rankregret/rankregret/internal/setcover"
)

// Options configures the HD solvers. The zero value is not usable; call
// DefaultOptions.
type Options struct {
	// Gamma is the polar-grid discretization parameter (paper default 6).
	Gamma int
	// Delta is the error probability of Theorem 10 (paper default 0.03).
	// It determines the sample size m unless M is set.
	Delta float64
	// M overrides the sample count for Da (0 = use the Theorem 10 formula).
	M int
	// MaxM caps the Theorem 10 formula (0 = uncapped). The repository
	// default keeps laptop runs tractable, since the formula grows like
	// 1/Delta².
	MaxM int
	// Seed drives all randomness.
	Seed int64
	// Space restricts the utility space (nil = the full orthant, RRM).
	Space funcspace.Space
	// Sampler overrides the distribution Da is drawn from (nil = uniform
	// on the space): the paper's Section V.C generalization to non-uniform
	// user preference distributions. See GaussianPreference and
	// MixturePreference.
	Sampler Sampler
	// Parallelism bounds the worker goroutines of the top-K scoring passes
	// (0 = GOMAXPROCS). Results are bit-identical at every setting.
	Parallelism int
}

// DefaultOptions returns the paper's default parameters with the
// repository's laptop-scale sample cap.
func DefaultOptions() Options {
	return Options{Gamma: 6, Delta: 0.03, MaxM: 50000, Seed: 1}
}

// Result is the output of an HD solve.
type Result struct {
	// IDs are the chosen tuple ids, ascending.
	IDs []int
	// K is the solver's internal rank threshold: for HDRRM the smallest k
	// for which ASMS fit the budget, i.e. the guaranteed rank-regret with
	// respect to the discrete set D (the "red cross" line in the paper's
	// figures). Baselines report their own analogue or 0.
	K int
	// VecCount is |D|, for diagnostics.
	VecCount int
}

// space returns the effective utility space.
func (o Options) space(d int) funcspace.Space {
	if o.Space != nil {
		return o.Space
	}
	return funcspace.NewFull(d)
}

func (o Options) sampleSize(n, d, r int) int {
	if o.M > 0 {
		return o.M
	}
	delta := o.Delta
	if delta <= 0 {
		delta = 0.03
	}
	return SampleSizeTheorem10(n, d, r, delta, o.MaxM)
}

// SampleSize returns the effective Da size an HDRRM solve with output
// budget r will use: the M override when set, otherwise the Theorem 10
// formula under the options' delta and cap. Callers managing a shared
// vector set (see SharedVecSet) use it to request the right prefix.
func (o Options) SampleSize(n, d, r int) int { return o.sampleSize(n, d, r) }

// SampleSizeRRR returns the effective Da size an HDRRR solve at threshold k
// uses: the dual problem has no output budget, so the formula is evaluated
// at the budget n/k + d a threshold-k solution plausibly needs.
func (o Options) SampleSizeRRR(n, d, k int) int {
	return o.sampleSize(n, d, n/maxInt(k, 1)+d)
}

// EffectiveGamma returns the polar-grid resolution the solve will use: the
// configured Gamma, or the paper default 6 when unset.
func (o Options) EffectiveGamma() int {
	if o.Gamma < 1 {
		return 6
	}
	return o.Gamma
}

// uniqueInts sorts and deduplicates.
func uniqueInts(ids []int) []int {
	sort.Ints(ids)
	out := ids[:0]
	prev := -1
	for _, id := range ids {
		if id != prev {
			out = append(out, id)
			prev = id
		}
	}
	return out
}

// ASMSCtx is the paper's Algorithm 2: the approximate solver for the MS
// problem. Given the threshold k it returns a superset Q of the basis B
// whose rank-regret with respect to the discrete vector set D is at most k,
// with |Q| <= (1 + ln|D|)·r* + d (Theorem 9). The top-K build, the coverage
// scan, and the greedy set-cover rounds all check ctx and abort with
// ctx.Err().
func ASMSCtx(ctx context.Context, ds *dataset.Dataset, k int, basis []int, vs *VecSet) ([]int, error) {
	n := ds.N()
	if k > n {
		k = n
	}
	tops, err := vs.TopsCtx(ctx, k)
	if err != nil {
		return nil, err
	}
	inBasis := make([]bool, n)
	for _, b := range basis {
		inBasis[b] = true
	}
	// Dk: vectors not covered by the basis; coverOf[t]: vectors (as indices
	// into Dk) covered by tuple t. Dense slices instead of maps: the scan
	// runs once per ASMS call over every vector in D and dominates the warm
	// path when the top-K lists are already cached.
	nDk := 0
	coverOf := make([][]int, n)
	var touched []int // tuple ids with a non-empty cover set, ascending
	for v := 0; v < vs.Len(); v++ {
		if v%4096 == 0 {
			if err := ctxutil.Cancelled(ctx); err != nil {
				return nil, err
			}
		}
		top := tops[v][:k]
		covered := false
		for _, t := range top {
			if inBasis[t] {
				covered = true
				break
			}
		}
		if covered {
			continue
		}
		u := nDk
		nDk++
		for _, t := range top {
			if coverOf[t] == nil {
				touched = append(touched, t)
			}
			coverOf[t] = append(coverOf[t], u)
		}
	}
	if nDk == 0 {
		return uniqueInts(append([]int(nil), basis...)), nil
	}
	// Set cover over the universe Dk, candidate tuples in ascending id order
	// for reproducibility.
	sort.Ints(touched)
	sortedSets := make([][]int, len(touched))
	for i, t := range touched {
		sortedSets[i] = coverOf[t]
	}
	chosen, ok, err := setcover.GreedyCtx(ctx, nDk, sortedSets)
	if err != nil {
		return nil, err
	}
	if !ok {
		// Cannot happen: every vector's own top-1 tuple covers it.
		panic("algohd: ASMS universe not coverable")
	}
	q := append([]int(nil), basis...)
	for _, ci := range chosen {
		q = append(q, touched[ci])
	}
	return uniqueInts(q), nil
}

// HDRRMCtx is the paper's Algorithm 3: it returns a set of at most r tuples
// whose rank-regret w.r.t. the discretized function space D is the smallest
// threshold ASMS can fit into the budget — a double approximation of the RRM
// optimum (Theorem 10). With Options.Space set it solves RRRM instead
// (Section V.C): Da is sampled from U and Db keeps only directions whose ray
// meets U. It is the one standalone HD solve: it acquires D from a one-off
// SharedVecSet and runs HDRRMWithVecSetCtx. Cancellation is plumbed through
// the vector-set build, the per-vector top-K lists, and the ASMS set-cover
// rounds; it returns ctx.Err() as soon as a hot loop observes it.
func HDRRMCtx(ctx context.Context, ds *dataset.Dataset, r int, opts Options) (Result, error) {
	shared := NewSharedVecSet(ds, opts.Space, opts.EffectiveGamma(), opts.Seed, opts.Sampler)
	vs, _, err := shared.Acquire(ctx, opts.sampleSize(ds.N(), ds.Dim(), r))
	if err != nil {
		return Result{}, err
	}
	return HDRRMWithVecSetCtx(ctx, ds, r, opts, vs)
}

// HDRRMWithVecSetCtx runs the search phase of Algorithm 3 — forced basis
// plus the improved binary search over ASMS — against a caller-provided
// vector set: the reuse hook behind the engine's VecSet cache tier. The
// result is identical to HDRRMCtx when vs covers the same dataset and was
// built (or acquired from a SharedVecSet) with the solve's space, effective
// gamma, seed, sampler, and exactly SampleSize(n, d, r) sampled directions.
func HDRRMWithVecSetCtx(ctx context.Context, ds *dataset.Dataset, r int, opts Options, vs *VecSet) (Result, error) {
	return HDRRMVariantWithVecSetCtx(ctx, ds, r, opts, Variant{}, vs)
}

// HDRRRWithVecSetCtx solves the dual rank-regret representative problem in
// HD: given a threshold k, it runs a single ASMS pass over the
// caller-provided vector set and returns the (1 + ln|D|)-size-approximate
// minimum superset of the basis with rank-regret at most k for D (Theorem
// 9). Result.K echoes k. The set is acquired as for HDRRMWithVecSetCtx, with
// SampleSizeRRR(n, d, k) sampled directions.
func HDRRRWithVecSetCtx(ctx context.Context, ds *dataset.Dataset, k int, opts Options, vs *VecSet) (Result, error) {
	n := ds.N()
	if n == 0 {
		return Result{}, fmt.Errorf("algohd: empty dataset")
	}
	if k < 1 || k > n {
		return Result{}, fmt.Errorf("algohd: threshold k=%d out of range [1, %d]", k, n)
	}
	vs.SetParallelism(opts.Parallelism)
	basis := uniqueInts(ds.Basis())
	q, err := ASMSCtx(ctx, ds, k, basis, vs)
	if err != nil {
		return Result{}, err
	}
	return Result{IDs: q, K: k, VecCount: vs.Len()}, nil
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
