package algohd

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"

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
	return o.sampleSize(n, d, n/max(k, 1)+d)
}

// EffectiveGamma returns the polar-grid resolution the solve will use: the
// configured Gamma, or the paper default 6 when unset.
func (o Options) EffectiveGamma() int {
	if o.Gamma < 1 {
		return 6
	}
	return o.Gamma
}

// uniqueInts sorts and deduplicates ids in place.
func uniqueInts(ids []int) []int {
	slices.Sort(ids)
	return slices.Compact(ids)
}

// ASMSCtx is the paper's Algorithm 2: the approximate solver for the MS
// problem. Given the threshold k it returns a superset Q of the basis B
// whose rank-regret with respect to the discrete vector set D is at most k,
// with |Q| <= (1 + ln|D|)·r* + d (Theorem 9). It is a one-probe search
// with the cover index an HDRRM search shares across its probes (see
// searchIndex), so with the forced basis it starts from the basis positions
// vs's top-K cache holds. The top-K build, the basis scan, and the greedy
// set-cover rounds all check ctx and abort with ctx.Err().
func ASMSCtx(ctx context.Context, ds *dataset.Dataset, k int, basis []int, vs *VecSet) ([]int, error) {
	x := searchIndex(ds, vs, basis)
	q, err := x.probe(ctx, k)
	x.end(err)
	return q, err
}

// noBasisPos marks a vector whose scanned top list holds no basis tuple.
const noBasisPos = math.MaxInt32

// openVec is a vector whose top-1 tuple is not in the basis, with the
// position of its first basis tuple (noBasisPos when none is within the
// scanned depth).
type openVec struct{ v, pos int32 }

// probeScratch is the memory an ASMS search or a hitting-set search reuses
// from probe to probe: an asmsIndex's basis marks, open vectors and
// universe rows, and the flat cover sets. It comes from scratchPool, so a
// solve after the first starts with buffers already grown, and goes back
// when the search ends.
type probeScratch struct {
	marks []bool // per tuple id; false everywhere between searches
	open  []openVec
	rows  [][]int
	cover coverSets
}

var scratchPool = sync.Pool{New: func() any { return new(probeScratch) }}

func getScratch() *probeScratch { return scratchPool.Get().(*probeScratch) }

// dropRows clears the rows' references to top lists. Rows only ever hold
// open vectors' lists, so only the first len(open) slots can be set; a
// pooled scratch keeps every slot nil.
func (s *probeScratch) dropRows() {
	clear(s.rows[:min(len(s.open), cap(s.rows))])
	s.rows = s.rows[:0]
}

// release returns s to scratchPool. It drops the rows first: pooled
// scratch must not keep a top list alive, or the collection after a deep
// scoring pass (see bigPassIDs) could not free the lists it replaced.
// Callers release on their normal and error returns but never defer it: a
// panic inside a build leaves the cover counts nonzero, and that scratch
// must not be reused.
func (s *probeScratch) release() {
	s.dropRows()
	s.open = s.open[:0]
	scratchPool.Put(s)
}

// asmsIndex is ASMS's set system for one HDRRM search: the universe Dk of
// vectors the basis leaves uncovered at threshold k, and the cover set of
// every candidate tuple. Algorithm 2 is monotone in k (a tuple within a
// vector's top k is within its top k' for every k' > k), so each vector's
// first basis position is found once, scanning only as deep as the deepest
// k probed so far; a probe then takes Dk = {v : pos >= k} without
// rescanning any list. Those positions depend only on the top lists and
// the basis, so with the forced basis they are found once per top-K cache,
// not once per search: a search starts from the cache's basisIndex and
// publishes what it adds (see searchIndex). The scratch of the flat cover
// sets is reused by every probe, and by later searches through
// scratchPool. Committed top lists at any depth agree on their common
// prefix, so a probe may read lists deepened since the last scan.
type asmsIndex struct {
	n, nv   int
	tops    func(context.Context, int) ([][]int, error)
	basis   []int
	inBasis []bool     // the scratch's marks; nil when the basis is empty
	depth   int        // basis positions are exact below this depth; 0 before the first scan
	covered int        // vectors [0, covered) have positions; the rest are unscanned
	tc      *topsCache // where the positions are published; nil for a private index
	*probeScratch
}

// basisIndex is the part of an asmsIndex that depends only on a top-K
// cache and its dataset's forced basis: among the first nv vectors, the
// open ones in ascending order, each with its first basis position, exact
// below depth. A topsCache holds at most one, published by a search and
// never written again.
type basisIndex struct {
	nv, depth int
	open      []openVec
}

// searchIndex returns the cover index of one search over vs with the given
// basis. When the basis is the forced basis of vs's cache's dataset, the
// index starts from the positions the cache has published: a shorter view
// takes the prefix of vectors below Len(), a longer one scans only the
// tail, and a deeper probe extends the positions as a private index would.
// Any other basis (the NoBasis ablation, a caller's own) gets a private
// index. end publishes and releases it.
func searchIndex(ds *dataset.Dataset, vs *VecSet, basis []int) *asmsIndex {
	x := newASMSIndex(ds.N(), vs.Len(), vs.TopsCtx, basis)
	if len(basis) == 0 || !slices.Equal(basis, uniqueInts(vs.tc.ds.Basis())) {
		return x
	}
	x.tc = vs.tc
	if bx := vs.tc.basis.Load(); bx != nil {
		cut := len(bx.open)
		if x.nv < bx.nv {
			cut = sort.Search(cut, func(i int) bool { return int(bx.open[i].v) >= x.nv })
		}
		x.open = append(x.open, bx.open[:cut]...)
		x.covered = min(x.nv, bx.nv)
		x.depth = bx.depth
	}
	return x
}

// end finishes a search that err ended: a successful one publishes its
// positions to its cache when they cover at least as many vectors and reach
// at least as deep as the published ones, and add to either; then the
// index is released. A failed search may have scanned part of a tail, so
// it publishes nothing.
func (x *asmsIndex) end(err error) {
	if err == nil && x.tc != nil && x.depth > 0 {
		var fresh *basisIndex
		for {
			old := x.tc.basis.Load()
			if old != nil && (x.covered < old.nv || x.depth < old.depth || x.covered == old.nv && x.depth == old.depth) {
				break
			}
			if fresh == nil {
				fresh = &basisIndex{nv: x.covered, depth: x.depth, open: slices.Clone(x.open)}
			}
			if x.tc.basis.CompareAndSwap(old, fresh) {
				break
			}
		}
	}
	x.release()
}

// newASMSIndex returns an empty index over nv vectors whose top lists tops
// returns, for n tuples and the given basis. Its scratch comes from
// scratchPool; release returns it.
func newASMSIndex(n, nv int, tops func(context.Context, int) ([][]int, error), basis []int) *asmsIndex {
	x := &asmsIndex{n: n, nv: nv, tops: tops, basis: basis, probeScratch: getScratch()}
	if len(basis) > 0 {
		if len(x.marks) < n {
			x.marks = make([]bool, n)
		}
		x.inBasis = x.marks
		for _, b := range basis {
			x.inBasis[b] = true
		}
	}
	return x
}

// release unmarks the basis and returns the index's scratch to scratchPool.
func (x *asmsIndex) release() {
	for _, b := range x.basis {
		x.inBasis[b] = false
	}
	x.probeScratch.release()
}

// firstBasis returns the position of the first basis tuple in
// top[from:min(k, len(top))], or noBasisPos.
func (x *asmsIndex) firstBasis(top []int, from, k int) int32 {
	if x.inBasis == nil {
		return noBasisPos
	}
	for p := from; p < min(k, len(top)); p++ {
		if x.inBasis[top[p]] {
			return int32(p)
		}
	}
	return noBasisPos
}

// scan brings the basis positions of all nv vectors to depth
// max(k, x.depth). The open vectors with no basis tuple found yet are
// revisited past x.depth; the vectors not covered yet (all of them at a
// private index's first scan) are visited from position 0, and those their
// top-1 tuple does not cover are kept.
func (x *asmsIndex) scan(ctx context.Context, tops [][]int, k int) error {
	k = max(k, x.depth)
	if k > x.depth {
		for i, o := range x.open {
			if i%4096 == 0 {
				if err := ctxutil.Cancelled(ctx); err != nil {
					return err
				}
			}
			if o.pos == noBasisPos {
				x.open[i].pos = x.firstBasis(tops[o.v], x.depth, k)
			}
		}
	}
	for v := x.covered; v < x.nv; v++ {
		if v%4096 == 0 {
			if err := ctxutil.Cancelled(ctx); err != nil {
				return err
			}
		}
		if p := x.firstBasis(tops[v], 0, k); p != 0 {
			x.open = append(x.open, openVec{int32(v), p})
		}
	}
	x.covered, x.depth = x.nv, k
	return nil
}

// build lays out the set system of threshold k: x.rows holds the top-k list
// of every vector of Dk, in ascending vector order, and x.cover its dual
// sets.
func (x *asmsIndex) build(ctx context.Context, k int) error {
	k = min(k, x.n)
	if k > x.depth {
		// Only a probe deeper than any before can deepen the top-K cache,
		// which replaces every list; drop the rows' references to the old
		// ones so the pass's collection (see bigPassIDs) can free them.
		x.dropRows()
	}
	tops, err := x.tops(ctx, k)
	if err != nil {
		return err
	}
	if k > x.depth || x.covered < x.nv {
		if err := x.scan(ctx, tops, k); err != nil {
			return err
		}
	}
	x.rows = slices.Grow(x.rows[:0], len(x.open)) // Dk is a subset of open
	for _, o := range x.open {
		if int(o.pos) >= k {
			top := tops[o.v]
			x.rows = append(x.rows, top[:min(k, len(top))])
		}
	}
	return x.cover.build(x.n, x.rows)
}

// probe runs ASMS at threshold k.
func (x *asmsIndex) probe(ctx context.Context, k int) ([]int, error) {
	if err := x.build(ctx, k); err != nil {
		return nil, err
	}
	q := append([]int(nil), x.basis...)
	if len(x.rows) == 0 {
		return uniqueInts(q), nil
	}
	chosen, err := x.cover.greedy(ctx)
	if err != nil {
		return nil, err
	}
	return uniqueInts(append(q, chosen...)), nil
}

// coverSets is the flat set system of a greedy set cover in which tuples
// cover rows: element u of the universe {0, ..., len(rows)-1} is in tuple
// t's set when rows[u] holds t. It is built by a counting sort in two
// passes, and every set is a full-slice-expression window of one int32
// arena; count holds arena offsets, so both are int32 and a build refuses a
// system whose universe or entry total int32 cannot index. The scratch is
// reused by every build.
type coverSets struct {
	count    []int32 // per tuple id: set size, then write cursor; zero between builds
	universe int
	touched  []int // tuple ids with a non-empty set, ascending
	sets     [][]int32
	arena    []int32
}

// build lays out the dual sets of rows, whose tuple ids lie in [0, n): set
// i belongs to tuple touched[i], tuples come in ascending id, and each set
// lists its elements in ascending order. The sets stay valid until the
// next build.
func (cs *coverSets) build(n int, rows [][]int) error {
	cs.universe = len(rows)
	cs.touched = cs.touched[:0]
	cs.sets = cs.sets[:0]
	if len(rows) == 0 {
		return nil
	}
	total := 0
	for _, row := range rows {
		total += len(row)
	}
	if len(rows) > math.MaxInt32 || total > math.MaxInt32 {
		return fmt.Errorf("algohd: internal error: set cover of %d elements and %d entries overflows int32", len(rows), total)
	}
	if len(cs.count) < n {
		cs.count = make([]int32, n)
	}
	for _, row := range rows {
		for _, t := range row {
			if cs.count[t] == 0 {
				cs.touched = append(cs.touched, t)
			}
			cs.count[t]++
		}
	}
	slices.Sort(cs.touched)
	if cap(cs.arena) < total {
		cs.arena = make([]int32, 0, max(total, 2*cap(cs.arena)))
	}
	cs.arena = cs.arena[:total]
	off := int32(0)
	for _, t := range cs.touched {
		end := off + cs.count[t]
		cs.sets = append(cs.sets, cs.arena[off:end:end])
		cs.count[t] = off
		off = end
	}
	for u, row := range rows {
		for _, t := range row {
			cs.arena[cs.count[t]] = int32(u)
			cs.count[t]++
		}
	}
	for _, t := range cs.touched {
		cs.count[t] = 0
	}
	return nil
}

// greedy covers the built universe with setcover.GreedyCtx and returns the
// chosen tuple ids in selection order.
func (cs *coverSets) greedy(ctx context.Context) ([]int, error) {
	chosen, ok, err := setcover.GreedyCtx(ctx, cs.universe, cs.sets)
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, fmt.Errorf("algohd: internal error: set cover universe of %d elements not coverable", cs.universe)
	}
	ids := make([]int, len(chosen))
	for i, ci := range chosen {
		ids[i] = cs.touched[ci]
	}
	return ids, nil
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
