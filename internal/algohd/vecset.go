// Package algohd implements the paper's high-dimensional algorithms:
// HDRRM (Section V) with its ASMS set-cover solver and improved binary
// search, and the baselines it is evaluated against — MDRRRr (randomized
// k-set hitting set), MDRC (function-space partitioning heuristic) and
// MDRMS (regret-ratio minimization, Asudeh et al. 2017) — plus a classic
// greedy RMS algorithm for regret-ratio comparisons. All of them are
// generalized to restricted utility spaces where the paper allows it.
//
// HDRRMCtx is the one standalone HDRRM solve. Every other HD entry point
// (HDRRMWithVecSetCtx, HDRRMVariantWithVecSetCtx, HDRRRWithVecSetCtx) runs
// against a caller-provided VecSet, normally a SharedVecSet view: the
// engine acquires one from its cache tier, or from a one-off SharedVecSet
// when the solve has no cacheable identity.
package algohd

import (
	"context"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"github.com/rankregret/rankregret/internal/ctxutil"
	"github.com/rankregret/rankregret/internal/dataset"
	"github.com/rankregret/rankregret/internal/funcspace"
	"github.com/rankregret/rankregret/internal/geom"
	"github.com/rankregret/rankregret/internal/par"
	"github.com/rankregret/rankregret/internal/skyline"
	"github.com/rankregret/rankregret/internal/topk"
	"github.com/rankregret/rankregret/internal/xrand"
)

// VecSet is the paper's discretized function space D = Da ∪ Db together
// with lazily-maintained per-vector top-K tuple lists. Db is the polar-grid
// discretization with parameter gamma (filtered to the restricted space for
// RRRM); Da is a set of m sampled directions.
//
// Every VecSet is created with its top-K cache. A SharedVecSet.Acquire view
// shares that cache with every other view of the same underlying vector
// list; BuildVecSetCtx gives its set a cache of its own. Per-vector top
// lists depend only on the dataset and that one vector, so sharing never
// changes results.
//
// Every vector must lie in the non-negative orthant — all funcspace spaces,
// the polar grid, and every Sampler guarantee this, and the paper's problem
// statement assumes it. The top-K build relies on it: its k-skyband pruning
// may drop tuples that are only optimal under negative weights.
type VecSet struct {
	ds   *dataset.Dataset
	Vecs []geom.Vector
	// GridCount is how many of Vecs came from the deterministic grid Db
	// (they are first); the rest are samples Da.
	GridCount int

	tc *topsCache
}

// newVecSet returns a VecSet over vecs with a top-K cache of its own.
func newVecSet(ds *dataset.Dataset, vecs []geom.Vector, gridCount int) *VecSet {
	return &VecSet{ds: ds, Vecs: vecs, GridCount: gridCount, tc: &topsCache{ds: ds, vecs: vecs}}
}

// topsCache is the lazily grown per-vector top-K store behind one or more
// VecSets. It may cover more vectors than any single view exposes (the
// canonical list grows as SharedVecSet extends its sample stream); views
// index into the shared prefix. Committed tops entries are never mutated in
// place, so snapshots taken under the state lock stay valid outside it.
//
// Two locks: buildMu serializes the expensive scoring passes (so
// concurrent solves coalesce on one build), while mu guards the fields and
// is only ever held briefly — publishing a grown vector list or reading a
// snapshot never waits behind a build.
type topsCache struct {
	ds *dataset.Dataset

	// par bounds the scoring pass's worker count (0 = GOMAXPROCS). Results
	// are bit-identical at every setting, so the knob is shared freely
	// between views of one cache.
	par atomic.Int32

	buildMu sync.Mutex // serializes (re)builds; never held while mu is held

	// Skyband candidate universe for the current depth, touched only under
	// buildMu. Abandonment (skyband too large or over budget) is monotone
	// in depth — a deeper skyband is a superset and costs strictly more to
	// compute — so once set, skyAbandoned stops all further attempts.
	skyDepth     int
	skyAbandoned bool
	skyIDs       []int            // ascending candidate ids
	skySub       *dataset.Dataset // rows of skyIDs, aligned; nil when not pruning

	mu   sync.Mutex
	vecs []geom.Vector // canonical vector list; replaced on growth, never edited
	topK int           // depth of the committed lists
	tops [][]int       // len == len(vecs) once built; per vector: ids, best first
}

// setVecs publishes a grown canonical vector list. Existing tops stay valid
// for the old prefix; ensure fills in the new tail on demand.
func (tc *topsCache) setVecs(vecs []geom.Vector) {
	tc.mu.Lock()
	tc.vecs = vecs
	tc.mu.Unlock()
}

// ready reports whether the committed lists cover every canonical vector at
// depth k.
func (tc *topsCache) ready(k int) bool {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	return tc.topK >= k && tc.tops != nil && len(tc.tops) == len(tc.vecs)
}

// Depth staging of the lazily grown top lists: the first build goes
// straight to minBuildDepth and every deepening multiplies by depthGrowth.
// A depth change invalidates every committed list, so each step costs a
// full scoring pass over |D| — HDRRM's doubling search probes k = 1, 2, 4,
// ... and aggressive staging collapses those probes into one or two passes.
// Staging is invisible in results: a depth-d cache answers every k <= d
// with the same lists no matter how it got to depth d.
const (
	minBuildDepth = 2
	depthGrowth   = 4
)

// ensure extends the cache so every canonical vector has a top list of
// depth at least min(k, n). Depth growth is geometric (so a binary search's
// shrinking thresholds are free) and rebuilds all lists; vector growth at an
// unchanged depth computes only the new tail. On cancellation the cache
// keeps its previous consistent state.
func (tc *topsCache) ensure(ctx context.Context, k int) error {
	n := tc.ds.N()
	if k > n {
		k = n
	}
	if tc.ready(k) {
		return nil
	}
	tc.buildMu.Lock()
	defer tc.buildMu.Unlock()
	// The canonical list can grow while a pass runs (setVecs does not wait
	// on builds), so loop until the committed state covers the request.
	for !tc.ready(k) {
		tc.mu.Lock()
		vecs, topK, committed := tc.vecs, tc.topK, tc.tops
		tc.mu.Unlock()
		target := k
		start := 0
		if committed != nil && topK >= k {
			// Depth is sufficient; only the newly added vectors are missing.
			target = topK
			start = len(committed)
		} else {
			// Grow depth geometrically so the binary search's shrinking ks
			// are free; a depth change invalidates every list, so rebuild
			// from 0.
			if target < depthGrowth*topK {
				target = depthGrowth * topK
			}
			if target < minBuildDepth {
				target = minBuildDepth
			}
		}
		target = min(target, n)
		tops := make([][]int, len(vecs))
		copy(tops, committed[:start])
		if err := tc.scorePass(ctx, vecs, start, target, tops); err != nil {
			return err
		}
		tc.mu.Lock()
		tc.tops = tops
		tc.topK = target
		tc.mu.Unlock()
	}
	return nil
}

// vecTileSize is how many vectors one scoring tile carries: large enough to
// amortize each L1-resident column strip of the batch kernel across many
// vectors, shrunk for huge datasets so a worker's score buffer stays near
// 8 MB.
func vecTileSize(n int) int {
	const maxFloats = 1 << 20
	t := 16
	for t > 1 && t*n > maxFloats {
		t /= 2
	}
	return t
}

// scorePass fills tops[start:] with depth-target top lists for
// vecs[start:], the expensive heart of every (re)build. Called with buildMu
// held. The selection universe shrinks to the target-depth k-skyband
// (candidates): tuples always-beaten by target others can never enter any
// top-target list, so both scoring and selection skip them. The result is
// bit-identical to scoring one vector at a time against the full dataset.
func (tc *topsCache) scorePass(ctx context.Context, vecs []geom.Vector, start, target int, tops [][]int) error {
	candIDs, candDS := tc.candidates(target)
	return selectTops(ctx, int(tc.par.Load()), candDS, candIDs, vecs[start:], target, func(i int, list []int) {
		tops[start+i] = list
	})
}

// selectTops is the one top-K scoring pass: it hands par.Tiles tiles of
// vecTileSize(ds.N()) vectors, and for each tile scores every row of ds with
// dataset.UtilitiesBatch (each tuple's utility summed in a register over
// tuple tiles of the column-major mirror) and turns the scores into top
// lists with topk.SelectBatch (a read-only scan against a heap seeded with
// the previous vector's winners). put(i, list) receives vecs[i]'s depth-
// target list, best first; ids maps ds's rows to tuple ids as in
// SelectBatch. Workers write disjoint i, and the result depends only on the
// inputs, never on workers (0 = GOMAXPROCS).
func selectTops(ctx context.Context, workers int, ds *dataset.Dataset, ids []int, vecs []geom.Vector, target int, put func(i int, list []int)) error {
	// Materialize the column mirror before the fan-out so workers don't all
	// race to build identical copies.
	ds.ColumnMajor()
	tile := vecTileSize(ds.N())
	return par.Tiles(ctx, workers, (len(vecs)+tile-1)/tile, func() func(int) {
		var scores [][]float64
		var scratch []int
		return func(t int) {
			lo, hi := t*tile, min((t+1)*tile, len(vecs))
			scores = ds.UtilitiesBatch(vecs[lo:hi], scores)
			var lists [][]int
			lists, scratch = topk.SelectBatch(scores, ids, target, scratch)
			for i, list := range lists {
				put(lo+i, list)
			}
		}
	})
}

// candidates returns the depth-aware selection universe: the k-skyband ids
// plus a compacted dataset of their rows when pruning pays, or (nil, full
// dataset) otherwise. Computed once per depth and cached; depth only grows,
// so one slot suffices. Called with buildMu held.
func (tc *topsCache) candidates(depth int) ([]int, *dataset.Dataset) {
	n := tc.ds.N()
	if depth >= n || tc.skyAbandoned {
		return nil, tc.ds
	}
	if tc.skyDepth != depth {
		tc.skyDepth = depth
		tc.skySub = nil
		tc.skyIDs = skyline.KSkyband(tc.ds, depth)
		if len(tc.skyIDs) == 0 || len(tc.skyIDs) >= n {
			tc.skyIDs = nil
			tc.skyAbandoned = true
		} else {
			tc.skySub = tc.ds.Subset(tc.skyIDs)
		}
	}
	if tc.skySub == nil {
		return nil, tc.ds
	}
	return tc.skyIDs, tc.skySub
}

// buildGrid validates the build parameters and returns the polar-grid
// directions Db filtered to the space. It does not consume rng, so the
// sample stream that follows is identical no matter when the grid is built.
func buildGrid(ds *dataset.Dataset, space funcspace.Space, gamma int) ([]geom.Vector, funcspace.Space, error) {
	d := ds.Dim()
	if space == nil {
		space = funcspace.NewFull(d)
	}
	if space.Dim() != d {
		return nil, nil, fmt.Errorf("algohd: space dim %d, dataset dim %d", space.Dim(), d)
	}
	if gamma < 1 {
		return nil, nil, fmt.Errorf("algohd: gamma %d, need >= 1", gamma)
	}
	var vecs []geom.Vector
	for _, u := range geom.AngleGrid(d, gamma) {
		if space.ContainsDirection(u) {
			vecs = append(vecs, u)
		}
	}
	return vecs, space, nil
}

// drawSamples appends count directions sampled from space to vecs: uniform
// on the space when sample is nil, otherwise rejection-sampled from the
// custom distribution so the restricted-space contract of Section V.C holds.
// The draws consume rng one direction at a time, which is what makes a
// prefix of a longer stream identical to a shorter one.
func drawSamples(ctx context.Context, space funcspace.Space, count int, rng *xrand.Rand, sample Sampler, vecs []geom.Vector) ([]geom.Vector, error) {
	const maxRejects = 4096
	d := space.Dim()
	for i := 0; i < count; i++ {
		if i%256 == 0 {
			if err := ctxutil.Cancelled(ctx); err != nil {
				return nil, err
			}
		}
		if sample == nil {
			u := space.Sample(rng)
			if u == nil {
				return nil, fmt.Errorf("algohd: sampling from %s failed", space.Name())
			}
			vecs = append(vecs, u)
			continue
		}
		var u geom.Vector
		for tries := 0; ; tries++ {
			u = sample(rng)
			if u != nil && len(u) == d && space.ContainsDirection(u) {
				break
			}
			if tries >= maxRejects {
				return nil, fmt.Errorf("algohd: sampler produced no direction inside %s after %d tries", space.Name(), maxRejects)
			}
		}
		vecs = append(vecs, geom.Clone(u))
	}
	return vecs, nil
}

// BuildVecSetCtx constructs D for the given space: the polar grid Db
// (directions whose ray meets the space) plus m sampled directions Da.
// m may be 0 (grid only). The paper's Theorem 10 sample size is available
// via SampleSizeTheorem10. The sampling loop checks ctx periodically and
// aborts with ctx.Err().
func BuildVecSetCtx(ctx context.Context, ds *dataset.Dataset, space funcspace.Space, gamma, m int, rng *xrand.Rand) (*VecSet, error) {
	vecs, space, err := buildGrid(ds, space, gamma)
	if err != nil {
		return nil, err
	}
	gridCount := len(vecs)
	vecs, err = drawSamples(ctx, space, m, rng, nil, vecs)
	if err != nil {
		return nil, err
	}
	if len(vecs) == 0 {
		return nil, fmt.Errorf("algohd: empty vector set (space %s admits no directions)", space.Name())
	}
	return newVecSet(ds, vecs, gridCount), nil
}

// SampleSizeTheorem10 returns the paper's Theorem 10 sample size
//
//	m = ((r-d)·ln(n-d) + ln(n-r+1) + ln n) / (2(δ - 1/n)²),
//
// clamped to [64, maxM] (maxM <= 0 means no cap). The clamp exists because
// the formula grows like 1/δ² and the repository's default benchmarks run on
// laptop-scale budgets; pass maxM = 0 to reproduce the paper exactly.
func SampleSizeTheorem10(n, d, r int, delta float64, maxM int) int {
	if n <= d+1 || r <= d {
		return 64
	}
	num := float64(r-d)*ln(float64(n-d)) + ln(float64(n-r+1)) + ln(float64(n))
	den := delta - 1/float64(n)
	if den <= 0 {
		den = delta
	}
	m := int(num / (2 * den * den))
	if m < 64 {
		m = 64
	}
	if maxM > 0 && m > maxM {
		m = maxM
	}
	return m
}

// ln is the natural log clamped to 0 for x <= 1: the sample-size and
// set-cover bound formulas all want "log, but never negative". The single
// definition here replaces the per-file helpers that used to shadow it.
func ln(x float64) float64 {
	if x <= 1 {
		return 0
	}
	return math.Log(x)
}

// SetParallelism bounds the number of worker goroutines the top-K scoring
// passes may use; 0 or negative restores the default (GOMAXPROCS). Results
// are bit-identical at every setting — parallelism splits work across
// vectors, never within one — so when the top-K cache is shared the knob is
// shared too, and the most recent setting wins.
func (vs *VecSet) SetParallelism(p int) {
	vs.tc.par.Store(int32(max(p, 0)))
}

// EnsureTopKCtx extends the cached per-vector top lists to at least k
// entries (clamped to n). Lists are built in parallel across vectors.
// Amortized over a binary search the total work is O(|D| · n · d + |D| · k
// log k). Scoring checks ctx before each tile of vectors; on cancellation
// the partially-built lists are discarded, leaving the cache in its previous
// consistent state.
func (vs *VecSet) EnsureTopKCtx(ctx context.Context, k int) error {
	return vs.tc.ensure(ctx, k)
}

// TopsCtx ensures depth min(k, n) and returns the per-vector top lists for
// this set's vectors: TopsCtx(ctx, k)[v][:k'] for any k' <= k are the ids of
// the k' best tuples under Vecs[v], best first. The returned slice may cover
// more vectors than Len() when the top-K cache is shared; callers must index
// only [0, Len()). Reading the result needs no further synchronization.
func (vs *VecSet) TopsCtx(ctx context.Context, k int) ([][]int, error) {
	k = min(k, vs.ds.N())
	if err := vs.tc.ensure(ctx, k); err != nil {
		return nil, err
	}
	// Committed entries are immutable, so the lists are safe to read
	// outside the lock.
	vs.tc.mu.Lock()
	defer vs.tc.mu.Unlock()
	return vs.tc.tops, nil
}

// Len returns the number of vectors in D.
func (vs *VecSet) Len() int { return len(vs.Vecs) }
