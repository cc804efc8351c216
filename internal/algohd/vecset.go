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
	"runtime/debug"
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

// newVecSet returns a VecSet over vecs, whose first gridCount vectors are
// the polar grid with parameter gamma, with a top-K cache of its own.
func newVecSet(ds *dataset.Dataset, vecs []geom.Vector, gridCount, gamma int) *VecSet {
	return &VecSet{ds: ds, Vecs: vecs, GridCount: gridCount, tc: newTopsCache(ds, vecs, gridCount, gamma)}
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

	// The first grid canonical vectors are the polar grid Db with parameter
	// gamma (both fixed at construction). cells holds each vector's nearest
	// grid cell (-1 until a seeded pass needs it), grown with vecs, and
	// cellGrid maps a cell to its grid vector's index, or -1 when the space
	// filtered that cell out; both belong to the pass holding buildMu. See
	// gridSeeds.
	grid, gamma int
	cells       []int32
	cellGrid    []int32

	mu   sync.Mutex
	vecs []geom.Vector // canonical vector list; replaced on growth, never edited
	topK int           // depth of the committed lists
	tops [][]int       // len == len(vecs) once built; per vector: ids, best first

	// basis holds the forced basis's positions in the committed lists,
	// published by HDRRM searches (nil until the first; see searchIndex).
	// A repaired cache starts without one when its lists changed, and
	// shares its source's when none did.
	basis atomic.Pointer[basisIndex]
}

// newTopsCache returns an empty cache over vecs, whose first grid vectors
// are the polar grid with parameter gamma.
func newTopsCache(ds *dataset.Dataset, vecs []geom.Vector, grid, gamma int) *topsCache {
	return &topsCache{ds: ds, vecs: vecs, grid: grid, gamma: gamma}
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
//
// Every pass after a cache's first one that is deeper than minBuildDepth
// seeds each sample's selection from its nearest grid direction (see
// scorePass): deepenings, tail extensions, and passes over a repaired
// cache. At minBuildDepth the heap is so shallow that finding the cells
// costs more than the replacements it saves. A cache's first pass never
// seeds: in a staged solve it is at minBuildDepth anyway, and a first pass
// straight to a deep target (a fixed-k solve, the k-set baselines) is the
// cold build an incremental repair must beat by 10x
// (TestRepairSpeedupCIWeather); seeded, that build is about a third faster,
// which leaves the repair too little margin.
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
		seed := committed != nil && target > minBuildDepth && tc.grid > 0
		if err := tc.scorePass(ctx, vecs, start, target, seed, tops); err != nil {
			return err
		}
		tc.mu.Lock()
		tc.tops = tops
		tc.topK = target
		tc.mu.Unlock()
		if (len(vecs)-start)*target >= bigPassIDs {
			debug.FreeOSMemory()
		}
	}
	return nil
}

// bigPassIDs is the number of list entries from which a committed scoring
// pass collects garbage and returns the freed memory to the OS at once.
// Such a pass (CI-scale simweather at depth 512 writes 6.3M ids, 50 MB)
// replaces most of a serving process's live heap. When little garbage
// follows it, the heap goal the next GC cycle sets depends on where in the
// pass that cycle landed, so the resident set after a warm-up with a deep
// build comes out bimodal: rrmd after rrmladder's serve-hit warm-up spread
// over 115-148 MiB in 24 runs on a 2-vCPU VM, and over 121.2-122.0 MiB in
// 24 runs with the collection.
const bigPassIDs = 1 << 22

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
// held; tops[:start] must already hold depth-target lists. The selection
// universe shrinks to the target-depth k-skyband (candidates): tuples
// always-beaten by target others can never enter any top-target list, so
// both scoring and selection skip them.
//
// A seeded pass (see the staging constants; only a cache with a grid
// seeds) has two phases. The grid vectors run first, each heap seeded from
// the previous row as usual; then every sample's heap starts from the
// depth-target list of its nearest grid direction, which is nearly its own
// (see gridSeeds). On CI-scale
// simweather that cuts heap replacements per sample from about 71 to about
// 9 at depth 32, and from about 23 to about 3 at depth 8. The result is
// bit-identical to scoring one vector at a time against the full dataset,
// however the heaps are seeded.
func (tc *topsCache) scorePass(ctx context.Context, vecs []geom.Vector, start, target int, seed bool, tops [][]int) error {
	candIDs, candDS := tc.candidates(target)
	workers := int(tc.par.Load())
	split := len(vecs)
	if seed {
		split = max(start, tc.grid)
	}
	err := selectTops(ctx, workers, candDS, candIDs, vecs[start:split], target, nil, func(i int, list []int) {
		tops[start+i] = list
	})
	if err != nil || split == len(vecs) {
		return err
	}
	gridSeed := tc.gridSeeds(vecs, tops)
	return selectTops(ctx, workers, candDS, candIDs, vecs[split:], target, func(i int) []int { return gridSeed(split + i) }, func(i int, list []int) {
		tops[split+i] = list
	})
}

// gridSeeds returns, for vector v of vecs, the committed list of its
// nearest grid direction in tops, or nil when the cell it falls in has no
// grid vector (the space filtered the cell out). A vector's cell is found
// on its first call and cached in tc.cells (-1 until then), so each vector
// is placed once per cache; the returned function may be called
// concurrently for distinct v. Called with buildMu held.
func (tc *topsCache) gridSeeds(vecs []geom.Vector, tops [][]int) func(v int) []int {
	cut := cellCuts(tc.gamma)
	if tc.cellGrid == nil {
		size := 1
		for range tc.ds.Dim() - 1 {
			size *= tc.gamma + 1
		}
		tc.cellGrid = make([]int32, size)
		for c := range tc.cellGrid {
			tc.cellGrid[c] = -1
		}
		for g, u := range vecs[:tc.grid] {
			// Copies of one direction share a cell; the first stands for it.
			if c := gridCell(u, cut); tc.cellGrid[c] < 0 {
				tc.cellGrid[c] = int32(g)
			}
		}
	}
	for len(tc.cells) < len(vecs) {
		tc.cells = append(tc.cells, -1)
	}
	cells, cellGrid := tc.cells, tc.cellGrid
	return func(v int) []int {
		c := cells[v]
		if c < 0 {
			c = gridCell(vecs[v], cut)
			cells[v] = c
		}
		if g := cellGrid[c]; g >= 0 {
			return tops[g]
		}
		return nil
	}
}

// cellCuts returns the squared cosines of the polar grid's half steps,
// cos²((j+½)·π/2γ) for j < gamma, in decreasing order: the boundaries
// between the grid angles j·π/2γ and (j+1)·π/2γ.
func cellCuts(gamma int) []float64 {
	cut := make([]float64, gamma)
	for j := range cut {
		c := math.Cos((float64(j) + 0.5) * math.Pi / 2 / float64(gamma))
		cut[j] = c * c
	}
	return cut
}

// gridCell returns the index, in geom.AngleGrid's enumeration order, of the
// grid direction whose polar angles are each nearest to u's, for u in the
// non-negative orthant. Angle i-1 of u satisfies cos² = u[i]²/|u[0..i]|²,
// and cosine falls on [0, π/2], so it is past the j-th half step exactly
// when u[i]² <= cut[j]·|u[0..i]|²: no trig and no search.
//
// A grid angle of 0 zeroes every earlier coordinate, so the grid holds
// γ+1 copies of that direction for each earlier angle. They all map to one
// cell, the copy whose earlier angles are all π/2 (a zero prefix quantizes
// to the last angle), so a u whose angle rounds to 0 takes that cell too.
func gridCell(u geom.Vector, cut []float64) int32 {
	var cell, stride int32 = 0, 1
	r := u[0] * u[0]
	for _, x := range u[1:] {
		x2 := x * x
		r += x2
		q := 0
		for q < len(cut) && x2 <= cut[q]*r {
			q++
		}
		if q == 0 {
			cell = stride - 1 // every earlier angle at its last step
		}
		cell += int32(q) * stride
		stride *= int32(len(cut) + 1)
	}
	return cell
}

// selectTops is the one top-K scoring pass: it hands par.Tiles tiles of
// vecTileSize(ds.N()) vectors, and for each tile scores every row of ds with
// dataset.UtilitiesBatch (each tuple's utility summed in a register over
// tuple tiles of the column-major mirror) and turns the scores into top
// lists with topk.SelectBatchSeeded (a read-only scan against a seeded
// heap). put(i, list) receives vecs[i]'s depth-target list, best first; ids
// maps ds's rows to tuple ids as in SelectBatchSeeded. seed, when non-nil,
// returns a depth-target id list to seed vecs[i]'s heap with, or nil for
// the previous row's winners; its ids are mapped to rows of ds through one
// position map per call. Workers write disjoint i, and the result depends
// only on the inputs, never on workers (0 = GOMAXPROCS) or seeds.
func selectTops(ctx context.Context, workers int, ds *dataset.Dataset, ids []int, vecs []geom.Vector, target int, seed func(i int) []int, put func(i int, list []int)) error {
	// Materialize the column mirror before the fan-out so workers don't all
	// race to build identical copies.
	ds.ColumnMajor()
	var pos []int32
	if seed != nil && ids != nil {
		pos = make([]int32, ids[len(ids)-1]+1)
		for i := range pos {
			pos[i] = -1
		}
		for p, id := range ids {
			pos[id] = int32(p)
		}
	}
	tile := vecTileSize(ds.N())
	return par.Tiles(ctx, workers, (len(vecs)+tile-1)/tile, func() func(int) {
		var scores [][]float64
		var seeds [][]int
		var scratch, seedBuf []int
		if seed != nil {
			seeds = make([][]int, tile)
			seedBuf = make([]int, tile*target)
		}
		return func(t int) {
			lo, hi := t*tile, min((t+1)*tile, len(vecs))
			scores = ds.UtilitiesBatch(vecs[lo:hi], scores)
			var rowSeeds [][]int
			if seed != nil {
				rowSeeds = seeds[:hi-lo]
				for i := range rowSeeds {
					rowSeeds[i] = seedRows(seed(lo+i), pos, seedBuf[i*target:(i+1)*target])
				}
			}
			var lists [][]int
			lists, scratch = topk.SelectBatchSeeded(scores, ids, target, rowSeeds, scratch)
			for i, list := range lists {
				put(lo+i, list)
			}
		}
	})
}

// seedRows writes the rows of list's ids into dst through pos (nil for the
// identity) and returns it, or returns nil when list is not a full-depth
// list inside the row universe, so that row falls back to the previous
// row's seed.
func seedRows(list []int, pos []int32, dst []int) []int {
	if len(list) != len(dst) {
		return nil
	}
	for i, id := range list {
		if pos == nil {
			dst[i] = id
			continue
		}
		if id >= len(pos) || pos[id] < 0 {
			return nil
		}
		dst[i] = int(pos[id])
	}
	return dst
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
	return newVecSet(ds, vecs, gridCount, gamma), nil
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
