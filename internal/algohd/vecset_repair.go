package algohd

import (
	"context"
	"slices"

	"github.com/rankregret/rankregret/internal/dataset"
	"github.com/rankregret/rankregret/internal/geom"
	"github.com/rankregret/rankregret/internal/par"
	"github.com/rankregret/rankregret/internal/skyline"
	"github.com/rankregret/rankregret/internal/topk"
	"github.com/rankregret/rankregret/internal/xrand"
)

// Incremental repair of a SharedVecSet across dataset mutations. The
// discretization D (polar grid + seeded sample stream) depends only on the
// dimension, space, gamma, and seed — never on the data — so a mutated
// dataset can reuse it outright. What does depend on the data is the
// expensive part: the per-vector top-K lists. Repair reuses those too:
//
//   - appended rows are first filtered against the source's cached
//     skyband: a row that at least K surviving skyband rows always-beat
//     (skyline.AlwaysBeats) ranks below K tuples under every utility, so no
//     depth-K list can admit it (Theorem 3's candidate argument);
//   - the rows that survive the filter are batch-scored with
//     dataset.UtilitiesBatch and merge-repaired into each committed list
//     under the exact selection comparator (topk.Beats), instead of
//     re-scoring the whole dataset;
//   - an append with no delete whose rows all fail the filter changes no
//     list and no basis tuple, so the repaired cache shares the source's
//     lists, skyband, and published basis index and does no per-vector
//     work;
//   - deleted rows remap the ids of untouched lists for free, and only the
//     lists whose top-K intersects the tombstones are re-selected from
//     scratch, falling back to a full rebuild when the churn exceeds
//     repairChurnFrac;
//   - the cached k-skyband candidate set extends in place on pure appends
//     with the rows that survived the filter (a superset of the true
//     skyband is always a sound pruning universe) and resets on deletes.
//
// Repaired lists are bit-identical to a cold build on the mutated dataset:
// scores accumulate attribute terms in the same ascending-j order on both
// paths, surviving rows keep their values and relative id order, and the
// merge uses the builders' own comparator.

// repairChurnFrac is the delete-churn rebuild threshold: when more than this
// fraction of committed lists intersect the tombstones, per-vector
// re-selection would approach the cost of a fresh scoring pass and repair
// declines in favor of a cold rebuild.
const repairChurnFrac = 0.25

// repairFilterBudget caps the pairwise comparisons one repair's entrant
// filter may spend, as kSkybandBudget caps KSkyband's scan. The filter only
// saves merge work, so once the budget runs out every remaining appended
// row counts as an entrant, which is always sound.
const repairFilterBudget = 1 << 22

// repairMaxNewFrac bounds how large the appended-row set may be relative to
// the repaired dataset before a cold rebuild is preferred: merging a
// near-rebuilt dataset row set saves nothing over scoring it from scratch.
const repairMaxNewFrac = 0.5

// NewRepairedVecSet prepares a SharedVecSet for newDS that will, on first
// Acquire, materialize by incrementally repairing old's grid, sample stream,
// and committed top-K lists across the recorded deltas (which must span
// old.Dataset().Version() .. newDS.Version() of the same lineage). The
// repair is lazy, runs under the new set's lock (so concurrent first
// acquirers coalesce on it, exactly like cold builds), and never changes
// what old serves: views already handed out by old keep serving the
// pre-mutation dataset, which is what version-pinned solves rely on. It
// only takes over old's sample generator when that is clean (old resyncs
// its own if it is ever extended again). When the repair
// declines — a rewrite delta, excessive delete churn, an inconsistent
// history — the set silently falls back to a cold build, so callers need no
// fallback path of their own.
func NewRepairedVecSet(old *SharedVecSet, newDS *dataset.Dataset, deltas []dataset.Delta) *SharedVecSet {
	// No locks here: this runs under the engine's cache lock, and waiting on
	// a mid-build source would stall every cache acquire. The space config
	// (which may only settle when the source builds) is copied lazily at
	// materialization time, under the new set's own lock only.
	return &SharedVecSet{
		ds:      newDS,
		gamma:   old.gamma,
		seed:    old.seed,
		sampler: old.sampler,
		repair:  &repairSource{old: old, deltas: deltas},
	}
}

// repairFrom materializes s from src, returning ok=false when the repair
// declines (caller falls back to a cold build) and an error only on
// cancellation. Called with s.mu held; takes the source's locks, which is
// safe because a repair source is always strictly older than its consumer.
func (s *SharedVecSet) repairFrom(ctx context.Context, src *repairSource) (bool, error) {
	old := src.old
	// A chain of pending repairs (mutations with no solves in between)
	// resolves recursively: materializing the source may itself repair from
	// its own source.
	if err := old.materialize(ctx); err != nil {
		return false, err
	}
	old.mu.Lock()
	// Full slice expressions cap capacity so a later extension of either
	// set's vector list reallocates instead of appending into the shared
	// backing array.
	vecs := old.vecs[:len(old.vecs):len(old.vecs)]
	space, gridCount, samples, rngSteps, oldTC := old.space, old.gridCount, old.samples, old.rngSteps, old.tc
	// A clean source rng sits exactly at the end of the committed stream,
	// which is where this set's next extension continues: take it over,
	// and leave the source to resync if it is ever extended again.
	var rng *xrand.Rand
	if !old.rngDirty {
		rng, old.rng, old.rngDirty = old.rng, nil, true
	}
	old.mu.Unlock()
	// Adopt the source's resolved space immediately: even a declined
	// repair's cold-build fallback must discretize the same (possibly
	// restricted) space the chain was configured with.
	s.space = space

	tc, ok, err := oldTC.repaired(ctx, s.ds, src.deltas)
	if err != nil || !ok {
		return ok, err
	}
	s.vecs = vecs
	s.gridCount = gridCount
	s.samples = samples
	// Without the source's rng, resync lazily (a skip to rngSteps) if an
	// extension ever needs it: the stream is deterministic from the seed.
	s.rng = rng
	s.rngDirty = rng == nil
	s.rngSteps = rngSteps
	s.tc = tc
	s.built = true
	return true, nil
}

// repaired returns a new topsCache for newDS whose committed lists are
// incrementally repaired from tc's across deltas, or ok=false when repair
// is not worthwhile (see the file comment for the decline conditions). tc
// itself is never modified. The error is cancellation only.
func (tc *topsCache) repaired(ctx context.Context, newDS *dataset.Dataset, deltas []dataset.Delta) (*topsCache, bool, error) {
	// buildMu serializes against scoring passes on the source and makes the
	// skyband fields safe to read; the committed lists themselves are
	// immutable once published.
	tc.buildMu.Lock()
	defer tc.buildMu.Unlock()
	tc.mu.Lock()
	vecs, topK, tops := tc.vecs, tc.topK, tc.tops
	tc.mu.Unlock()

	newN := newDS.N()
	if newN == 0 || newDS.Dim() != tc.ds.Dim() {
		return nil, false, nil
	}
	out := newTopsCache(newDS, vecs, tc.grid, tc.gamma)
	out.par.Store(tc.par.Load())
	// Grid cells depend only on the vectors. The table is never written
	// once built, so it is shared; the cells fill in lazily per cache, so
	// each cache gets its own copy.
	out.cells, out.cellGrid = slices.Clone(tc.cells), tc.cellGrid
	if len(tops) == 0 || topK == 0 {
		// Nothing expensive committed yet: carry the empty cache; the next
		// ensure builds it against the new dataset.
		return out, true, nil
	}

	oldToNew, newIDs, composedN, ok := dataset.ComposeDeltas(tc.ds.N(), deltas)
	if !ok || composedN != newN {
		return nil, false, nil
	}
	if float64(len(newIDs)) > repairMaxNewFrac*float64(newN) {
		return nil, false, nil
	}
	// Verify the mapped rows byte-for-byte: every soundness argument above
	// rests on surviving rows keeping their exact values. The structural
	// checks cannot see a divergent history — two snapshots of one version
	// mutated independently produce a delta window that composes cleanly
	// but describes the wrong source — and this comparison can: any content
	// drift under the mapping (including NaNs, conservatively) declines to
	// a cold build. O(n*d), negligible next to the merge pass it guards.
	for i, p := range oldToNew {
		if p < 0 {
			continue
		}
		a, b := tc.ds.Row(i), newDS.Row(p)
		for j := range a {
			if a[j] != b[j] {
				return nil, false, nil
			}
		}
	}
	hasDelete := slices.ContainsFunc(oldToNew, func(p int) bool { return p < 0 })
	target := min(topK, newN)

	// Lists holding a tombstone cannot know their replacement entries from
	// k-deep state; they are re-selected from scratch below. Past the churn
	// threshold that re-selection approaches a full pass — decline.
	var affected []int
	if hasDelete {
		for v, list := range tops {
			for _, id := range list {
				if oldToNew[id] < 0 {
					affected = append(affected, v)
					break
				}
			}
		}
		if float64(len(affected)) > repairChurnFrac*float64(len(tops)) {
			return nil, false, nil
		}
	}

	entrants := tc.entrants(newDS, newIDs, oldToNew, hasDelete, target)
	// The band at skyDepth may only drop rows with at least skyDepth
	// beaters. skyDepth exceeds target only after a cancelled deepening;
	// the band then takes every appended row. Either way bandRows holds
	// every entrant.
	bandRows := entrants
	if tc.skyDepth > target {
		bandRows = newIDs
	}
	if !hasDelete && len(bandRows) == 0 {
		// No list can change, and no dropped row is the first maximum of an
		// attribute (a lower id is at least as large on every attribute),
		// so Basis() is unchanged and the published basis index stays
		// exact; searchIndex still checks the basis. Full slice
		// expressions cap capacity as repairFrom does for vecs.
		out.tops = tops[:len(tops):len(tops)]
		out.topK = target
		out.skyAbandoned = tc.skyAbandoned
		out.skyDepth, out.skySub = tc.skyDepth, tc.skySub
		out.skyIDs = tc.skyIDs[:len(tc.skyIDs):len(tc.skyIDs)]
		out.basis.Store(tc.basis.Load())
		return out, true, nil
	}

	repTops := make([][]int, len(tops))
	var newSub *dataset.Dataset
	if len(entrants) > 0 {
		newSub = newDS.Subset(entrants)
		newSub.ColumnMajor() // materialize before the fan-out
	}
	isAffected := make([]bool, len(tops))
	for _, v := range affected {
		isAffected[v] = true
	}
	if err := tc.repairMergePass(ctx, vecs[:len(tops)], newDS, newSub, entrants, oldToNew, hasDelete, isAffected, target, repTops, tops); err != nil {
		return nil, false, err
	}
	if err := tc.repairReselectPass(ctx, vecs, newDS, affected, target, repTops); err != nil {
		return nil, false, err
	}
	out.tops = repTops
	out.topK = target

	// Skyband candidate universe: on pure appends the old band plus the
	// appended rows the filter kept is a superset of the true band (a row
	// beaten by depth others before the append is still beaten by them, and
	// a dropped row is beaten by depth surviving rows), and a superset
	// prunes soundly. Deletes can re-admit rows, so the band resets and the
	// next depth probe recomputes it. Abandonment carries over: it only ever
	// means "no pruning", which is always sound.
	out.skyAbandoned = tc.skyAbandoned
	if !hasDelete && tc.skySub != nil && !tc.skyAbandoned {
		ids := make([]int, 0, len(tc.skyIDs)+len(bandRows))
		ids = append(ids, tc.skyIDs...)
		ids = append(ids, bandRows...) // appended ids exceed every old id: still ascending
		out.skyDepth = tc.skyDepth
		out.skyIDs = ids
		out.skySub = newDS.Subset(ids)
	}
	return out, true, nil
}

// entrants returns the appended rows, ascending, that fewer than target
// surviving rows of tc's cached skyband always-beat. Every other appended
// row ranks below target tuples under every non-negative utility, so no
// depth-target list can admit it. Any surviving rows would do as beaters;
// the skyband is where they are most likely to be found. Surviving rows
// precede every appended row in the new ids, so the id tie-break always
// favors the beater. Without a band that could hold target beaters (none
// cached, abandoned, or target beyond its size) every row is an entrant,
// and so is every row still unchecked when repairFilterBudget runs out.
// Called with tc.buildMu held.
func (tc *topsCache) entrants(newDS *dataset.Dataset, newIDs, oldToNew []int, hasDelete bool, target int) []int {
	if len(newIDs) == 0 || tc.skySub == nil || tc.skyAbandoned || len(tc.skyIDs) < target {
		return newIDs
	}
	budget := repairFilterBudget
	out := make([]int, 0, len(newIDs))
	for i, id := range newIDs {
		row := newDS.Row(id)
		beaters := 0
		for p, s := range tc.skyIDs {
			if hasDelete {
				if s = oldToNew[s]; s < 0 {
					continue
				}
			}
			if budget--; budget < 0 {
				return append(out, newIDs[i:]...)
			}
			if skyline.AlwaysBeats(tc.skySub.Row(p), row, s, id) {
				if beaters++; beaters >= target {
					break
				}
			}
		}
		if beaters < target {
			out = append(out, id)
		}
	}
	return out
}

// repairMergePass fills repTops[v] for every non-affected vector: the old
// list remapped through the deletion and merged with the batch-scored
// entrants newIDs (the rows of newSub), truncated to target. Affected
// vectors are skipped (the re-select pass owns them). A tile's changed
// lists are merged into one scratch buffer and then copied into a single
// exactly-sized backing array, so a tile costs one allocation however many
// of its lists change.
func (tc *topsCache) repairMergePass(ctx context.Context, vecs []geom.Vector, newDS, newSub *dataset.Dataset, newIDs []int, oldToNew []int, hasDelete bool, isAffected []bool, target int, repTops, tops [][]int) error {
	// A merge tile is several scoring tiles wide: its changed lists share one
	// allocation, and fewer, larger allocations are markedly cheaper. Sizing
	// by widen times the appended rows keeps the score buffer within
	// vecTileSize's bound.
	const widen = 4
	tile := widen * vecTileSize(widen*max(len(newIDs), 1))
	return par.Tiles(ctx, int(tc.par.Load()), (len(vecs)+tile-1)/tile, func() func(int) {
		var scores [][]float64
		var order, merged []int
		ends := make([]int, tile)
		return func(t int) {
			lo, hi := t*tile, min((t+1)*tile, len(vecs))
			if newSub != nil {
				scores = newSub.UtilitiesBatch(vecs[lo:hi], scores)
			}
			merged = merged[:0]
			for v := lo; v < hi; v++ {
				ends[v-lo] = -1
				if isAffected[v] {
					continue
				}
				var candScores []float64
				if newSub != nil {
					candScores = scores[v-lo]
				}
				shared, grown, fresh := mergeRepairList(newDS, vecs[v], tops[v], oldToNew, hasDelete, newIDs, candScores, target, &order, merged)
				merged = grown
				if fresh {
					ends[v-lo] = len(merged)
				} else {
					repTops[v] = shared
				}
			}
			if len(merged) == 0 {
				return
			}
			backing := slices.Clone(merged)
			start := 0
			for v := lo; v < hi; v++ {
				if end := ends[v-lo]; end >= 0 {
					repTops[v] = backing[start:end:end]
					start = end
				}
			}
		}
	})
}

// mergeRepairList produces the depth-target list for one vector from its
// committed pre-mutation list: incumbents keep their order (scores and
// relative ids are unchanged by append/delete), so the merge walks the two
// sorted sequences with the builders' comparator. The result is exactly the
// cold-built list: an old row absent from the incumbent list was beaten by
// >= topK surviving rows and can never enter, and every appended row that
// survived the entrant filter is a candidate (newIDs holds those alone).
//
// When nothing changes, the committed slice itself is returned as shared
// (lists are immutable, so sharing across caches is safe). Otherwise the
// merged list is appended to buf, which is returned grown with fresh=true,
// and the caller copies it out before reusing buf.
func mergeRepairList(newDS *dataset.Dataset, u geom.Vector, list []int, oldToNew []int, hasDelete bool, newIDs []int, candScores []float64, target int, order *[]int, buf []int) (shared, grown []int, fresh bool) {
	remap := func(id int) int {
		if hasDelete {
			return oldToNew[id]
		}
		return id
	}
	// When the incumbent list is at full depth, its weakest surviving member
	// is a sound entry threshold: an appended row that loses to it cannot be
	// in the merged top-target. Filtering first makes the dominant case —
	// nothing enters — one dot product, and leaves the merge with only true
	// entrants.
	cand := (*order)[:0]
	if target > 0 && len(list) >= target {
		tailID := remap(list[target-1])
		tailScore := newDS.Utility(u, tailID)
		for i, id := range newIDs {
			if topk.Beats(candScores[i], id, tailScore, tailID) {
				cand = append(cand, i)
			}
		}
	} else {
		for i := range newIDs {
			cand = append(cand, i)
		}
	}
	// Order the entrants by (score desc, id asc); newIDs is ascending, so
	// candidate position order doubles as the id tie-break. Entrant counts
	// are small, so an insertion sort on the exact comparator beats a
	// reflective sort.
	for i := 1; i < len(cand); i++ {
		c := cand[i]
		j := i - 1
		for j >= 0 && topk.Beats(candScores[c], newIDs[c], candScores[cand[j]], newIDs[cand[j]]) {
			cand[j+1] = cand[j]
			j--
		}
		cand[j+1] = c
	}
	*order = cand
	outLen := min(target, len(list)+len(cand))
	if len(cand) == 0 && !hasDelete {
		return list[:outLen:outLen], buf, false
	}

	// Merge: each incumbent is scored at most once, and only while entrants
	// remain to be placed; once the last entrant is in, the incumbent tail
	// is bulk-copied.
	start := len(buf)
	li := 0
	scored := -1 // the index into list whose score incScore holds
	var incScore float64
	for _, c := range cand {
		cs, cid := candScores[c], newIDs[c]
		for len(buf)-start < outLen && li < len(list) {
			id := remap(list[li])
			if scored != li {
				incScore, scored = newDS.Utility(u, id), li
			}
			if topk.Beats(cs, cid, incScore, id) {
				break
			}
			buf = append(buf, id)
			li++
		}
		if len(buf)-start == outLen {
			break
		}
		buf = append(buf, cid)
	}
	tail := list[li:min(len(list), li+outLen-(len(buf)-start))]
	if !hasDelete {
		buf = append(buf, tail...)
	} else {
		for _, id := range tail {
			buf = append(buf, oldToNew[id])
		}
	}
	return nil, buf, true
}

// repairReselectPass recomputes the affected vectors' lists from scratch
// against the full repaired dataset: scoring every row for just those
// vectors is exactly what a cold build would feed the selector, so the
// output is cold-identical by construction.
func (tc *topsCache) repairReselectPass(ctx context.Context, vecs []geom.Vector, newDS *dataset.Dataset, affected []int, target int, repTops [][]int) error {
	if len(affected) == 0 {
		return nil
	}
	affVecs := make([]geom.Vector, len(affected))
	for i, v := range affected {
		affVecs[i] = vecs[v]
	}
	return selectTops(ctx, int(tc.par.Load()), newDS, nil, affVecs, target, nil, func(i int, list []int) {
		repTops[affected[i]] = list
	})
}
