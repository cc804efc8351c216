package skyline

import (
	"cmp"
	"slices"

	"github.com/rankregret/rankregret/internal/dataset"
)

// AlwaysBeats reports whether tuple a outranks tuple b under EVERY non-zero
// non-negative utility vector, given the repository's deterministic
// tie-break (higher score wins; equal scores go to the lower index). That
// holds in exactly two cases:
//
//   - a >= b on every attribute and ida < idb: a's score is never below b's,
//     and any tie breaks toward a;
//   - a > b strictly on every attribute: a's score is strictly higher for
//     any u >= 0 with at least one positive weight, regardless of ids.
//
// Classical Pareto dominance is NOT sufficient here: a tuple can dominate a
// lower-indexed one yet lose the tie on a utility vector with zero weight on
// every differing attribute.
//
// KSkyband's scan and the VecSet repair's entrant filter both decide
// membership with this one comparison.
func AlwaysBeats(a, b []float64, ida, idb int) bool {
	strictAll := true
	for j := range a {
		if a[j] < b[j] {
			return false
		}
		if a[j] <= b[j] {
			strictAll = false
		}
	}
	return strictAll || ida < idb
}

// kSkybandBudget caps the pairwise comparisons one KSkyband call may spend.
// The sort-filter scan is O(n * |skyband|) in the worst case (mutually
// incomparable data keeps everything), and the skyband is a pure pruning
// accelerator — when it would cost more than it can save, giving up and
// returning nil ("no pruning") is the right answer.
const kSkybandBudget = 1 << 26

// KSkyband returns, in ascending order, the ids of every tuple that fewer
// than k other tuples always-beat (see AlwaysBeats) — the only tuples that
// can appear in ANY top-k result Phi_k(u, D) over the non-negative orthant,
// for this repository's deterministic tie-break. Restricting a top-k
// selection universe or a rank-k cover-candidate set to the k-skyband is
// therefore a pure optimization: results are provably unchanged, for the
// full space and every restricted sub-space alike.
//
// It returns nil (meaning "prune nothing") when k >= n, or when the scan
// exhausts its comparison budget — adversarially incomparable data (e.g.
// points on a sphere octant) has a skyband of nearly everything, and
// computing that exactly is all cost and no pruning.
//
// The scan sorts by (attribute sum desc, id asc), which every always-beater
// precedes its victims in, and counts beaters among kept tuples only: a
// discarded beater implies k kept beaters by transitivity, so the count is
// exact. O(n log n + n * |skyband| * d), bounded by the budget.
func KSkyband(ds *dataset.Dataset, k int) []int {
	n := ds.N()
	if k < 1 || k >= n {
		return nil
	}
	type rec struct {
		id  int
		sum float64
	}
	recs := make([]rec, n)
	for i := 0; i < n; i++ {
		var s float64
		for _, v := range ds.Row(i) {
			s += v
		}
		recs[i] = rec{i, s}
	}
	slices.SortFunc(recs, func(a, b rec) int {
		if a.sum != b.sum {
			if a.sum > b.sum {
				return -1
			}
			return 1
		}
		return cmp.Compare(a.id, b.id)
	})
	budget := kSkybandBudget
	kept := make([]int, 0, 2*k)
	for _, r := range recs {
		row := ds.Row(r.id)
		beaters := 0
		for _, s := range kept {
			if budget--; budget < 0 {
				return nil
			}
			if AlwaysBeats(ds.Row(s), row, s, r.id) {
				if beaters++; beaters >= k {
					break
				}
			}
		}
		if beaters < k {
			kept = append(kept, r.id)
		}
	}
	slices.Sort(kept)
	return kept
}
