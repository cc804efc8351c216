// Package topk provides the top-k query machinery the rank-regret
// algorithms are built on: utility evaluation, selection of the k highest
// scoring tuples (the paper's Phi_k(u, D)), and rank computation (the
// paper's nabla_u). Ties in utility are broken by tuple index so every
// operation is deterministic; the paper assumes no exact ties, and the
// deterministic tie-break preserves all of its guarantees.
package topk

import (
	"cmp"
	"container/heap"
	"slices"

	"github.com/rankregret/rankregret/internal/dataset"
)

// scoreHeap is a min-heap of (score, id) pairs ordered worst-first so the
// root is the weakest of the current top-k candidates.
type scoreHeap struct {
	scores []float64
	ids    []int
}

func (h *scoreHeap) Len() int { return len(h.ids) }
func (h *scoreHeap) Less(a, b int) bool {
	if h.scores[a] != h.scores[b] {
		return h.scores[a] < h.scores[b]
	}
	// Larger index = weaker under the deterministic tie-break, so it sits
	// nearer the root.
	return h.ids[a] > h.ids[b]
}
func (h *scoreHeap) Swap(a, b int) {
	h.scores[a], h.scores[b] = h.scores[b], h.scores[a]
	h.ids[a], h.ids[b] = h.ids[b], h.ids[a]
}
func (h *scoreHeap) Push(x any) { panic("topk: push not used") }
func (h *scoreHeap) Pop() any   { panic("topk: pop not used") }

// beats reports whether (s1, id1) outranks (s2, id2): strictly higher score,
// or equal score and lower index.
func beats(s1 float64, id1 int, s2 float64, id2 int) bool {
	if s1 != s2 {
		return s1 > s2
	}
	return id1 < id2
}

// compare is the three-way form of beats: -1 when (s1, id1) ranks first,
// +1 when (s2, id2) does, 0 for the same entry.
func compare(s1 float64, id1 int, s2 float64, id2 int) int {
	if s1 != s2 {
		if s1 > s2 {
			return -1
		}
		return 1
	}
	return cmp.Compare(id1, id2)
}

// Beats reports whether entry (s1, id1) ranks strictly before (s2, id2)
// under the package's deterministic order: higher score first, equal scores
// to the lower id. It is exported so incremental maintainers of top-K lists
// (merge repair after dataset mutation) share the exact comparator the
// builders use and the two can never drift.
func Beats(s1 float64, id1 int, s2 float64, id2 int) bool { return beats(s1, id1, s2, id2) }

// TopK returns the indices of the k highest-utility tuples under weight
// vector u, ordered best first. If k >= n it returns the full ranking.
// Scratch space scores may be nil; pass a reusable buffer to avoid
// allocation in hot loops.
func TopK(ds *dataset.Dataset, u []float64, k int, scores []float64) []int {
	n := ds.N()
	if k > n {
		k = n
	}
	if k <= 0 {
		return nil
	}
	scores = ds.Utilities(u, scores)
	// Heap selection: O(n log k), good for the k << n regime every solver
	// here operates in.
	h := &scoreHeap{scores: make([]float64, 0, k), ids: make([]int, 0, k)}
	for i := 0; i < n; i++ {
		if len(h.ids) < k {
			h.scores = append(h.scores, scores[i])
			h.ids = append(h.ids, i)
			if len(h.ids) == k {
				heap.Init(h)
			}
			continue
		}
		if beats(scores[i], i, h.scores[0], h.ids[0]) {
			h.scores[0], h.ids[0] = scores[i], i
			heap.Fix(h, 0)
		}
	}
	// Order the selected ids best-first via an index sort over the heap's
	// parallel arrays.
	ord := make([]int, len(h.ids))
	for i := range ord {
		ord[i] = i
	}
	slices.SortFunc(ord, func(a, b int) int {
		return compare(h.scores[a], h.ids[a], h.scores[b], h.ids[b])
	})
	out := make([]int, len(ord))
	for i, o := range ord {
		out[i] = h.ids[o]
	}
	return out
}

// KthScore returns the k-th highest utility w_k(u, D). k is 1-based.
func KthScore(ds *dataset.Dataset, u []float64, k int, scores []float64) float64 {
	ids := TopK(ds, u, k, scores)
	return ds.Utility(u, ids[len(ids)-1])
}

// Rank returns nabla_u(t) for tuple id: one plus the number of tuples that
// outrank it under u (strictly higher utility, or equal utility and lower
// index). Scratch scores may be nil.
func Rank(ds *dataset.Dataset, u []float64, id int, scores []float64) int {
	scores = ds.Utilities(u, scores)
	me := scores[id]
	rank := 1
	for i, s := range scores {
		if beats(s, i, me, id) {
			rank++
		}
	}
	return rank
}

// RankOfSet returns nabla_u(S) = min over ids of nabla_u(t): the rank of the
// best member of S under u (Definition 1). ids must be non-empty. Scratch
// scores may be nil.
func RankOfSet(ds *dataset.Dataset, u []float64, ids []int, scores []float64) int {
	scores = ds.Utilities(u, scores)
	// Locate the best member of S.
	best := ids[0]
	for _, id := range ids[1:] {
		if beats(scores[id], id, scores[best], best) {
			best = id
		}
	}
	me := scores[best]
	rank := 1
	for i, s := range scores {
		if beats(s, i, me, best) {
			rank++
		}
	}
	return rank
}
