package topk

import "fmt"

// better reports whether position a should rank before position b in a score
// slice, delegating to the package's beats comparator so the two can never
// drift. Positions double as the deterministic tie-break, which is why
// SelectBatchSeeded requires any id remapping to be ascending — position
// order and id order then agree.
func better(scores []float64, a, b int) bool {
	return beats(scores[a], a, scores[b], b)
}

// entry is one selection-heap slot: a score held next to its row position,
// so heap compares never load through the score row.
type entry struct {
	score float64
	pos   int
}

// worse is the heap order: the worse of two entries sits nearer the root.
func (a entry) worse(b entry) bool { return beats(b.score, b.pos, a.score, a.pos) }

// SelectBatch is SelectBatchSeeded with every row seeded from the row before
// it (nil seeds). Library code calls SelectBatchSeeded; this wrapper stays
// for cmd/rrmladder's topk.SelectBatch rung, which times the unseeded scan.
func SelectBatch(rows [][]float64, ids []int, k int, scratch []int) ([][]int, []int) {
	return SelectBatchSeeded(rows, ids, k, nil, scratch)
}

// SelectBatchSeeded converts a tile of score rows — as produced by
// dataset.UtilitiesBatch, so every row has the same length — into per-row
// top-k id lists, best first, under the package's deterministic order
// (score descending, id ascending). ids maps score positions to tuple ids
// and must be strictly ascending; nil means the identity (position i is
// tuple i). scratch is optional (it must not alias ids) and is returned
// (possibly grown) so a loop over tiles reuses one selection buffer
// throughout. The lists of one call share a single backing array, each
// capped at its own length. The lists agree exactly with TopK, tie-breaks
// included.
//
// Two regimes, chosen by k/n and both producing the identical deterministic
// order, avoid TopK's per-element container/heap churn: for small k a
// read-only scan of each row against an inline min-heap of (score,
// position) pairs, and for k a sizable fraction of n a quickselect over an
// index permutation (the scan's heap churn would approach n log n there).
//
// In the scan regime each row's heap starts from k distinct positions that
// the scan then skips. seeds is nil or holds one entry per row; a non-nil
// seeds[b] is exactly k distinct positions of row b, a guess at its top k:
// the HDRRM scoring pass passes the committed list of the row's nearest
// polar-grid direction, whose top k is nearly the row's own. A nil seed
// means the previous row's winners (the first row's: positions 0..k-1);
// even for unrelated rows those score well, since every row's top k is
// drawn from the same small front of the data. The closer the seeded root
// is to the row's k-th score, the fewer elements replace it. Seeding cannot
// change a result: the order is strict and total, so the top-k set is
// unique whatever the heap starts from. The quickselect regime ignores
// seeds.
func SelectBatchSeeded(rows [][]float64, ids []int, k int, seeds [][]int, scratch []int) ([][]int, []int) {
	out := make([][]int, len(rows))
	if len(rows) == 0 {
		return out, scratch
	}
	n := len(rows[0])
	k = min(k, n)
	if k <= 0 {
		return out, scratch
	}
	backing := make([]int, len(rows)*k)
	h := make([]entry, k)
	if 8*k < n {
		// scratch holds the seed marks (n stamps, one per row of this call)
		// and the previous row's winning positions (k).
		if cap(scratch) < n+k {
			scratch = make([]int, n+k)
		}
		marks, prev := scratch[:n], scratch[n:n+k]
		clear(marks)
		for i := range prev {
			prev[i] = i
		}
		for b, row := range rows {
			seed := prev
			if seeds != nil && seeds[b] != nil {
				if seed = seeds[b]; len(seed) != k {
					panic(fmt.Sprintf("topk: row %d has %d seeds, want %d", b, len(seed), k))
				}
			}
			scanSelect(row, h, seed, marks, b+1)
			for i, e := range h {
				prev[i] = e.pos
			}
			out[b] = emit(h, ids, backing[b*k:(b+1)*k:(b+1)*k])
		}
		return out, scratch
	}
	if cap(scratch) < n {
		scratch = make([]int, n)
	}
	perm := scratch[:n]
	for b, row := range rows {
		for i := range perm {
			perm[i] = i
		}
		quickselectTop(row, perm, k)
		for i, p := range perm[:k] {
			h[i] = entry{row[p], p}
		}
		heapify(h)
		out[b] = emit(h, ids, backing[b*k:(b+1)*k:(b+1)*k])
	}
	return out, scratch
}

// emit orders the heap h best first and writes its ids (through the ids
// mapping when non-nil) into dst.
func emit(h []entry, ids []int, dst []int) []int {
	heapSort(h)
	for i, e := range h {
		if ids == nil {
			dst[i] = e.pos
		} else {
			dst[i] = ids[e.pos]
		}
	}
	return dst
}

// heapify arranges h into a min-heap, worst entry at the root.
func heapify(h []entry) {
	for p := len(h)/2 - 1; p >= 0; p-- {
		siftDown(h, p)
	}
}

// siftDown moves h[p] down until neither child is worse.
func siftDown(h []entry, p int) {
	e := h[p]
	for c := 2*p + 1; c < len(h); c = 2*p + 1 {
		if c+1 < len(h) {
			c = worseChild(h, c)
		}
		if !h[c].worse(e) {
			break
		}
		h[p] = h[c]
		p = c
	}
	h[p] = e
}

// heapSort orders the min-heap h best first in place: each step moves the
// worst remaining entry to the back of the unsorted prefix.
func heapSort(h []entry) {
	for end := len(h) - 1; end > 0; end-- {
		e := h[end]
		h[end] = h[0]
		replaceRoot(h[:end], e)
	}
}

// scanSelect fills h (length k) with the k best positions of row as a
// min-heap. The heap starts from the k distinct positions in seeds, which
// are stamped in marks so the scan does not consider them twice; the stamp
// must differ from every other value in marks. Elements not beating the
// root — the overwhelming majority once the root is near the k-th score —
// cost one comparison and no writes.
func scanSelect(row []float64, h []entry, seeds, marks []int, stamp int) {
	for i, p := range seeds {
		h[i] = entry{row[p], p}
		marks[p] = stamp
	}
	heapify(h)
	// Cache the root so the common "not a candidate" case is one or two
	// comparisons with no loads through the heap.
	root := h[0]
	for i, s := range row {
		if s < root.score || (s == root.score && i > root.pos) || marks[i] == stamp {
			continue
		}
		replaceRoot(h, entry{s, i})
		root = h[0]
	}
}

// replaceRoot puts e in place of the root of the min-heap h and restores the
// heap order. The hole left by the root walks down the path of worse
// children to a leaf, one comparison per level, and e then sifts up from
// there: most entrants and every heapSort step settle near the bottom, so
// this beats a top-down sift's two comparisons per level.
func replaceRoot(h []entry, e entry) {
	n := len(h)
	p := 0
	for c := 1; c+1 < n; c = 2*p + 1 {
		c = worseChild(h, c)
		h[p] = h[c]
		p = c
	}
	if c := 2*p + 1; c < n {
		h[p] = h[c]
		p = c
	}
	for p > 0 {
		q := (p - 1) / 2
		if !e.worse(h[q]) {
			break
		}
		h[p] = h[q]
		p = q
	}
	h[p] = e
}

// worseChild returns the index of the worse of the siblings h[c] and
// h[c+1]. The two ifs, kept apart, compile to a flag added to the index for
// the score comparison, not a branch no predictor can learn; only the rare
// exact tie takes a branch, to compare positions.
func worseChild(h []entry, c int) int {
	l, r := h[c], h[c+1]
	d := 0
	if r.score < l.score {
		d = 1
	}
	if r.score == l.score && r.pos > l.pos {
		d = 1
	}
	return c + d
}

// quickselectTop partially orders perm so perm[:k] holds the k best
// positions (in arbitrary order). The order is strict and total (positions
// are distinct), so the selected set is unique and deterministic no matter
// how pivots fall.
func quickselectTop(scores []float64, perm []int, k int) {
	lo, hi := 0, len(perm)-1
	for lo < hi {
		p := partitionTop(scores, perm, lo, hi)
		switch {
		case p == k-1:
			return
		case p < k-1:
			lo = p + 1
		default:
			hi = p - 1
		}
	}
}

// partitionTop runs a better-first Lomuto partition of perm[lo:hi+1] around
// a median-of-three pivot and returns the pivot's final index.
func partitionTop(scores []float64, perm []int, lo, hi int) int {
	mid := lo + (hi-lo)/2
	// Move the median of (lo, mid, hi) to hi so sorted and reverse-sorted
	// inputs stay near O(n).
	if better(scores, perm[mid], perm[lo]) {
		perm[mid], perm[lo] = perm[lo], perm[mid]
	}
	if better(scores, perm[hi], perm[lo]) {
		perm[hi], perm[lo] = perm[lo], perm[hi]
	}
	if better(scores, perm[mid], perm[hi]) {
		perm[mid], perm[hi] = perm[hi], perm[mid]
	}
	pivot := perm[hi]
	i := lo
	for j := lo; j < hi; j++ {
		if better(scores, perm[j], pivot) {
			perm[i], perm[j] = perm[j], perm[i]
			i++
		}
	}
	perm[i], perm[hi] = perm[hi], perm[i]
	return i
}
