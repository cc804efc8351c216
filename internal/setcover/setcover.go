// Package setcover implements Chvátal's greedy set-cover heuristic, the
// engine inside the paper's ASMS solver (Algorithm 2, line 8) and the
// hitting-set step of the MDRRRr baseline. Greedy achieves the classic
// 1 + ln(universe) approximation ratio, which is exactly the factor in
// HDRRM's size guarantee (Theorem 9).
//
// The greedy is lazy: a max-heap of stale gains, re-scoring a set only when
// it surfaces. The heap is typed, so no entry is boxed, but its init, push,
// pop, up and down are container/heap's steps exactly. That matters beyond
// speed: among sets of equal gain, the order in which they surface decides
// which one is chosen, so a heap with any other tie order would change
// which tuples ASMS returns. The reference greedy in the package's tests is
// the container/heap version, and the tests require the same choices.
package setcover

import "context"

// entry is a candidate set with its cached (possibly stale) gain.
type entry struct{ gain, id int }

// coverHeap is a lazy max-heap of candidate sets keyed by gain.
type coverHeap []entry

// init orders h as container/heap.Init does.
func (h coverHeap) init() {
	n := len(h)
	for i := n/2 - 1; i >= 0; i-- {
		h.down(i, n)
	}
}

// push appends e and sifts it up, as container/heap.Push does.
func (h *coverHeap) push(e entry) {
	*h = append(*h, e)
	h.up(len(*h) - 1)
}

// pop removes the top entry as container/heap.Pop does: swap it with the
// last, sift the new top down over the rest, then truncate.
func (h *coverHeap) pop() entry {
	s := *h
	n := len(s) - 1
	s[0], s[n] = s[n], s[0]
	s.down(0, n)
	*h = s[:n]
	return s[n]
}

func (h coverHeap) up(j int) {
	for {
		i := (j - 1) / 2 // parent
		if i == j || h[j].gain <= h[i].gain {
			break
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
}

func (h coverHeap) down(i, n int) {
	for {
		j1 := 2*i + 1
		if j1 >= n || j1 < 0 { // j1 < 0 after int overflow
			break
		}
		j := j1 // left child
		if j2 := j1 + 1; j2 < n && h[j2].gain > h[j1].gain {
			j = j2 // right child
		}
		if h[j].gain <= h[i].gain {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
}

// Greedy covers the universe {0, ..., universe-1} using the given sets
// (each a list of element ids in range). It returns the indices of the
// chosen sets in selection order, and ok = false if the union of all sets
// does not cover the universe (in which case the partial cover chosen so
// far is returned). Total time O(sum of set sizes * log(#sets)).
func Greedy(universe int, sets [][]int) (chosen []int, ok bool) {
	chosen, ok, _ = GreedyCtx(nil, universe, sets)
	return chosen, ok
}

// GreedyCtx is Greedy with cooperative cancellation, over int or int32
// element ids: the selection loop checks ctx between rounds and returns
// ctx.Err() with the partial cover chosen so far. A nil ctx disables the
// checks. The sets may be windows of one backing array (ASMS hands over a
// flat int32 arena); Greedy neither keeps nor writes them.
func GreedyCtx[E int | int32](ctx context.Context, universe int, sets [][]E) (chosen []int, ok bool, err error) {
	if universe == 0 {
		return nil, true, nil
	}
	// covered holds 0 or 1 per element, so a set's fresh gain is its
	// length minus a sum, with no branch per element.
	covered := make([]uint8, universe)
	remaining := universe

	h := make(coverHeap, 0, len(sets))
	for i, s := range sets {
		if len(s) > 0 {
			h = append(h, entry{len(s), i})
		}
	}
	h.init()

	const checkEvery = 64
	iter := 0
	for remaining > 0 && len(h) > 0 {
		if ctx != nil {
			if iter%checkEvery == 0 {
				select {
				case <-ctx.Done():
					return chosen, false, ctx.Err()
				default:
				}
			}
			iter++
		}
		top := h.pop()
		set := sets[top.id]
		g := len(set)
		for _, e := range set {
			g -= int(covered[e])
		}
		if g == 0 {
			continue
		}
		if g < top.gain && len(h) > 0 && h[0].gain > g {
			// Stale: push back with the corrected gain and retry.
			h.push(entry{g, top.id})
			continue
		}
		// Select top.id.
		chosen = append(chosen, top.id)
		for _, e := range set {
			remaining -= 1 - int(covered[e])
			covered[e] = 1
		}
	}
	return chosen, remaining == 0, nil
}

// CoverSize returns how many elements of the universe the chosen sets cover.
// Helper for tests and for partial-cover diagnostics.
func CoverSize(universe int, sets [][]int, chosen []int) int {
	covered := make([]bool, universe)
	n := 0
	for _, ci := range chosen {
		for _, e := range sets[ci] {
			if !covered[e] {
				covered[e] = true
				n++
			}
		}
	}
	return n
}
