// Package setcover implements Chvátal's greedy set-cover heuristic, the
// engine inside the paper's ASMS solver (Algorithm 2, line 8) and the
// hitting-set step of the MDRRRr baseline. Greedy achieves the classic
// 1 + ln(universe) approximation ratio, which is exactly the factor in
// HDRRM's size guarantee (Theorem 9).
package setcover

import (
	"container/heap"
	"context"
)

// coverHeap is a lazy max-heap of candidate sets keyed by (stale) uncovered
// counts.
type coverHeap struct {
	gain []int // cached gain per entry
	id   []int // set index per entry
}

func (h *coverHeap) Len() int           { return len(h.id) }
func (h *coverHeap) Less(a, b int) bool { return h.gain[a] > h.gain[b] }
func (h *coverHeap) Swap(a, b int) {
	h.gain[a], h.gain[b] = h.gain[b], h.gain[a]
	h.id[a], h.id[b] = h.id[b], h.id[a]
}
func (h *coverHeap) Push(x any) {
	e := x.([2]int)
	h.gain = append(h.gain, e[0])
	h.id = append(h.id, e[1])
}
func (h *coverHeap) Pop() any {
	n := len(h.id) - 1
	e := [2]int{h.gain[n], h.id[n]}
	h.gain = h.gain[:n]
	h.id = h.id[:n]
	return e
}

// Greedy covers the universe {0, ..., universe-1} using the given sets
// (each a list of element ids in range). It returns the indices of the
// chosen sets in selection order, and ok = false if the union of all sets
// does not cover the universe (in which case the partial cover chosen so
// far is returned).
//
// The implementation is the standard lazy-greedy: a max-heap of stale gains,
// re-scoring a set only when it surfaces. Total time O(sum of set sizes *
// log(#sets)).
func Greedy(universe int, sets [][]int) (chosen []int, ok bool) {
	chosen, ok, _ = GreedyCtx(nil, universe, sets)
	return chosen, ok
}

// GreedyCtx is Greedy with cooperative cancellation: the selection loop
// checks ctx between rounds and returns ctx.Err() with the partial cover
// chosen so far. A nil ctx disables the checks. The sets may be windows of
// one backing array (ASMS hands over a flat arena); Greedy neither keeps
// nor writes them.
func GreedyCtx(ctx context.Context, universe int, sets [][]int) (chosen []int, ok bool, err error) {
	if universe == 0 {
		return nil, true, nil
	}
	covered := make([]bool, universe)
	remaining := universe

	h := &coverHeap{}
	for i, s := range sets {
		if len(s) > 0 {
			h.gain = append(h.gain, len(s))
			h.id = append(h.id, i)
		}
	}
	heap.Init(h)

	fresh := func(i int) int {
		g := 0
		for _, e := range sets[i] {
			if !covered[e] {
				g++
			}
		}
		return g
	}

	const checkEvery = 64
	iter := 0
	for remaining > 0 && h.Len() > 0 {
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
		top := heap.Pop(h).([2]int)
		gain, id := top[0], top[1]
		g := fresh(id)
		if g == 0 {
			continue
		}
		if g < gain && h.Len() > 0 && h.gain[0] > g {
			// Stale: push back with the corrected gain and retry.
			heap.Push(h, [2]int{g, id})
			continue
		}
		// Select id.
		chosen = append(chosen, id)
		for _, e := range sets[id] {
			if !covered[e] {
				covered[e] = true
				remaining--
			}
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
