package algo2d

import (
	"fmt"
	"math"

	"github.com/rankregret/rankregret/internal/dataset"
	"github.com/rankregret/rankregret/internal/skyline"
)

// TwoDRRMAlgorithm1 is a literal transcription of the paper's Algorithm 1:
// the full neighbor sweep over every one of the O(n^2) line crossings, with
// the sorted list L and min-heap H maintained exactly as described (by
// neighborSweep, the same sweep KSets2D runs), and the DP matrix M updated
// at each crossing according to the three cases of Section IV.B.
//
// The production solver TwoDRRMCtx computes the identical matrix from the
// skyline-involving crossings only (crossings between two non-skyline lines
// are the paper's case 3, a no-op, and a non-skyline/skyline crossing where
// the skyline line is the upper one is case 2, also a no-op); this function
// exists to cross-validate that refinement, test against brute force, and
// serve as executable documentation of the paper's pseudocode.
func TwoDRRMAlgorithm1(ds *dataset.Dataset, r int) (Result, error) {
	if ds.Dim() != 2 {
		return Result{}, fmt.Errorf("algo2d: dataset dimension %d, need 2", ds.Dim())
	}
	if r < 1 {
		return Result{}, fmt.Errorf("algo2d: output size %d, need >= 1", r)
	}
	if ds.N() == 0 {
		return Result{}, fmt.Errorf("algo2d: empty dataset")
	}

	// Line 1-2: compute the skyline and the dual lines.
	cand := skyline.Compute(ds)
	lines := dualLines(ds)
	s := len(cand)
	if r > s {
		r = s
	}
	isCand := make([]bool, len(lines))
	candPos := make([]int, len(lines))
	for p, c := range cand {
		isCand[c] = true
		candPos[c] = p
	}

	// Line 7-8: initialize M[i][j] = {l_g(i)} with its rank at x = 0.
	ranks := initialRanks(lines, 0)
	m := make([][]cell, s)
	for p, c := range cand {
		row := make([]cell, r+1)
		node := &chainNode{line: c}
		for h := 1; h <= r; h++ {
			row[h] = cell{rank: ranks[c], chain: node}
		}
		m[p] = row
	}

	// Line 9-19: pop every crossing off H in x order. neighborSweep owns L
	// and H; this callback owns the rank bookkeeping and the M updates.
	cur := make([]int, len(lines))
	copy(cur, ranks)
	neighborSweep(lines, initialOrder(lines, 0), 0, 1, func(e event, _ int) {
		// After the crossing, `up` is below `down`.
		up, down := int(e.up), int(e.down)
		cur[up]++
		cur[down]--
		switch {
		case isCand[up]:
			// Case 1 (line 14-19): the skyline line `up` lost one rank.
			p := candPos[up]
			newRank := cur[up]
			if isCand[down] {
				q := candPos[down]
				for h := r; h >= 1; h-- {
					if m[p][h].rank < newRank {
						m[p][h].rank = newRank
					}
					if h >= 2 && m[q][h].rank > m[p][h-1].rank {
						m[q][h] = cell{
							rank:  m[p][h-1].rank,
							chain: &chainNode{line: down, prev: m[p][h-1].chain},
						}
					}
				}
			} else {
				for h := r; h >= 1; h-- {
					if m[p][h].rank < newRank {
						m[p][h].rank = newRank
					}
				}
			}
		case isCand[down]:
			// Case 2: only the rank of the skyline line `down` improved;
			// maximum ranks are unchanged, no update.
		default:
			// Case 3: two non-skyline lines, no update.
		}
	})

	// Line 20-21: the best chain with budget r.
	best := cell{rank: math.MaxInt}
	for p := 0; p < s; p++ {
		if m[p][r].rank < best.rank {
			best = m[p][r]
		}
	}
	return result(best.chain, best.rank), nil
}
