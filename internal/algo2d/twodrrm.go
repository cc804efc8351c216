// Package algo2d implements the paper's two-dimensional algorithms:
//
//   - TwoDRRM (Algorithm 1): the exact dynamic-programming solver for RRM in
//     2D, sweeping the dual line arrangement and maintaining, per candidate
//     (skyline) line and chain-length budget, the best convex chain seen so
//     far. Extended to RRRM by restricting the sweep to the rendered segment
//     [c0, c1] and to the U-skyline candidates, and to exact RRR by reading
//     the full DP row.
//   - TwoDRRR: the earlier approximation baseline of Asudeh et al. (size at
//     most r_k with rank-regret at most 2k), adapted to RRM by the improved
//     doubling binary search of Section V.B.2.
//
// Tuple ranks are always counted against the full dataset; only the chain's
// vertices are restricted to candidates (Theorem 3 justifies this).
package algo2d

import (
	"context"
	"fmt"
	"math"

	"github.com/rankregret/rankregret/internal/ctxutil"
	"github.com/rankregret/rankregret/internal/dataset"
	"github.com/rankregret/rankregret/internal/funcspace"
	"github.com/rankregret/rankregret/internal/geom"
	"github.com/rankregret/rankregret/internal/skyline"
	"github.com/rankregret/rankregret/internal/sweep"
)

// Result is the output of a 2D solve.
type Result struct {
	// IDs are the chosen tuple indices, ascending.
	IDs []int
	// RankRegret is the exact maximum rank of the chosen set over the solved
	// segment of utility functions.
	RankRegret int
}

// chainNode is a persistent cons-list cell so DP chain extension is O(1).
type chainNode struct {
	line int // index into the dataset / line array
	prev *chainNode
}

func (c *chainNode) collect() []int {
	var out []int
	for n := c; n != nil; n = n.prev {
		out = append(out, n.line)
	}
	// Reverse into sweep order (ascending slope).
	for i, j := 0, len(out)-1; i < j; i, j = i+1, j-1 {
		out[i], out[j] = out[j], out[i]
	}
	return out
}

// cell is one DP matrix entry: the best convex chain ending at this
// candidate with at most h segments, and its maximum rank over the swept
// prefix.
type cell struct {
	rank  int
	chain *chainNode
}

// Lines converts every tuple to its dual line.
func Lines(ds *dataset.Dataset) []geom.Line {
	if ds.Dim() != 2 {
		panic(fmt.Sprintf("algo2d: dataset dimension %d, need 2", ds.Dim()))
	}
	lines := make([]geom.Line, ds.N())
	for i := 0; i < ds.N(); i++ {
		lines[i] = geom.DualLine(ds.Value(i, 0), ds.Value(i, 1))
	}
	return lines
}

// sweepPlan is the budget-independent half of the 2DRRM dynamic program
// over one segment [c0, c1]: the candidates' start ranks and the ordered
// crossing events. Built once, it serves every budget r.
type sweepPlan struct {
	cand    []int
	isCand  []bool
	candPos []int // line index -> position in cand
	start   []int // start[p] = rank of cand[p] at c0
	events  []sweep.Event
}

// planDP prepares the DP sweep over [c0, c1] for the given candidate tuple
// ids. Tuple ranks count every line; only candidates' ranks are ever read.
func planDP(lines []geom.Line, cand []int, c0, c1 float64) *sweepPlan {
	pl := &sweepPlan{
		cand:    cand,
		isCand:  make([]bool, len(lines)),
		candPos: make([]int, len(lines)),
		start:   sweep.RanksAt(lines, cand, c0),
	}
	for p, c := range cand {
		pl.isCand[c] = true
		pl.candPos[c] = p
	}
	pl.events = sweep.BuildEvents(lines, pl.isCand, c0, c1)
	return pl
}

// run executes the dynamic program with chain budget r. It returns, for
// every budget h in 1..min(r, s), the best achievable maximum rank and the
// corresponding chain (bestRank[h], bestChain[h]; index 0 unused).
func (pl *sweepPlan) run(ctx context.Context, r int) (bestRank []int, bestChain []*chainNode, err error) {
	s := len(pl.cand)
	if r > s {
		r = s
	}
	isCand, candPos := pl.isCand, pl.candPos

	// M[p][h] for candidate position p, budget h in 1..r.
	m := make([][]cell, s)
	for p, c := range pl.cand {
		row := make([]cell, r+1)
		node := &chainNode{line: c}
		for h := 1; h <= r; h++ {
			row[h] = cell{rank: pl.start[p], chain: node}
		}
		m[p] = row
	}

	cur := append([]int(nil), pl.start...) // cur[p] = current rank of cand[p]
	for ei, e := range pl.events {
		if ei%8192 == 0 {
			if err := ctxutil.Cancelled(ctx); err != nil {
				return nil, nil, err
			}
		}
		up, down := int(e.Up), int(e.Down)
		if isCand[up] {
			p := candPos[up]
			cur[p]++
			newRank := cur[p]
			if isCand[down] {
				q := candPos[down]
				// Descending h: the extension at h reads m[p][h-1] before
				// its own max-update at h-1, i.e. the chain's max rank up to
				// just before this crossing, exactly as Theorem 4 requires.
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
		}
		if isCand[down] {
			cur[candPos[down]]--
		}
	}

	bestRank = make([]int, r+1)
	bestChain = make([]*chainNode, r+1)
	for h := 1; h <= r; h++ {
		bestRank[h] = math.MaxInt
		for p := 0; p < s; p++ {
			if m[p][h].rank < bestRank[h] {
				bestRank[h] = m[p][h].rank
				bestChain[h] = m[p][h].chain
			}
		}
	}
	return bestRank, bestChain, nil
}

// uniqueSorted deduplicates and sorts chain line ids into tuple ids.
func uniqueSorted(ids []int) []int {
	seen := map[int]bool{}
	out := make([]int, 0, len(ids))
	for _, id := range ids {
		if !seen[id] {
			seen[id] = true
			out = append(out, id)
		}
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// TwoDRRMCtx solves RRM exactly in 2D (Theorem 4): it returns a set of at
// most r tuples minimizing the maximum rank over all linear utility
// functions, along with that exact optimal rank-regret. It is
// TwoDRRMRestrictedCtx over the full space.
func TwoDRRMCtx(ctx context.Context, ds *dataset.Dataset, r int) (Result, error) {
	return TwoDRRMRestrictedCtx(ctx, ds, r, funcspace.NewFull(2))
}

// TwoDRRMRestrictedCtx solves RRRM exactly in 2D: the same dynamic program
// run over the rendered segment of the restricted space (Section IV.C), with
// U-skyline candidates. Every few thousand crossing events the sweep checks
// ctx and aborts with ctx.Err().
func TwoDRRMRestrictedCtx(ctx context.Context, ds *dataset.Dataset, r int, space funcspace.Space) (Result, error) {
	if ds.Dim() != 2 {
		return Result{}, fmt.Errorf("algo2d: dataset dimension %d, need 2", ds.Dim())
	}
	if r < 1 {
		return Result{}, fmt.Errorf("algo2d: output size %d, need >= 1", r)
	}
	if ds.N() == 0 {
		return Result{}, fmt.Errorf("algo2d: empty dataset")
	}
	c0, c1, err := funcspace.Render2D(space)
	if err != nil {
		return Result{}, err
	}
	cand, err := skyline.ComputeRestricted(ds, space)
	if err != nil {
		return Result{}, err
	}
	if len(cand) == 0 {
		return Result{}, fmt.Errorf("algo2d: no candidate tuples (empty U-skyline)")
	}
	bestRank, bestChain, err := planDP(Lines(ds), cand, c0, c1).run(ctx, r)
	if err != nil {
		return Result{}, err
	}
	h := r
	if h > len(bestRank)-1 {
		h = len(bestRank) - 1
	}
	chain := bestChain[h].collect()
	return Result{IDs: uniqueSorted(chain), RankRegret: bestRank[h]}, nil
}

// TwoDRRRExactCtx solves the dual RRR problem exactly: the minimum-size set
// with rank-regret at most k over the full space. It is
// TwoDRRRExactRestrictedCtx over the full space.
func TwoDRRRExactCtx(ctx context.Context, ds *dataset.Dataset, k int) (res Result, ok bool, err error) {
	return TwoDRRRExactRestrictedCtx(ctx, ds, k, funcspace.NewFull(2))
}
