// Package algo2d implements the paper's two-dimensional algorithms:
//
//   - TwoDRRM (Algorithm 1): the exact dynamic-programming solver for RRM in
//     2D, sweeping the dual line arrangement and maintaining, per candidate
//     (skyline) line and chain-length budget, the best convex chain seen so
//     far. Extended to RRRM by restricting the sweep to the rendered segment
//     [c0, c1] and to the U-skyline candidates, and to exact RRR by reading
//     the full DP row. The sweep does not depend on the budget, so it is
//     built once into a Plan (NewPlanCtx) that serves every r (Plan.RRM)
//     and every k (Plan.RRR), and a plan is extended to appended rows by
//     Plan.Appended, reading only the new rows and the candidates.
//   - TwoDRRR: the earlier approximation baseline of Asudeh et al. (size at
//     most r_k with rank-regret at most 2k), adapted to RRM by the improved
//     doubling binary search of Section V.B.2.
//   - KSets2D: every distinct top-k set over the full space, the input of
//     the k-set baselines (TopKSets2D and mdrrr on 2D data).
//
// Tuple ranks are always counted against the full dataset; only the chain's
// vertices are restricted to candidates (Theorem 3 justifies this).
//
// The sweep itself (sweep.go) moves a vertical line from x = c0 to x = c1
// across the tuples' dual lines, stopping at line crossings, where tuple
// ranks change by exactly one. Lines are ranked in one strict order
// (lineAbove: larger value first, then larger slope, then smaller index).
// It comes in two forms:
//
//   - buildEvents enumerates only the crossings that involve a candidate
//     line, the events that can change a DP cell or a member's rank, and
//     orders them with a linear-time radix sort. Plans and ExactRankRegret
//     run it over a band of lines (sweepBand): ranksAt gives the candidates'
//     start ranks and a bound C on any answer's rank in one O(s·n) pass
//     without sorting all n lines, an O(n) witness filter keeps the lines
//     that can rank in the top C+1 anywhere in the segment, and ranks are
//     counted and events enumerated within that band B in O(s·|B|). B is
//     every line only when C+1 reaches n (anticorrelated data).
//   - neighborSweep is the paper's literal event loop: the sorted list L
//     plus a deduplicating min-heap H of neighbor intersections (Algorithm
//     1, lines 4-13). It visits every crossing in x order, swapping the
//     caller's L in place before each visit, so KSets2D reads each new
//     top-k set straight off L (over its own band, the lines that can rank
//     in the top k+1); the tests also use it to follow the paper step by
//     step.
package algo2d

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"

	"github.com/rankregret/rankregret/internal/ctxutil"
	"github.com/rankregret/rankregret/internal/dataset"
	"github.com/rankregret/rankregret/internal/funcspace"
	"github.com/rankregret/rankregret/internal/skyline"
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

// Plan is the budget-independent half of an exact 2D solve over one
// dataset and utility space: the U-skyline candidates, their ranks at the
// start of the rendered segment [c0, c1], and the sweep's crossing events
// folded into dynamic-program steps. Only the DP over chain budgets depends
// on r, so one Plan serves every RRM budget (RRM) and every RRR threshold
// (RRR). It also keeps what the sweep learned on the way, so that Appended
// can extend it to rows appended to the dataset. A Plan is never written
// after NewPlanCtx or Appended returns it, so concurrent solves may share
// it.
type Plan struct {
	cand  []int // candidate tuple ids, ascending
	start []int // start[p] = rank of cand[p] at c0
	steps []step

	n      int     // rows of the dataset the plan covers
	c0, c1 float64 // the rendered segment
	nband  int     // lines in the band; 0 = every line
	local  []int   // local[p] = band position of cand[p]
	terms  []int   // cand[p]'s rank + overtakes over every row; C = the least
	scale  float64 // marginScale of every row
	top    float64 // the band's witness level (see bandIDs)
	events []event // crossings of a candidate with a band line, in band positions
}

// step is one crossing in which candidate p drops a rank: rank is p's rank
// after it, and q is the candidate position of the line that overtakes p,
// or -1 for a non-candidate. A crossing in which only the rising line is a
// candidate changes no DP cell, so it has no step; the plan applies its
// rank change when it computes the steps' ranks.
type step struct{ p, q, rank int32 }

// NewPlanCtx builds the sweep plan of ds over the rendered segment of space
// (nil = the full space): the U-skyline candidates, their start ranks, and
// every crossing of a candidate line with a line of the band in sweep order.
// The band (sweepBand) holds the lines that can rank in the top C+1
// somewhere in the segment, where C bounds every RRM optimum and RRR hit;
// counted within it, every rank at most C+1 is the rank over all tuples,
// so each answer is the one a sweep over every line gives. Only
// candidates' ranks are ever read. It checks ctx before and after the
// event sweep.
func NewPlanCtx(ctx context.Context, ds *dataset.Dataset, space funcspace.Space) (*Plan, error) {
	if ds.Dim() != 2 {
		return nil, fmt.Errorf("algo2d: dataset dimension %d, need 2", ds.Dim())
	}
	if ds.N() == 0 {
		return nil, errors.New("algo2d: empty dataset")
	}
	if space == nil {
		space = funcspace.NewFull(2)
	}
	c0, c1, err := funcspace.Render2D(space)
	if err != nil {
		return nil, err
	}
	cand, err := skyline.ComputeRestricted(ds, space)
	if err != nil {
		return nil, err
	}
	if len(cand) == 0 {
		return nil, errors.New("algo2d: no candidate tuples (empty U-skyline)")
	}
	if err := ctxutil.Cancelled(ctx); err != nil {
		return nil, err
	}
	b := sweepBand(dualLines(ds), cand, c0, c1)
	isCand := make([]bool, len(b.lines))
	for _, i := range b.local {
		isCand[i] = true
	}
	events := buildEvents(b.lines, isCand, c0, c1)
	if err := ctxutil.Cancelled(ctx); err != nil {
		return nil, err
	}
	pl := &Plan{
		cand: cand, start: b.start, n: ds.N(), c0: c0, c1: c1,
		nband: len(b.ids), local: b.local, terms: b.terms, scale: b.scale, top: b.top, events: events,
	}
	pl.fold(len(b.lines))
	return pl, nil
}

// fold derives the plan's DP steps from its start ranks and events over a
// band of nband lines. NewPlanCtx and Appended both end with it, so their
// steps cannot differ.
func (pl *Plan) fold(nband int) {
	candPos := make([]int32, nband) // band line -> position in cand, -1 if none
	for i := range candPos {
		candPos[i] = -1
	}
	for p, i := range pl.local {
		candPos[i] = int32(p)
	}
	n := 0
	for _, e := range pl.events {
		if candPos[e.up] >= 0 {
			n++
		}
	}
	pl.steps = make([]step, 0, n)
	cur := slices.Clone(pl.start) // cur[p] = current rank of cand[p]
	for _, e := range pl.events {
		p, q := candPos[e.up], candPos[e.down]
		if p >= 0 {
			cur[p]++
			pl.steps = append(pl.steps, step{p: p, q: q, rank: int32(cur[p])})
		}
		if q >= 0 {
			cur[q]--
		}
	}
}

// run executes the dynamic program with chain budget r. It returns, for
// every budget h in 1..min(r, s), the best achievable maximum rank and the
// corresponding chain (bestRank[h], bestChain[h]; index 0 unused).
func (pl *Plan) run(ctx context.Context, r int) (bestRank []int, bestChain []*chainNode, err error) {
	s := len(pl.cand)
	r = min(r, s)

	// m[p][h] for candidate position p, budget h in 1..r.
	m := make([][]cell, s)
	for p, c := range pl.cand {
		row := make([]cell, r+1)
		node := &chainNode{line: c}
		for h := 1; h <= r; h++ {
			row[h] = cell{rank: pl.start[p], chain: node}
		}
		m[p] = row
	}

	for i, st := range pl.steps {
		if i%8192 == 0 {
			if err := ctxutil.Cancelled(ctx); err != nil {
				return nil, nil, err
			}
		}
		mp, rank := m[st.p], int(st.rank)
		if st.q < 0 {
			for h := r; h >= 1; h-- {
				if mp[h].rank < rank {
					mp[h].rank = rank
				}
			}
			continue
		}
		mq, down := m[st.q], pl.cand[st.q]
		// Descending h: the extension at h reads mp[h-1] before its own
		// max-update at h-1, i.e. the chain's max rank up to just before
		// this crossing, exactly as Theorem 4 requires.
		for h := r; h >= 1; h-- {
			if mp[h].rank < rank {
				mp[h].rank = rank
			}
			if h >= 2 && mq[h].rank > mp[h-1].rank {
				mq[h] = cell{
					rank:  mp[h-1].rank,
					chain: &chainNode{line: down, prev: mp[h-1].chain},
				}
			}
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

// result turns a DP chain into a Result: its tuple ids, sorted and
// deduplicated, and its rank.
func result(chain *chainNode, rank int) Result {
	ids := chain.collect()
	slices.Sort(ids)
	return Result{IDs: slices.Compact(ids), RankRegret: rank}
}

// RRM solves RRM exactly over the plan's segment (Theorem 4): a set of at
// most r tuples minimizing the maximum rank, with that optimal rank. The DP
// checks ctx every few thousand steps and aborts with ctx.Err().
func (pl *Plan) RRM(ctx context.Context, r int) (Result, error) {
	if r < 1 {
		return Result{}, fmt.Errorf("algo2d: output size %d, need >= 1", r)
	}
	bestRank, bestChain, err := pl.run(ctx, r)
	if err != nil {
		return Result{}, err
	}
	h := len(bestRank) - 1 // min(r, s)
	return result(bestChain[h], bestRank[h]), nil
}

// RRR solves the dual RRR problem exactly over the plan's segment: the
// minimum-size set whose rank-regret is at most k. It grows the chain budget
// geometrically and reads the DP row to find the smallest budget achieving
// rank <= k. ok is false when even the full U-skyline cannot achieve k (k <
// the dataset's intrinsic minimum). The DP checks ctx.
func (pl *Plan) RRR(ctx context.Context, k int) (res Result, ok bool, err error) {
	if k < 1 {
		return Result{}, false, fmt.Errorf("algo2d: rank threshold %d, need >= 1", k)
	}
	s := len(pl.cand)
	for r := 4; ; r *= 2 {
		r = min(r, s)
		bestRank, bestChain, err := pl.run(ctx, r)
		if err != nil {
			return Result{}, false, err
		}
		for h := 1; h < len(bestRank); h++ {
			if bestRank[h] <= k {
				return result(bestChain[h], bestRank[h]), true, nil
			}
		}
		if r == s {
			return Result{}, false, nil
		}
	}
}

// TwoDRRMCtx solves RRM exactly in 2D over the full space (Theorem 4): a
// set of at most r tuples minimizing the maximum rank over all linear
// utility functions, with that exact optimal rank-regret, on a plan built
// for this one solve. Every other exact 2D solve goes through NewPlanCtx;
// this one-shot form stays because the benchmark ladder (cmd/rrmladder)
// times it.
func TwoDRRMCtx(ctx context.Context, ds *dataset.Dataset, r int) (Result, error) {
	pl, err := NewPlanCtx(ctx, ds, nil)
	if err != nil {
		return Result{}, err
	}
	return pl.RRM(ctx, r)
}
