package algo2d

import (
	"context"
	"fmt"
	"math"
	"sort"

	"github.com/rankregret/rankregret/internal/ctxutil"
	"github.com/rankregret/rankregret/internal/dataset"
	"github.com/rankregret/rankregret/internal/ksearch"
)

// ExactRankRegret computes the exact maximum rank of the tuple set ids over
// the utility segment [c0, c1] by sweeping the crossings of the members'
// dual lines against the lines of their band (sweepBand): between crossings
// ranks are constant, so the maximum of (min over members' ranks) is
// attained at the segment start or immediately after a crossing, and it
// never exceeds the band's cap, up to which ranks within the band are the
// ranks over all tuples.
func ExactRankRegret(ds *dataset.Dataset, ids []int, c0, c1 float64) (int, error) {
	if ds.Dim() != 2 {
		return 0, fmt.Errorf("algo2d: dataset dimension %d, need 2", ds.Dim())
	}
	if len(ids) == 0 {
		return 0, fmt.Errorf("algo2d: empty set has no rank-regret")
	}
	lines := dualLines(ds)
	for _, id := range ids {
		if id < 0 || id >= len(lines) {
			return 0, fmt.Errorf("algo2d: tuple id %d out of range", id)
		}
	}
	b := sweepBand(lines, ids, c0, c1)
	lines, local := b.lines, b.local
	isMember := make([]bool, len(lines))
	cur := make([]int, len(lines)) // only members' entries are read
	for p, i := range local {
		isMember[i] = true
		cur[i] = b.start[p]
	}
	minRank := func() int {
		m := math.MaxInt
		for _, i := range local {
			if cur[i] < m {
				m = cur[i]
			}
		}
		return m
	}
	worst := minRank()
	events := buildEvents(lines, isMember, c0, c1)
	for _, e := range events {
		if isMember[e.up] {
			cur[e.up]++
		}
		if isMember[e.down] {
			cur[e.down]--
		}
		if m := minRank(); m > worst {
			worst = m
		}
	}
	return worst, nil
}

// TwoDRRRBaselineCtx is the approximation algorithm of Asudeh et al. for the
// RRR problem in 2D: given threshold k it returns a set of size at most r_k
// (the optimal size for threshold k) whose rank-regret is at most 2k.
// Greedy interval cover: from the current position pick, among the tuples
// ranked <= k there, the one that stays ranked <= 2k the furthest.
// It checks ctx in the greedy interval-cover loop.
func TwoDRRRBaselineCtx(ctx context.Context, ds *dataset.Dataset, k int) (Result, error) {
	if ds.Dim() != 2 {
		return Result{}, fmt.Errorf("algo2d: dataset dimension %d, need 2", ds.Dim())
	}
	if k < 1 {
		return Result{}, fmt.Errorf("algo2d: rank threshold %d, need >= 1", k)
	}
	lines := dualLines(ds)
	n := len(lines)
	if n == 0 {
		return Result{}, fmt.Errorf("algo2d: empty dataset")
	}

	// reach returns how far right of x0 tuple t keeps rank <= 2k, given its
	// rank at x0.
	reach := func(t int, x0 float64, rankAtX0 int) float64 {
		type ev struct {
			x  float64
			up bool // t goes below (rank increases)
		}
		var evs []ev
		for j := 0; j < n; j++ {
			if j == t {
				continue
			}
			x, ok := intersectX(lines[t], lines[j])
			if !ok || x <= x0 || x > 1 {
				continue
			}
			evs = append(evs, ev{x: x, up: lines[t].slope < lines[j].slope})
		}
		sort.Slice(evs, func(a, b int) bool { return evs[a].x < evs[b].x })
		r := rankAtX0
		for _, e := range evs {
			if e.up {
				r++
				if r > 2*k {
					return e.x
				}
			} else {
				r--
			}
		}
		return 1
	}

	var chosen []int
	picked := make(map[int]bool)
	x0 := 0.0
	for {
		if err := ctxutil.Cancelled(ctx); err != nil {
			return Result{}, err
		}
		ranks := initialRanks(lines, x0)
		bestT, bestReach := -1, -1.0
		for t := 0; t < n; t++ {
			if ranks[t] > k {
				continue
			}
			rr := 1.0
			if x0 < 1 {
				rr = reach(t, x0, ranks[t])
			}
			if rr > bestReach || (rr == bestReach && picked[t] && !picked[bestT]) {
				bestT, bestReach = t, rr
			}
		}
		if bestT < 0 {
			return Result{}, fmt.Errorf("algo2d: internal: no tuple ranked <= %d at x=%v", k, x0)
		}
		if !picked[bestT] {
			picked[bestT] = true
			chosen = append(chosen, bestT)
		}
		if bestReach >= 1 || bestReach <= x0 {
			break
		}
		x0 = bestReach
	}
	sort.Ints(chosen)
	rr, err := ExactRankRegret(ds, chosen, 0, 1)
	if err != nil {
		return Result{}, err
	}
	return Result{IDs: chosen, RankRegret: rr}, nil
}

// TwoDRRRBaselineForRRMCtx adapts the 2DRRR baseline to the RRM problem by the
// improved binary search of Section V.B.2: double k until the output fits
// in r tuples, then binary search (k/2, k]. The returned rank-regret is the
// exact regret of the chosen set (at most 2k by the baseline's guarantee).
// Cancellation is checked in every search probe.
func TwoDRRRBaselineForRRMCtx(ctx context.Context, ds *dataset.Dataset, r int) (Result, error) {
	if r < 1 {
		return Result{}, fmt.Errorf("algo2d: output size %d, need >= 1", r)
	}
	fit, _, err := ksearch.Smallest(ds.N(), func(k int) (Result, bool, error) {
		res, err := TwoDRRRBaselineCtx(ctx, ds, k)
		return res, len(res.IDs) <= r, err
	})
	return fit, err
}
