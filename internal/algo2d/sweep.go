package algo2d

import (
	"cmp"
	"container/heap"
	"math"
	"slices"
	"sort"

	"github.com/rankregret/rankregret/internal/dataset"
)

// line is the dual of a 2D tuple t = (t1, t2): its utility under the
// normalized weight vector u = (x, 1-x), as a function of x,
//
//	y(x) = t1*x + t2*(1-x) = (t1-t2)*x + t2.
//
// Tuple t ranks above tuple t' for the weight (x, 1-x) exactly when the
// line of t is above the line of t' at x.
type line struct {
	slope     float64 // t1 - t2
	intercept float64 // t2
}

// dualLine maps the 2D tuple (t1, t2) to its dual line.
func dualLine(t1, t2 float64) line {
	return line{slope: t1 - t2, intercept: t2}
}

// eval returns the line's y value at x.
func (l line) eval(x float64) float64 {
	return l.slope*x + l.intercept
}

// intersectX returns the x coordinate at which lines a and b cross, and
// whether they cross at a single point (parallel lines do not).
func intersectX(a, b line) (x float64, ok bool) {
	ds := a.slope - b.slope
	if ds == 0 {
		return 0, false
	}
	return (b.intercept - a.intercept) / ds, true
}

// dualLines converts every tuple of a 2D dataset to its dual line; callers
// check the dimension.
func dualLines(ds *dataset.Dataset) []line {
	lines := make([]line, ds.N())
	for i := range lines {
		lines[i] = dualLine(ds.Value(i, 0), ds.Value(i, 1))
	}
	return lines
}

// event is a crossing of two dual lines inside the sweep interval. Before
// the crossing up is strictly above down; after it they swap, so up's rank
// increases by one and down's rank decreases by one.
type event struct {
	x        float64
	up, down int32
}

// lineAbove reports whether line i is above line j at x under the
// deterministic tie-break (equal value: larger slope first, because it will
// be above immediately after x; equal slope too: smaller index first). It is
// the one order in which the sweep ranks lines.
func lineAbove(lines []line, i, j int, x float64) bool {
	vi, vj := lines[i].eval(x), lines[j].eval(x)
	if vi != vj {
		return vi > vj
	}
	if lines[i].slope != lines[j].slope {
		return lines[i].slope > lines[j].slope
	}
	return i < j
}

// initialOrder returns the paper's sorted list L at the start of a sweep
// from c0: every line id, best first, in lineAbove's order at c0 (the
// x -> c0+ tie-break).
func initialOrder(lines []line, c0 float64) []int {
	order := make([]int, len(lines))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		return lineAbove(lines, order[a], order[b], c0)
	})
	return order
}

// initialRanks returns rank[i] = 1 + the number of lines above line i at
// c0, the paper's Rank(l_i) when the sweep starts: the inverse of
// initialOrder.
func initialRanks(lines []line, c0 float64) []int {
	rank := make([]int, len(lines))
	for pos, id := range initialOrder(lines, c0) {
		rank[id] = pos + 1
	}
	return rank
}

// ranksAt returns, for each line id in ids, its rank at x = c0: 1 + the
// number of lines above it in lineAbove's order, written inline. That is
// initialRanks(lines, c0)[id], in O(len(ids)·n) work and without sorting
// all n lines.
func ranksAt(lines []line, ids []int, c0 float64) []int {
	ranks := make([]int, len(ids))
	for p, i := range ids {
		vi, si := lines[i].eval(c0), lines[i].slope
		rank := 1
		for j, l := range lines {
			if vj := l.eval(c0); vj > vi || vj == vi && (l.slope > si || l.slope == si && j < i) {
				rank++
			}
		}
		ranks[p] = rank
	}
	return ranks
}

// buildEvents returns every crossing between a candidate line and any other
// line with x in (c0, c1], ordered by (x, up, down) ascending. A crossing
// between two candidates appears exactly once. Crossings between two
// non-candidate lines are omitted: they cannot change any candidate's rank,
// which is the refinement that turns the paper's O(n^2) sweep into O(s·n)
// without changing the DP outcome.
func buildEvents(lines []line, isCand []bool, c0, c1 float64) []event {
	n := len(lines)
	// Size the list by counting the pairs whose order differs at c0 and c1:
	// the in-window crossings, up to rounding at the window's ends (append
	// absorbs a miss). The s·n pair bound would allocate several times
	// that, and the allocation rate paces the garbage collector.
	m := 0
	for i := 0; i < n; i++ {
		if !isCand[i] {
			continue
		}
		a0, a1 := lines[i].eval(c0), lines[i].eval(c1)
		for j := 0; j < n; j++ {
			if j == i || isCand[j] && j < i {
				continue
			}
			d0, d1 := a0-lines[j].eval(c0), a1-lines[j].eval(c1)
			if d0 != 0 && (d1 == 0 || d0 > 0 != (d1 > 0)) {
				m++
			}
		}
	}
	events := make([]event, 0, m)
	for i := 0; i < n; i++ {
		if !isCand[i] {
			continue
		}
		for j := 0; j < n; j++ {
			if j == i {
				continue
			}
			if isCand[j] && j < i {
				continue // pair already handled from j's side
			}
			x, ok := intersectX(lines[i], lines[j])
			// Written so a NaN crossing fails the window test.
			if !ok || !(x > c0 && x <= c1) {
				continue
			}
			var e event
			if lines[i].slope < lines[j].slope {
				e = event{x: x, up: int32(i), down: int32(j)}
			} else {
				e = event{x: x, up: int32(j), down: int32(i)}
			}
			events = append(events, e)
		}
	}
	sortEvents(events)
	return events
}

// floatKey maps x to a uint64 whose unsigned order is x's numeric order
// (-0 just below +0): flip every bit of a negative, the sign bit of the rest.
func floatKey(x float64) uint64 {
	b := math.Float64bits(x)
	return b ^ (-(b >> 63) | 1<<63)
}

// sortEvents orders NaN-free events by (x, up, down): a stable LSD radix
// sort on floatKey(x), one byte per pass, skipping bytes that every key
// shares, then each run of equal x (±0 included) sorted by (up, down).
// Because (x, up, down) is a strict total order on distinct pairs, the
// result is the one any correct comparison sort gives.
func sortEvents(events []event) {
	n := len(events)
	if n < 2 {
		return
	}
	var counts [8][256]int
	for _, e := range events {
		k := floatKey(e.x)
		for d := range counts {
			counts[d][byte(k>>(8*d))]++
		}
	}
	first := floatKey(events[0].x)
	src, dst := events, make([]event, n)
	for d := range counts {
		shift := 8 * d
		c := &counts[d]
		if c[byte(first>>shift)] == n {
			continue
		}
		sum := 0
		for b, cnt := range c {
			c[b] = sum
			sum += cnt
		}
		for _, e := range src {
			b := byte(floatKey(e.x) >> shift)
			dst[c[b]] = e
			c[b]++
		}
		src, dst = dst, src
	}
	if &src[0] != &events[0] {
		copy(events, src) // an odd number of passes ended in the scratch buffer
	}

	for i := 0; i < n; {
		j := i + 1
		for j < n && events[j].x == events[i].x {
			j++
		}
		if j-i > 1 {
			slices.SortFunc(events[i:j], comparePairs)
		}
		i = j
	}
}

// comparePairs orders two events at the same x by (up, down).
func comparePairs(a, b event) int {
	return cmp.Or(cmp.Compare(a.up, b.up), cmp.Compare(a.down, b.down))
}

// pairKey encodes an unordered line pair for the heap's deduplication set.
func pairKey(i, j int32) int64 {
	if i > j {
		i, j = j, i
	}
	return int64(i)<<32 | int64(j)
}

// eventHeap is the paper's min-heap H of discovered intersections, ordered
// by (x, up, down).
type eventHeap []event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(a, b int) bool {
	if h[a].x != h[b].x {
		return h[a].x < h[b].x
	}
	if h[a].up != h[b].up {
		return h[a].up < h[b].up
	}
	return h[a].down < h[b].down
}
func (h eventHeap) Swap(a, b int) { h[a], h[b] = h[b], h[a] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(event)) }
func (h *eventHeap) Pop() any     { o := *h; n := len(o) - 1; e := o[n]; *h = o[:n]; return e }

// neighborSweep runs the paper's Algorithm 1 sweep structure over (c0, c1]:
// the sorted list L of lines ordered by their intersection with the sweep
// line, and the min-heap H of unprocessed neighbor intersections (with a
// duplicate-insertion guard, as the paper implements H "by a binary search
// tree"). order is L: it must be initialOrder(lines, c0), and the sweep
// swaps it in place. visit is called after every swap, in x order, with the
// crossing e (e.up was directly above e.down just before it) and the
// position p that e.up held, so that order[p] = e.down and order[p+1] = e.up
// when visit reads it. It visits all O(n^2) crossings.
func neighborSweep(lines []line, order []int, c0, c1 float64, visit func(e event, p int)) {
	n := len(lines)
	pos := make([]int, n) // pos[line] = index in order
	for p, id := range order {
		pos[id] = p
	}

	h := &eventHeap{}
	seen := make(map[int64]bool)
	tryPush := func(i, j int) {
		// i directly above j in L; they cross later iff slope(i) < slope(j).
		x, ok := intersectX(lines[i], lines[j])
		if !ok || !(x > c0 && x <= c1) {
			return
		}
		if lines[i].slope >= lines[j].slope {
			return // already crossed or never will in this direction
		}
		k := pairKey(int32(i), int32(j))
		if seen[k] {
			return
		}
		seen[k] = true
		heap.Push(h, event{x: x, up: int32(i), down: int32(j)})
	}
	for p := 0; p+1 < n; p++ {
		tryPush(order[p], order[p+1])
	}
	for h.Len() > 0 {
		e := heap.Pop(h).(event)
		up, down := int(e.up), int(e.down)
		// Guard against stale events (lines no longer adjacent in the
		// intended orientation). With the dedup set and adjacency-only
		// insertion they should be exact, but concurrent crossings can
		// reorder; re-check adjacency.
		if pos[up]+1 != pos[down] {
			// Re-discovered later when they become adjacent again; allow
			// re-push by clearing the seen mark.
			delete(seen, pairKey(e.up, e.down))
			continue
		}
		// Swap in L.
		pu, pd := pos[up], pos[down]
		order[pu], order[pd] = down, up
		pos[up], pos[down] = pd, pu
		visit(e, pu)
		// New neighbor pairs.
		if pu > 0 {
			tryPush(order[pu-1], order[pu])
		}
		if pd+1 < n {
			tryPush(order[pd], order[pd+1])
		}
	}
}
