package algo2d

import (
	"cmp"
	"container/heap"
	"context"
	"math"
	"slices"
	"sort"

	"github.com/rankregret/rankregret/internal/ctxutil"
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
//
// The same pass returns bound, the least over ids of rank + the number of
// lines whose crossing with it overtakes it in (c0, c1]: the events with
// up = id that buildEvents would list, counted with the same intersectX. A
// sweep's event-counted rank of a line never exceeds its start rank plus
// those events, so bound caps every rank-regret a sweep tracking ids can
// report (see sweepBand).
func ranksAt(lines []line, ids []int, c0, c1 float64) (ranks []int, bound int) {
	ranks, terms := rankTerms(lines, ids, c0, c1, roundingMargin(marginScale(lines, c0, c1)))
	bound = math.MaxInt
	for _, t := range terms {
		bound = min(bound, t)
	}
	return ranks, bound
}

// rankTerms returns ranksAt's ranks and, per id, the term rank + overtakes
// whose least is ranksAt's bound, with the rounding margin given.
func rankTerms(lines []line, ids []int, c0, c1, margin float64) (ranks, terms []int) {
	ranks, terms = make([]int, len(ids)), make([]int, len(ids))
	for p, i := range ids {
		above, over := standing(lines[i], i, lines, 0, c0, c1, margin)
		ranks[p], terms[p] = 1+above, 1+above+over
	}
	return ranks, terms
}

// standing counts, among the lines others (ids off, off+1, ...), those
// above line li (id i) at c0 in lineAbove's order, and those that overtake
// it in (c0, c1]. Only a line that starts below li or within rounding of it
// at c0, and ends above it or within rounding at c1, can overtake it, so
// only those pay for the division (on finite lines).
func standing(li line, i int, others []line, off int, c0, c1, margin float64) (above, over int) {
	vi, si := li.eval(c0), li.slope
	below0, above1 := vi+margin, li.eval(c1)-margin
	for j, l := range others {
		// Branch-free counts: whether a line is above or near line i
		// follows the data, so a branch on it mispredicts.
		vj := l.eval(c0)
		up := vj > vi
		if vj == vi {
			up = l.slope > si || l.slope == si && off+j < i
		}
		above += b2i(up)
		if b2i(vj < below0)&b2i(l.eval(c1) >= above1) != 0 && l.slope > si {
			// Written so a NaN crossing fails the window test.
			if x, _ := intersectX(li, l); x > c0 && x <= c1 {
				over++
			}
		}
	}
	return above, over
}

// b2i is 1 for true and 0 for false; the compiler makes it a flag move, not
// a branch.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// marginScale is the largest |slope|·max(1, |c0|, |c1|) + |intercept| over
// lines: the magnitude of their values and crossings on [c0, c1]. It is
// +Inf when a line's terms overflow.
func marginScale(lines []line, c0, c1 float64) float64 {
	reach := max(1, math.Abs(c0), math.Abs(c1))
	scale := 0.0
	for _, l := range lines {
		if v := math.Abs(l.slope)*reach + math.Abs(l.intercept); v > scale {
			scale = v
		}
	}
	return scale
}

// roundingMargin bounds the rounding in evaluating lines of the given
// marginScale and in placing their crossings, with room to spare: 1e-9
// times the scale, plus 1e-9.
func roundingMargin(scale float64) float64 {
	return 1e-9 * (scale + 1)
}

// bandIDs returns, ascending, the ids of a superset of the lines that rank
// in the top m anywhere in [c0, c1], together with every id in must
// (ascending, distinct); nil means every line. It is an O(n) witness
// filter: the m lines with the largest smaller endpoint value lie at or
// above top, the least of those values, on all of [c0, c1], so a line
// whose larger endpoint value is below top ranks below all m of them
// everywhere. The line's test is against w = top - margin, with margin the
// lines' roundingMargin on [c0, c1], so it holds in the sweep's own
// floating-point arithmetic too. top is returned with the ids.
func bandIDs(lines []line, m int, must []int, c0, c1, margin float64) (ids []int, top float64) {
	n := len(lines)
	if m >= n || math.IsInf(margin, 1) {
		return nil, 0
	}
	lows := make([]float64, 0, m) // min-heap of the m largest smaller endpoints
	for _, l := range lines {
		v := min(l.eval(c0), l.eval(c1))
		switch {
		case len(lows) < m:
			lows = append(lows, v)
			siftUp(lows, len(lows)-1)
		case v > lows[0]:
			lows[0] = v
			siftDown(lows)
		}
	}
	top = lows[0]
	w := top - margin
	ids = make([]int, 0, m+len(must))
	for i, l := range lines {
		if len(must) > 0 && must[0] == i {
			must = must[1:]
			ids = append(ids, i)
		} else if max(l.eval(c0), l.eval(c1)) >= w {
			ids = append(ids, i)
		}
	}
	if len(ids) == n {
		return nil, 0
	}
	return ids, top
}

// siftUp and siftDown keep h a binary min-heap after h[i] was appended or
// h[0] replaced.
func siftUp(h []float64, i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if h[parent] <= h[i] {
			return
		}
		h[parent], h[i] = h[i], h[parent]
		i = parent
	}
}

func siftDown(h []float64) {
	for i := 0; ; {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if c+1 < len(h) && h[c+1] < h[c] {
			c++
		}
		if h[i] <= h[c] {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}

// band is a sweep restricted by sweepBand, with what a plan needs to
// extend it to appended lines (Plan.Appended).
type band struct {
	lines []line  // the band's lines, in ascending id order
	ids   []int   // their ids; nil = every line
	local []int   // band position of each tracked line
	start []int   // tracked lines' start ranks at c0, counted within the band
	terms []int   // rankTerms' terms over every line; the cap C is their least
	scale float64 // marginScale of every line
	top   float64 // bandIDs' witness level for the top C+1; 0 when ids is nil
}

// sweepBand restricts a sweep over (c0, c1] that tracks the lines ids to
// the lines that can shape its answer. Take the cap C = the bound ranksAt
// returns: the tracked line that attains it never ranks worse than C in the
// sweep, so every exact answer (a plan's RRM optimum or RRR hit,
// ExactRankRegret's maximum) is at most C, and a rank above C is dead. The
// band is bandIDs' top C+1 plus the tracked lines. A line above one that
// ranks at most C+1 ranks at most C, so it is in the band; a line below
// one outside the band is also below the C+1 band lines above that one. So
// a rank counted within the band equals the rank counted over every line
// whenever either is at most C+1. The band keeps the lines' order, so its
// events come out in the same (x, up, down) order and ties break as
// before. When C+1 reaches n the band is every line.
func sweepBand(lines []line, ids []int, c0, c1 float64) band {
	scale := marginScale(lines, c0, c1)
	margin := roundingMargin(scale)
	start, terms := rankTerms(lines, ids, c0, c1, margin)
	must := slices.Compact(slices.Sorted(slices.Values(ids)))
	keep, top := bandIDs(lines, slices.Min(terms)+1, must, c0, c1, margin)
	if keep == nil {
		return band{lines: lines, local: ids, start: start, terms: terms, scale: scale}
	}
	b := band{lines: gather(lines, keep), ids: keep, local: make([]int, len(ids)), terms: terms, scale: scale, top: top}
	for p, i := range ids {
		b.local[p], _ = slices.BinarySearch(keep, i)
	}
	b.start, _ = ranksAt(b.lines, b.local, c0, c1)
	return b
}

// gather returns lines[ids[0]], lines[ids[1]], ...
func gather(lines []line, ids []int) []line {
	out := make([]line, len(ids))
	for b, i := range ids {
		out[b] = lines[i]
	}
	return out
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
			if e, ok := crossing(lines[i], lines[j], i, j, c0, c1); ok {
				events = append(events, e)
			}
		}
	}
	sortEvents(events)
	return events
}

// crossing returns the event in which candidate line a (id i) and line b
// (id j) cross, and whether they cross in (c0, c1] at all.
func crossing(a, b line, i, j int, c0, c1 float64) (event, bool) {
	x, ok := intersectX(a, b)
	// Written so a NaN crossing fails the window test.
	if !ok || !(x > c0 && x <= c1) {
		return event{}, false
	}
	if a.slope < b.slope {
		return event{x: x, up: int32(i), down: int32(j)}, true
	}
	return event{x: x, up: int32(j), down: int32(i)}, true
}

// mergeEvents merges two event lists sorted by (x, up, down) with no pair
// in both into one sorted list: the order sortEvents gives their union.
func mergeEvents(a, b []event) []event {
	out := make([]event, 0, len(a)+len(b))
	for len(a) > 0 && len(b) > 0 {
		if eventLess(b[0], a[0]) {
			out, b = append(out, b[0]), b[1:]
		} else {
			out, a = append(out, a[0]), a[1:]
		}
	}
	return append(append(out, a...), b...)
}

// eventLess orders events by (x, up, down).
func eventLess(a, b event) bool {
	if a.x != b.x {
		return a.x < b.x
	}
	return comparePairs(a, b) < 0
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

func (h eventHeap) Len() int           { return len(h) }
func (h eventHeap) Less(a, b int) bool { return eventLess(h[a], h[b]) }
func (h eventHeap) Swap(a, b int)      { h[a], h[b] = h[b], h[a] }
func (h *eventHeap) Push(x any)        { *h = append(*h, x.(event)) }
func (h *eventHeap) Pop() any          { o := *h; n := len(o) - 1; e := o[n]; *h = o[:n]; return e }

// neighborSweep runs the paper's Algorithm 1 sweep structure over (c0, c1]:
// the sorted list L of lines ordered by their intersection with the sweep
// line, and the min-heap H of unprocessed neighbor intersections (with a
// duplicate-insertion guard, as the paper implements H "by a binary search
// tree"). order is L: it must be initialOrder(lines, c0), and the sweep
// swaps it in place. visit is called after every swap, in x order, with the
// crossing e (e.up was directly above e.down just before it) and the
// position p that e.up held, so that order[p] = e.down and order[p+1] = e.up
// when visit reads it. It visits all O(n^2) crossings of lines, checking
// ctx every few thousand heap pops and returning ctx.Err() if it is done.
func neighborSweep(ctx context.Context, lines []line, order []int, c0, c1 float64, visit func(e event, p int)) error {
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
	for pops := 0; h.Len() > 0; pops++ {
		if pops%4096 == 0 {
			if err := ctxutil.Cancelled(ctx); err != nil {
				return err
			}
		}
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
	return nil
}
