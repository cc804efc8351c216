// Package sweep provides the 2D plane-sweep machinery behind the paper's
// Section IV algorithm: dual lines are swept by a vertical line L moving
// from x = c0 to x = c1, stopping at line crossings, where tuple ranks
// change by exactly one.
//
// Two implementations are provided:
//
//   - BuildEvents enumerates only crossings involving candidate (skyline)
//     lines — the events that can affect the DP matrix — in O(s·n) time and
//     space, and orders them with a linear-time radix sort. RanksAt gives
//     the candidates' start ranks in O(s·n) without sorting all n lines.
//     Together they are what the production 2DRRM solver uses.
//   - NeighborSweep is the paper's literal Algorithm 1 event loop (sorted
//     list L plus a deduplicating min-heap H of neighbor intersections,
//     lines 4-13). It visits *every* crossing in x order and exists to
//     cross-validate BuildEvents and for tests that follow the paper
//     step by step.
package sweep

import (
	"cmp"
	"container/heap"
	"math"
	"slices"
	"sort"

	"github.com/rankregret/rankregret/internal/geom"
)

// Event is a crossing of two dual lines inside the sweep interval. Before
// the crossing Up is strictly above Down; after it they swap, so Up's rank
// increases by one and Down's rank decreases by one.
type Event struct {
	X        float64
	Up, Down int32
}

// lineAbove reports whether line i is above line j at x under the
// deterministic tie-break (equal value: larger slope first, because it will
// be above immediately after x; equal slope too: smaller index first).
func lineAbove(lines []geom.Line, i, j int, x float64) bool {
	vi, vj := lines[i].Eval(x), lines[j].Eval(x)
	if vi != vj {
		return vi > vj
	}
	if lines[i].Slope != lines[j].Slope {
		return lines[i].Slope > lines[j].Slope
	}
	return i < j
}

// InitialRanks returns rank[i] = 1 + number of lines above line i at x = c0
// (using the x -> c0+ tie-break), i.e. the paper's Rank(l_i) when the sweep
// starts.
func InitialRanks(lines []geom.Line, c0 float64) []int {
	n := len(lines)
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		return lineAbove(lines, order[a], order[b], c0)
	})
	rank := make([]int, n)
	for pos, id := range order {
		rank[id] = pos + 1
	}
	return rank
}

// RanksAt returns, for each line id in ids, its rank at x = c0 under the
// x -> c0+ tie-break: 1 + the number of lines above it in lineAbove's strict
// total order. That is exactly InitialRanks(lines, c0)[id], in O(len(ids)·n)
// work and without sorting all n lines.
func RanksAt(lines []geom.Line, ids []int, c0 float64) []int {
	ranks := make([]int, len(ids))
	for p, i := range ids {
		vi, si := lines[i].Eval(c0), lines[i].Slope
		rank := 1
		for j, l := range lines {
			if vj := l.Eval(c0); vj > vi || vj == vi && (l.Slope > si || l.Slope == si && j < i) {
				rank++
			}
		}
		ranks[p] = rank
	}
	return ranks
}

// BuildEvents returns every crossing between a candidate line and any other
// line with x in (c0, c1], ordered by (X, Up, Down) ascending. A crossing
// between two candidates appears exactly once. Crossings between two
// non-candidate lines are omitted: they cannot change any candidate's rank,
// which is the refinement that turns the paper's O(n^2) sweep into O(s·n)
// without changing the DP outcome.
func BuildEvents(lines []geom.Line, isCand []bool, c0, c1 float64) []Event {
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
		a0, a1 := lines[i].Eval(c0), lines[i].Eval(c1)
		for j := 0; j < n; j++ {
			if j == i || isCand[j] && j < i {
				continue
			}
			d0, d1 := a0-lines[j].Eval(c0), a1-lines[j].Eval(c1)
			if d0 != 0 && (d1 == 0 || d0 > 0 != (d1 > 0)) {
				m++
			}
		}
	}
	events := make([]Event, 0, m)
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
			x, ok := geom.IntersectX(lines[i], lines[j])
			// Written so a NaN crossing fails the window test.
			if !ok || !(x > c0 && x <= c1) {
				continue
			}
			var e Event
			if lines[i].Slope < lines[j].Slope {
				e = Event{X: x, Up: int32(i), Down: int32(j)}
			} else {
				e = Event{X: x, Up: int32(j), Down: int32(i)}
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

// sortEvents orders NaN-free events by (X, Up, Down): a stable LSD radix
// sort on floatKey(X), one byte per pass, skipping bytes that every key
// shares, then each run of equal X (±0 included) sorted by (Up, Down).
// Because (X, Up, Down) is a strict total order on distinct pairs, the
// result is the one any correct comparison sort gives.
func sortEvents(events []Event) {
	n := len(events)
	if n < 2 {
		return
	}
	var counts [8][256]int
	for _, e := range events {
		k := floatKey(e.X)
		for d := range counts {
			counts[d][byte(k>>(8*d))]++
		}
	}
	first := floatKey(events[0].X)
	src, dst := events, make([]Event, n)
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
			b := byte(floatKey(e.X) >> shift)
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
		for j < n && events[j].X == events[i].X {
			j++
		}
		if j-i > 1 {
			slices.SortFunc(events[i:j], comparePairs)
		}
		i = j
	}
}

// comparePairs orders two events at the same X by (Up, Down).
func comparePairs(a, b Event) int {
	return cmp.Or(cmp.Compare(a.Up, b.Up), cmp.Compare(a.Down, b.Down))
}

// pairKey encodes an unordered line pair for the heap's deduplication set.
func pairKey(i, j int32) int64 {
	if i > j {
		i, j = j, i
	}
	return int64(i)<<32 | int64(j)
}

// eventHeap is the paper's min-heap H of discovered intersections ordered by
// x-coordinate.
type eventHeap []Event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(a, b int) bool {
	if h[a].X != h[b].X {
		return h[a].X < h[b].X
	}
	if h[a].Up != h[b].Up {
		return h[a].Up < h[b].Up
	}
	return h[a].Down < h[b].Down
}
func (h eventHeap) Swap(a, b int) { h[a], h[b] = h[b], h[a] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(Event)) }
func (h *eventHeap) Pop() any     { o := *h; n := len(o) - 1; e := o[n]; *h = o[:n]; return e }

// NeighborSweep runs the paper's Algorithm 1 sweep structure: the sorted
// list L of lines ordered by their intersection with the sweep line, and the
// min-heap H of unprocessed neighbor intersections (with a duplicate-
// insertion guard, as the paper implements H "by a binary search tree").
// visit is called for every crossing in x order with (x, up, down) where up
// was above down just before the crossing. It visits all O(n^2) crossings
// in (c0, c1]; use it for validation, not production.
func NeighborSweep(lines []geom.Line, c0, c1 float64, visit func(x float64, up, down int)) {
	n := len(lines)
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		return lineAbove(lines, order[a], order[b], c0)
	})
	pos := make([]int, n) // pos[line] = index in order
	for p, id := range order {
		pos[id] = p
	}

	h := &eventHeap{}
	seen := make(map[int64]bool)
	tryPush := func(i, j int) {
		// i directly above j in L; they cross later iff slope(i) < slope(j).
		x, ok := geom.IntersectX(lines[i], lines[j])
		if !ok || !(x > c0 && x <= c1) {
			return
		}
		if lines[i].Slope >= lines[j].Slope {
			return // already crossed or never will in this direction
		}
		k := pairKey(int32(i), int32(j))
		if seen[k] {
			return
		}
		seen[k] = true
		heap.Push(h, Event{X: x, Up: int32(i), Down: int32(j)})
	}
	for p := 0; p+1 < n; p++ {
		tryPush(order[p], order[p+1])
	}
	for h.Len() > 0 {
		e := heap.Pop(h).(Event)
		up, down := int(e.Up), int(e.Down)
		// Guard against stale events (lines no longer adjacent in the
		// intended orientation). With the dedup set and adjacency-only
		// insertion they should be exact, but concurrent crossings can
		// reorder; re-check adjacency.
		if pos[up]+1 != pos[down] {
			// Re-discovered later when they become adjacent again; allow
			// re-push by clearing the seen mark.
			delete(seen, pairKey(e.Up, e.Down))
			continue
		}
		visit(e.X, up, down)
		// Swap in L.
		pu, pd := pos[up], pos[down]
		order[pu], order[pd] = down, up
		pos[up], pos[down] = pd, pu
		// New neighbor pairs.
		if pu > 0 {
			tryPush(order[pu-1], order[pu])
		}
		if pd+1 < n {
			tryPush(order[pd], order[pd+1])
		}
	}
}
