package algo2d

import (
	"math"
	"slices"
	"sort"
	"testing"

	"github.com/rankregret/rankregret/internal/dataset"
	"github.com/rankregret/rankregret/internal/skyline"
	"github.com/rankregret/rankregret/internal/xrand"
)

// gridLines is tie-heavy: n random points on a (steps+1)^2 grid, so many
// lines are duplicates and many crossings share one x.
func gridLines(seed int64, n int, steps float64) []line {
	rng := xrand.New(seed)
	lines := make([]line, n)
	for i := range lines {
		lines[i] = dualLine(math.Round(rng.Float64()*steps)/steps, math.Round(rng.Float64()*steps)/steps)
	}
	return lines
}

// comparisonSorted is the reference event list: every candidate crossing in
// (c0, c1], ordered by a comparison sort on (x, up, down).
func comparisonSorted(lines []line, isCand []bool, c0, c1 float64) []event {
	var events []event
	for i := range lines {
		for j := i + 1; j < len(lines); j++ {
			if !isCand[i] && !isCand[j] {
				continue
			}
			x, ok := intersectX(lines[i], lines[j])
			if !ok || x <= c0 || x > c1 {
				continue
			}
			if lines[i].slope < lines[j].slope {
				events = append(events, event{x: x, up: int32(i), down: int32(j)})
			} else {
				events = append(events, event{x: x, up: int32(j), down: int32(i)})
			}
		}
	}
	sort.Slice(events, func(a, b int) bool {
		if events[a].x != events[b].x {
			return events[a].x < events[b].x
		}
		if events[a].up != events[b].up {
			return events[a].up < events[b].up
		}
		return events[a].down < events[b].down
	})
	return events
}

func longestRun(events []event) int {
	longest := 0
	for i := 0; i < len(events); {
		j := i + 1
		for j < len(events) && events[j].x == events[i].x {
			j++
		}
		longest = max(longest, j-i)
		i = j
	}
	return longest
}

// buildEvents must produce exactly the comparison-sorted (x, up, down)
// order, including long runs of concurrent crossings and windows that
// straddle x = 0.
func TestBuildEventsOrderMatchesComparisonSort(t *testing.T) {
	windows := [][2]float64{{0, 1}, {0.3, 0.7}, {-3, 3}, {-1, 0}}
	for _, steps := range []float64{4, 8} {
		lines := gridLines(int64(steps), 120, steps)
		for _, every := range []int{1, 5} {
			isCand := make([]bool, len(lines))
			for i := 0; i < len(lines); i += every {
				isCand[i] = true
			}
			for _, w := range windows {
				got := buildEvents(lines, isCand, w[0], w[1])
				want := comparisonSorted(lines, isCand, w[0], w[1])
				if !slices.Equal(got, want) {
					t.Fatalf("steps=%v every=%d window=%v: radix order differs from comparison order (%d vs %d events)",
						steps, every, w, len(got), len(want))
				}
				// Past 12 elements slices.SortFunc leaves insertion sort.
				if w == windows[0] && longestRun(got) <= 12 {
					t.Fatalf("steps=%v every=%d: longest concurrent run %d is too short to test",
						steps, every, longestRun(got))
				}
			}
		}
	}
}

// sortEvents on arbitrary keys — negatives, both zeros, repeats, an odd and
// an even number of non-constant bytes — matches a comparison sort.
func TestSortEventsMatchesComparisonSort(t *testing.T) {
	rng := xrand.New(4)
	xs := []float64{math.Copysign(0, -1), 0, -1, 1, -0.5, 0.5, 1e-300, -1e-300, 3.75, -3.75, math.MaxFloat64, -math.MaxFloat64}
	for _, n := range []int{0, 1, 2, 13, 200, 3000} {
		events := make([]event, n)
		for i := range events {
			var x float64
			switch rng.Intn(3) {
			case 0:
				x = xs[rng.Intn(len(xs))]
			case 1:
				x = rng.NormFloat64()
			default:
				x = float64(rng.Intn(5)) / 4
			}
			events[i] = event{x: x, up: int32(i % 97), down: int32(i)}
		}
		rng.Shuffle(n, func(a, b int) { events[a], events[b] = events[b], events[a] })
		want := slices.Clone(events)
		sort.Slice(want, func(a, b int) bool {
			if want[a].x != want[b].x {
				return want[a].x < want[b].x
			}
			if want[a].up != want[b].up {
				return want[a].up < want[b].up
			}
			return want[a].down < want[b].down
		})
		sortEvents(events)
		for i := range events {
			// Compare bits: -0 and +0 events must keep their own x.
			if math.Float64bits(events[i].x) != math.Float64bits(want[i].x) || events[i].up != want[i].up || events[i].down != want[i].down {
				t.Fatalf("n=%d: position %d is %+v, want %+v", n, i, events[i], want[i])
			}
		}
	}
	// One distinct key: every byte is constant and no pass runs.
	same := []event{{x: 0.5, up: 3, down: 9}, {x: 0.5, up: 1, down: 7}, {x: 0.5, up: 1, down: 2}}
	sortEvents(same)
	if want := []event{{0.5, 1, 2}, {0.5, 1, 7}, {0.5, 3, 9}}; !slices.Equal(same, want) {
		t.Fatalf("constant keys sorted to %v, want %v", same, want)
	}
}

// A NaN crossing (from a NaN coefficient) never enters the event list.
func TestBuildEventsDropsNaNCrossings(t *testing.T) {
	lines := []line{{slope: 1, intercept: 0}, {slope: -1, intercept: math.NaN()}, {slope: -1, intercept: 1}}
	events := buildEvents(lines, []bool{true, true, true}, 0, 1)
	if want := []event{{x: 0.5, up: 2, down: 0}}; !slices.Equal(events, want) {
		t.Fatalf("events %v, want %v", events, want)
	}
}

// ranksAt equals initialRanks for every requested line, at several c0,
// on tie-heavy and on continuous data.
func TestRanksAtMatchesInitialRanks(t *testing.T) {
	for _, lines := range [][]line{gridLines(5, 150, 4), dualLines(dataset.Anticorrelated(xrand.New(6), 150, 2))} {
		ids := []int{0, 3, 3, 17, 42, 99, 149}
		all := make([]int, len(lines))
		for i := range all {
			all[i] = i
		}
		for _, c0 := range []float64{0, 0.25, 0.5, 0.75, 1, -0.5} {
			full := initialRanks(lines, c0)
			for _, set := range [][]int{ids, all} {
				got, _ := ranksAt(lines, set, c0, c0)
				for p, id := range set {
					if got[p] != full[id] {
						t.Fatalf("c0=%v line %d: ranksAt %d, initialRanks %d", c0, id, got[p], full[id])
					}
				}
			}
		}
	}
}

// BenchmarkBuildEvents measures the candidate crossing enumeration and its
// ordering at the SimIsland 10k workload shape, on the input NewPlanCtx
// gives it: the skyline candidates within their band.
func BenchmarkBuildEvents(b *testing.B) {
	ds := dataset.SimIsland(xrand.New(1), 10000)
	bd := sweepBand(dualLines(ds), skyline.Compute(ds), 0, 1)
	lines := bd.lines
	isCand := make([]bool, len(lines))
	for _, i := range bd.local {
		isCand[i] = true
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buildEvents(lines, isCand, 0, 1)
	}
}
