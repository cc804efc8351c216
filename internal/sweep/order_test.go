package sweep

import (
	"math"
	"slices"
	"sort"
	"testing"

	"github.com/rankregret/rankregret/internal/dataset"
	"github.com/rankregret/rankregret/internal/geom"
	"github.com/rankregret/rankregret/internal/skyline"
	"github.com/rankregret/rankregret/internal/xrand"
)

// gridLines is tie-heavy: n random points on a (steps+1)^2 grid, so many
// lines are duplicates and many crossings share one x.
func gridLines(seed int64, n int, steps float64) []geom.Line {
	rng := xrand.New(seed)
	lines := make([]geom.Line, n)
	for i := range lines {
		lines[i] = geom.DualLine(math.Round(rng.Float64()*steps)/steps, math.Round(rng.Float64()*steps)/steps)
	}
	return lines
}

// comparisonSorted is the reference event list: every candidate crossing in
// (c0, c1], ordered by a comparison sort on (X, Up, Down).
func comparisonSorted(lines []geom.Line, isCand []bool, c0, c1 float64) []Event {
	var events []Event
	for i := range lines {
		for j := i + 1; j < len(lines); j++ {
			if !isCand[i] && !isCand[j] {
				continue
			}
			x, ok := geom.IntersectX(lines[i], lines[j])
			if !ok || x <= c0 || x > c1 {
				continue
			}
			if lines[i].Slope < lines[j].Slope {
				events = append(events, Event{X: x, Up: int32(i), Down: int32(j)})
			} else {
				events = append(events, Event{X: x, Up: int32(j), Down: int32(i)})
			}
		}
	}
	sort.Slice(events, func(a, b int) bool {
		if events[a].X != events[b].X {
			return events[a].X < events[b].X
		}
		if events[a].Up != events[b].Up {
			return events[a].Up < events[b].Up
		}
		return events[a].Down < events[b].Down
	})
	return events
}

func longestRun(events []Event) int {
	longest := 0
	for i := 0; i < len(events); {
		j := i + 1
		for j < len(events) && events[j].X == events[i].X {
			j++
		}
		longest = max(longest, j-i)
		i = j
	}
	return longest
}

// BuildEvents must produce exactly the comparison-sorted (X, Up, Down)
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
				got := BuildEvents(lines, isCand, w[0], w[1])
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
		events := make([]Event, n)
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
			events[i] = Event{X: x, Up: int32(i % 97), Down: int32(i)}
		}
		rng.Shuffle(n, func(a, b int) { events[a], events[b] = events[b], events[a] })
		want := slices.Clone(events)
		sort.Slice(want, func(a, b int) bool {
			if want[a].X != want[b].X {
				return want[a].X < want[b].X
			}
			if want[a].Up != want[b].Up {
				return want[a].Up < want[b].Up
			}
			return want[a].Down < want[b].Down
		})
		sortEvents(events)
		for i := range events {
			// Compare bits: -0 and +0 events must keep their own X.
			if math.Float64bits(events[i].X) != math.Float64bits(want[i].X) || events[i].Up != want[i].Up || events[i].Down != want[i].Down {
				t.Fatalf("n=%d: position %d is %+v, want %+v", n, i, events[i], want[i])
			}
		}
	}
	// One distinct key: every byte is constant and no pass runs.
	same := []Event{{X: 0.5, Up: 3, Down: 9}, {X: 0.5, Up: 1, Down: 7}, {X: 0.5, Up: 1, Down: 2}}
	sortEvents(same)
	if want := []Event{{0.5, 1, 2}, {0.5, 1, 7}, {0.5, 3, 9}}; !slices.Equal(same, want) {
		t.Fatalf("constant keys sorted to %v, want %v", same, want)
	}
}

// A NaN crossing (from a NaN coefficient) never enters the event list.
func TestBuildEventsDropsNaNCrossings(t *testing.T) {
	lines := []geom.Line{{Slope: 1, Intercept: 0}, {Slope: -1, Intercept: math.NaN()}, {Slope: -1, Intercept: 1}}
	events := BuildEvents(lines, []bool{true, true, true}, 0, 1)
	if want := []Event{{X: 0.5, Up: 2, Down: 0}}; !slices.Equal(events, want) {
		t.Fatalf("events %v, want %v", events, want)
	}
}

// RanksAt equals InitialRanks for every requested line, at several c0,
// on tie-heavy and on continuous data.
func TestRanksAtMatchesInitialRanks(t *testing.T) {
	for _, lines := range [][]geom.Line{gridLines(5, 150, 4), dualLines(dataset.Anticorrelated(xrand.New(6), 150, 2))} {
		ids := []int{0, 3, 3, 17, 42, 99, 149}
		all := make([]int, len(lines))
		for i := range all {
			all[i] = i
		}
		for _, c0 := range []float64{0, 0.25, 0.5, 0.75, 1, -0.5} {
			full := InitialRanks(lines, c0)
			for _, set := range [][]int{ids, all} {
				got := RanksAt(lines, set, c0)
				for p, id := range set {
					if got[p] != full[id] {
						t.Fatalf("c0=%v line %d: RanksAt %d, InitialRanks %d", c0, id, got[p], full[id])
					}
				}
			}
		}
	}
}

// BenchmarkBuildEvents measures the candidate crossing enumeration and its
// ordering at the SimIsland 10k workload shape (skyline candidates).
func BenchmarkBuildEvents(b *testing.B) {
	ds := dataset.SimIsland(xrand.New(1), 10000)
	lines := dualLines(ds)
	isCand := make([]bool, len(lines))
	for _, c := range skyline.Compute(ds) {
		isCand[c] = true
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		BuildEvents(lines, isCand, 0, 1)
	}
}
