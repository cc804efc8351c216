package algo2d

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"github.com/rankregret/rankregret/internal/dataset"
	"github.com/rankregret/rankregret/internal/xrand"
)

func almostEq(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestDualLineBasics(t *testing.T) {
	// Tuple t3 = (0.57, 0.75) from the paper's Table I.
	l := dualLine(0.57, 0.75)
	if !almostEq(l.eval(0), 0.75, 1e-12) {
		t.Errorf("eval(0) = %v, want intercept 0.75", l.eval(0))
	}
	if !almostEq(l.eval(1), 0.57, 1e-12) {
		t.Errorf("eval(1) = %v, want t1 0.57", l.eval(1))
	}
	// Midpoint is the average utility under u=(0.5, 0.5).
	if !almostEq(l.eval(0.5), (0.57+0.75)/2, 1e-12) {
		t.Errorf("eval(0.5) = %v", l.eval(0.5))
	}
}

func TestDualOrderMatchesUtilityOrder(t *testing.T) {
	// For any weight u=(x, 1-x), tuple a outranks tuple b iff a's dual line
	// is above b's dual line at x.
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 500; trial++ {
		a1, a2 := rng.Float64(), rng.Float64()
		b1, b2 := rng.Float64(), rng.Float64()
		x := rng.Float64()
		ua := a1*x + a2*(1-x)
		ub := b1*x + b2*(1-x)
		la, lb := dualLine(a1, a2), dualLine(b1, b2)
		if (ua > ub) != (la.eval(x) > lb.eval(x)) {
			t.Fatalf("dual order mismatch: tuples (%v,%v) (%v,%v) at x=%v", a1, a2, b1, b2, x)
		}
	}
}

func TestIntersectX(t *testing.T) {
	a := line{slope: 1, intercept: 0}
	b := line{slope: -1, intercept: 1}
	x, ok := intersectX(a, b)
	if !ok || !almostEq(x, 0.5, 1e-12) {
		t.Errorf("intersectX = %v, %v; want 0.5, true", x, ok)
	}
	_, ok = intersectX(a, line{slope: 1, intercept: 5})
	if ok {
		t.Error("parallel lines reported as intersecting")
	}
	// At the crossing the two lines agree.
	if !almostEq(a.eval(x), b.eval(x), 1e-12) {
		t.Error("lines disagree at their own intersection")
	}
}

// bruteRank computes 1 + #lines above line i at x, with the package's
// tie-break.
func bruteRank(lines []line, i int, x float64) int {
	r := 1
	for j := range lines {
		if j != i && lineAbove(lines, j, i, x) {
			r++
		}
	}
	return r
}

func TestInitialRanks(t *testing.T) {
	// Table I at x=0: lines ordered by intercept (A2 value) descending:
	// t1(1), t2(.95), t3(.75), t4(.6), t5(.5), t6(.3), t7(0).
	ds := dataset.MustFromRows([][]float64{
		{0, 1}, {0.4, 0.95}, {0.57, 0.75}, {0.79, 0.6}, {0.2, 0.5}, {0.35, 0.3}, {1, 0},
	})
	lines := dualLines(ds)
	ranks := initialRanks(lines, 0)
	want := []int{1, 2, 3, 4, 5, 6, 7}
	for i := range want {
		if ranks[i] != want[i] {
			t.Errorf("rank[%d] = %d, want %d", i, ranks[i], want[i])
		}
	}
}

func TestInitialRanksMatchBrute(t *testing.T) {
	rng := xrand.New(1)
	ds := dataset.Independent(rng, 40, 2)
	lines := dualLines(ds)
	for _, c0 := range []float64{0, 0.25, 0.5, 0.9} {
		ranks := initialRanks(lines, c0)
		for i := range lines {
			if want := bruteRank(lines, i, c0); ranks[i] != want {
				t.Fatalf("c0=%v line %d: rank %d want %d", c0, i, ranks[i], want)
			}
		}
	}
}

func TestBuildEventsMatchesBrute(t *testing.T) {
	rng := xrand.New(2)
	ds := dataset.Independent(rng, 30, 2)
	lines := dualLines(ds)
	isCand := make([]bool, len(lines))
	for i := 0; i < len(lines); i += 3 {
		isCand[i] = true
	}
	events := buildEvents(lines, isCand, 0, 1)
	// Brute-force count of candidate-involving crossings in (0, 1].
	count := 0
	for i := range lines {
		for j := i + 1; j < len(lines); j++ {
			if !isCand[i] && !isCand[j] {
				continue
			}
			x, ok := intersectX(lines[i], lines[j])
			if ok && x > 0 && x <= 1 {
				count++
			}
		}
	}
	if len(events) != count {
		t.Fatalf("buildEvents found %d, brute force %d", len(events), count)
	}
	// Sorted by x, Up above Down just before crossing.
	for i, e := range events {
		if i > 0 && events[i-1].x > e.x {
			t.Fatal("events not sorted by x")
		}
		before := e.x - 1e-9
		if !lineAbove(lines, int(e.up), int(e.down), before) {
			t.Fatalf("event %d: Up %d not above Down %d just before x=%v", i, e.up, e.down, e.x)
		}
		if lines[e.up].slope >= lines[e.down].slope {
			t.Fatalf("event %d: Up must have the smaller slope", i)
		}
	}
}

func TestEventWalkReproducesRanks(t *testing.T) {
	// Walking the event list and applying +-1 must reproduce brute-force
	// ranks of candidate lines at any x.
	rng := xrand.New(3)
	ds := dataset.Anticorrelated(rng, 50, 2)
	lines := dualLines(ds)
	isCand := make([]bool, len(lines))
	cands := []int{0, 7, 13, 22, 31, 49}
	for _, c := range cands {
		isCand[c] = true
	}
	ranks := initialRanks(lines, 0)
	events := buildEvents(lines, isCand, 0, 1)
	checkpoints := []float64{0.1, 0.33, 0.5, 0.77, 1.0}
	ci := 0
	verify := func(x float64) {
		for _, c := range cands {
			if want := bruteRank(lines, c, x); ranks[c] != want {
				t.Fatalf("at x=%v line %d: walked rank %d, brute %d", x, c, ranks[c], want)
			}
		}
	}
	for _, e := range events {
		for ci < len(checkpoints) && checkpoints[ci] < e.x {
			verify(checkpoints[ci])
			ci++
		}
		if isCand[e.up] {
			ranks[e.up]++
		}
		if isCand[e.down] {
			ranks[e.down]--
		}
	}
	for ; ci < len(checkpoints); ci++ {
		verify(checkpoints[ci])
	}
}

func TestBuildEventsRestrictedWindow(t *testing.T) {
	rng := xrand.New(4)
	ds := dataset.Independent(rng, 20, 2)
	lines := dualLines(ds)
	isCand := make([]bool, len(lines))
	for i := range isCand {
		isCand[i] = true
	}
	all := buildEvents(lines, isCand, 0, 1)
	window := buildEvents(lines, isCand, 0.3, 0.7)
	for _, e := range window {
		if e.x <= 0.3 || e.x > 0.7 {
			t.Fatalf("event at x=%v outside (0.3, 0.7]", e.x)
		}
	}
	// Window events are exactly the subset of all events in range.
	wantCount := 0
	for _, e := range all {
		if e.x > 0.3 && e.x <= 0.7 {
			wantCount++
		}
	}
	if len(window) != wantCount {
		t.Errorf("window has %d events, want %d", len(window), wantCount)
	}
}

func TestNeighborSweepVisitsAllCrossings(t *testing.T) {
	rng := xrand.New(5)
	ds := dataset.Independent(rng, 25, 2)
	lines := dualLines(ds)
	var visited []event
	neighborSweep(t.Context(), lines, initialOrder(lines, 0), 0, 1, func(e event, _ int) {
		visited = append(visited, e)
	})
	// Compare with the full crossing set from buildEvents with all lines as
	// candidates.
	isCand := make([]bool, len(lines))
	for i := range isCand {
		isCand[i] = true
	}
	want := buildEvents(lines, isCand, 0, 1)
	if len(visited) != len(want) {
		t.Fatalf("neighbor sweep visited %d crossings, want %d", len(visited), len(want))
	}
	// x-ordered.
	for i := 1; i < len(visited); i++ {
		if visited[i-1].x > visited[i].x+1e-12 {
			t.Fatal("neighbor sweep events out of order")
		}
	}
	// Same multiset of pairs.
	key := func(e event) int64 { return pairKey(e.up, e.down) }
	a := make([]int64, len(visited))
	b := make([]int64, len(want))
	for i := range visited {
		a[i] = key(visited[i])
		b[i] = key(want[i])
	}
	sort.Slice(a, func(i, j int) bool { return a[i] < a[j] })
	sort.Slice(b, func(i, j int) bool { return b[i] < b[j] })
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("neighbor sweep visited a different crossing set")
		}
	}
}

func TestNeighborSweepRankEvolution(t *testing.T) {
	// The paper's invariant: after the sweep passes a crossing, the two
	// lines swap adjacent positions; walking ranks through neighborSweep
	// must agree with brute force at the end (x = 1).
	rng := xrand.New(6)
	ds := dataset.Correlated(rng, 30, 2)
	lines := dualLines(ds)
	ranks := initialRanks(lines, 0)
	neighborSweep(t.Context(), lines, initialOrder(lines, 0), 0, 1, func(e event, _ int) {
		ranks[e.up]++
		ranks[e.down]--
	})
	for i := range lines {
		if want := bruteRank(lines, i, 1); ranks[i] != want {
			t.Fatalf("line %d: final rank %d, brute %d", i, ranks[i], want)
		}
	}
}

func TestParallelLinesNoEvents(t *testing.T) {
	// Identical tuples give identical (parallel) lines: no crossings, no
	// infinite loops.
	ds := dataset.MustFromRows([][]float64{
		{0.5, 0.5}, {0.5, 0.5}, {0.3, 0.8},
	})
	lines := dualLines(ds)
	isCand := []bool{true, true, true}
	events := buildEvents(lines, isCand, 0, 1)
	for _, e := range events {
		if (e.up == 0 && e.down == 1) || (e.up == 1 && e.down == 0) {
			t.Fatal("parallel lines reported as crossing")
		}
	}
	n := 0
	neighborSweep(t.Context(), lines, initialOrder(lines, 0), 0, 1, func(event, int) { n++ })
	if n != len(events) {
		t.Errorf("neighbor sweep found %d events, buildEvents %d", n, len(events))
	}
}

func TestDegenerateConcurrentCrossings(t *testing.T) {
	// Three lines through one point: all three pairwise crossings happen at
	// the same x; both sweeps must handle it and end with correct ranks.
	lines := []line{
		{slope: 1, intercept: 0},
		{slope: -1, intercept: 1},
		{slope: 0, intercept: 0.5},
		{slope: 0.3, intercept: 0.2},
	}
	isCand := []bool{true, true, true, true}
	events := buildEvents(lines, isCand, 0, 1)
	ranks := initialRanks(lines, 0)
	for _, e := range events {
		ranks[e.up]++
		ranks[e.down]--
	}
	for i := range lines {
		if want := bruteRank(lines, i, 1); ranks[i] != want {
			t.Fatalf("line %d: evented rank %d, brute %d", i, ranks[i], want)
		}
	}
	count := 0
	neighborSweep(t.Context(), lines, initialOrder(lines, 0), 0, 1, func(event, int) { count++ })
	if count != len(events) {
		t.Errorf("neighbor sweep %d events, buildEvents %d", count, len(events))
	}
	// Lines 0, 1, 2 are concurrent at x = 0.5: exactly three crossings there.
	at05 := 0
	for _, e := range events {
		if math.Abs(e.x-0.5) < 1e-12 {
			at05++
		}
	}
	if at05 != 3 {
		t.Errorf("%d crossings at the concurrent point, want 3", at05)
	}
}
