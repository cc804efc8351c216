package algo2d

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"

	"github.com/rankregret/rankregret/internal/dataset"
	"github.com/rankregret/rankregret/internal/funcspace"
	"github.com/rankregret/rankregret/internal/skyline"
	"github.com/rankregret/rankregret/internal/xrand"
)

// uncappedPlan is the plan build without the band: start ranks over every
// line and every crossing of a candidate with any line. It is the oracle
// the banded NewPlanCtx must match answer for answer.
func uncappedPlan(ctx context.Context, ds *dataset.Dataset, space funcspace.Space) (*Plan, error) {
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
	lines := dualLines(ds)
	isCand := make([]bool, len(lines))
	candPos := make([]int32, len(lines))
	for i := range candPos {
		candPos[i] = -1
	}
	for p, c := range cand {
		isCand[c] = true
		candPos[c] = int32(p)
	}
	start, _ := ranksAt(lines, cand, c0, c1)
	pl := &Plan{cand: cand, start: start}
	cur := slices.Clone(pl.start)
	for _, e := range buildEvents(lines, isCand, c0, c1) {
		p, q := candPos[e.up], candPos[e.down]
		if p >= 0 {
			cur[p]++
			pl.steps = append(pl.steps, step{p: p, q: q, rank: int32(cur[p])})
		}
		if q >= 0 {
			cur[q]--
		}
	}
	return pl, ctx.Err()
}

// uncappedExactRankRegret is ExactRankRegret without the band: the members'
// ranks counted over every line, through every crossing of a member.
func uncappedExactRankRegret(ds *dataset.Dataset, ids []int, c0, c1 float64) int {
	lines := dualLines(ds)
	isMember := make([]bool, len(lines))
	for _, id := range ids {
		isMember[id] = true
	}
	cur := make([]int, len(lines))
	start, _ := ranksAt(lines, ids, c0, c1)
	for p, id := range ids {
		cur[id] = start[p]
	}
	minRank := func() int {
		m := math.MaxInt
		for _, id := range ids {
			m = min(m, cur[id])
		}
		return m
	}
	worst := minRank()
	for _, e := range buildEvents(lines, isMember, c0, c1) {
		if isMember[e.up] {
			cur[e.up]++
		}
		if isMember[e.down] {
			cur[e.down]--
		}
		worst = max(worst, minRank())
	}
	return worst
}

// allLinesKSets is KSets2D without the band: the neighbor sweep over every
// line.
func allLinesKSets(ds *dataset.Dataset, k int) [][]int {
	lines := dualLines(ds)
	order := initialOrder(lines, 0)
	seen := map[string]bool{}
	var out [][]int
	record := func() {
		top := slices.Clone(order[:k])
		slices.Sort(top)
		if key := intsKey(top); !seen[key] {
			seen[key] = true
			out = append(out, top)
		}
	}
	record()
	neighborSweep(context.Background(), lines, order, 0, 1, func(_ event, p int) {
		if p == k-1 {
			record()
		}
	})
	return out
}

// witnessLevel is bandIDs' w before the margin, by a full sort: the m-th
// largest smaller endpoint value over [c0, c1].
func witnessLevel(lines []line, m int, c0, c1 float64) float64 {
	lo := make([]float64, len(lines))
	for i, l := range lines {
		lo[i] = min(l.eval(c0), l.eval(c1))
	}
	slices.Sort(lo)
	return lo[len(lo)-m]
}

// planBand reports the banded plan's cap C and the witness level for its
// band, for the case checks below.
func planBand(t testing.TB, ds *dataset.Dataset, space funcspace.Space) (lines []line, cand []int, capC int, w, c0, c1 float64) {
	t.Helper()
	if space == nil {
		space = funcspace.NewFull(2)
	}
	c0, c1, err := funcspace.Render2D(space)
	if err != nil {
		t.Fatal(err)
	}
	if cand, err = skyline.ComputeRestricted(ds, space); err != nil {
		t.Fatal(err)
	}
	lines = dualLines(ds)
	_, capC = ranksAt(lines, cand, c0, c1)
	if capC+1 < len(lines) {
		w = witnessLevel(lines, capC+1, c0, c1)
	}
	return lines, cand, capC, w, c0, c1
}

// checkBandedPlan compares the banded plan with the uncapped one on every
// RRM budget r in 1..s+1 and every RRR threshold k in [1, n], and the
// banded ExactRankRegret with the uncapped one on each RRM answer and on
// each candidate alone.
func checkBandedPlan(t testing.TB, ds *dataset.Dataset, space funcspace.Space) {
	t.Helper()
	ctx := context.Background()
	banded, errB := NewPlanCtx(ctx, ds, space)
	full, errF := uncappedPlan(ctx, ds, space)
	if (errB == nil) != (errF == nil) {
		t.Fatalf("banded plan error %v, uncapped plan error %v", errB, errF)
	}
	if errB != nil {
		return
	}
	if !slices.Equal(banded.cand, full.cand) {
		t.Fatalf("candidates %v, uncapped %v", banded.cand, full.cand)
	}
	c0, c1 := 0.0, 1.0
	if space != nil {
		c0, c1, _ = funcspace.Render2D(space)
	}
	checkExact := func(ids []int) {
		t.Helper()
		got, err := ExactRankRegret(ds, ids, c0, c1)
		if err != nil {
			t.Fatal(err)
		}
		if want := uncappedExactRankRegret(ds, ids, c0, c1); got != want {
			t.Fatalf("ExactRankRegret(%v) over [%v, %v]: banded %d, uncapped %d", ids, c0, c1, got, want)
		}
	}
	s := len(full.cand)
	for r := 1; r <= s+1; r++ {
		got, err := banded.RRM(ctx, r)
		if err != nil {
			t.Fatal(err)
		}
		want, err := full.RRM(ctx, r)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("RRM r=%d: banded %+v, uncapped %+v", r, got, want)
		}
		checkExact(got.IDs)
	}
	for k := 1; k <= ds.N(); k++ {
		got, gotOK, err := banded.RRR(ctx, k)
		if err != nil {
			t.Fatal(err)
		}
		want, wantOK, err := full.RRR(ctx, k)
		if err != nil {
			t.Fatal(err)
		}
		if gotOK != wantOK || !reflect.DeepEqual(got, want) {
			t.Fatalf("RRR k=%d: banded %+v/%v, uncapped %+v/%v", k, got, gotOK, want, wantOK)
		}
	}
	for _, c := range full.cand {
		checkExact([]int{c})
	}
}

// gridRows returns n rows on a grid of the given step in [0, 2]: many rows
// tie on an attribute or both, and many crossings share one x.
func gridRows(rng *xrand.Rand, n int, step float64) [][]float64 {
	levels := int(2/step) + 1
	rows := make([][]float64, n)
	for i := range rows {
		rows[i] = []float64{float64(rng.Intn(levels)) * step, float64(rng.Intn(levels)) * step}
	}
	return rows
}

// crossingRows returns rows whose dual lines cross, in floating point, at
// or within rounding of x = c: pairs of lines through one point at c.
func crossingRows(rng *xrand.Rand, pairs int, c float64) [][]float64 {
	var rows [][]float64
	for range pairs {
		y := 1.9 + 0.2*rng.Float64() // at the top of gridRows' range
		for range 2 {
			slope := 0.3*rng.Float64() - 0.15
			t2 := y - slope*c
			rows = append(rows, []float64{t2 + slope, t2})
		}
	}
	return rows
}

type bandCase struct {
	name  string
	ds    *dataset.Dataset
	space funcspace.Space
}

// bandCases is the differential table: tie grids on three segments,
// continuous data on a ball and a cone, crossings within rounding of both
// ends of a segment, and tie grids picked because a line's endpoint value
// equals the witness level w exactly or because the cap falls on a tie of
// the witness ordering.
func bandCases(t testing.TB) []bandCase {
	t.Helper()
	cone, err := funcspace.WeakRanking(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	ball, err := funcspace.NewBall([]float64{0.6, 0.4}, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	spaces := []struct {
		name  string
		space funcspace.Space
	}{{"full", nil}, {"ball", ball}, {"cone", cone}}

	var cases []bandCase
	for seed := int64(1); seed <= 90; seed++ {
		rng := xrand.New(seed)
		step := []float64{0.5, 0.25, 0.125}[seed%3]
		ds := dataset.MustFromRows(gridRows(rng, 4+rng.Intn(120), step))
		for _, sp := range spaces {
			cases = append(cases, bandCase{fmt.Sprintf("tiegrid/%s/step=%v/seed=%d", sp.name, step, seed), ds, sp.space})
		}
	}
	for _, sp := range spaces {
		cases = append(cases,
			bandCase{"island/" + sp.name, dataset.SimIsland(xrand.New(4), 300), sp.space},
			bandCase{"indep/" + sp.name, dataset.Independent(xrand.New(2), 150, 2), sp.space})
	}

	// Crossings within rounding of c0 and c1, among the top lines.
	c0, c1, err := funcspace.Render2D(ball)
	if err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(7)
	rows := gridRows(rng, 60, 0.25)
	rows = append(rows, crossingRows(rng, 6, c0)...)
	rows = append(rows, crossingRows(rng, 6, c1)...)
	near := dataset.MustFromRows(rows)
	nearLines := dualLines(near)
	atEnd := [2]int{}
	for i := range nearLines {
		for j := i + 1; j < len(nearLines); j++ {
			x, _ := intersectX(nearLines[i], nearLines[j])
			for e, c := range [2]float64{c0, c1} {
				if math.Abs(x-c) <= 1e-12 {
					atEnd[e]++
				}
			}
		}
	}
	if atEnd[0] < 6 || atEnd[1] < 6 {
		t.Fatalf("crossings within rounding of c0, c1: %v, want >= 6 each", atEnd)
	}
	cases = append(cases, bandCase{"near-ends/ball", near, ball})

	// Tie grids where a non-candidate line's larger endpoint value is
	// exactly w, and where the (C+1)-th and (C+2)-th smaller endpoint
	// values tie, so the cap falls on a tie.
	edge, tie := 0, 0
	for seed := int64(100); seed < 400 && (edge < 8 || tie < 8); seed++ {
		rng := xrand.New(seed)
		ds := dataset.MustFromRows(gridRows(rng, 20+rng.Intn(40), 0.25))
		lines, cand, capC, w, c0, c1 := planBand(t, ds, nil)
		if capC+2 >= len(lines) {
			continue
		}
		onW := false
		for i, l := range lines {
			v0, v1 := l.eval(c0), l.eval(c1)
			onW = onW || !slices.Contains(cand, i) && max(v0, v1) == w && min(v0, v1) < w
		}
		if edge < 8 && onW {
			edge++
			cases = append(cases, bandCase{fmt.Sprintf("endpoint-equals-w/seed=%d", seed), ds, nil})
		}
		if tie < 8 && witnessLevel(lines, capC+2, c0, c1) == w {
			tie++
			cases = append(cases, bandCase{fmt.Sprintf("cap-on-tie/seed=%d", seed), ds, nil})
		}
	}
	if edge < 8 || tie < 8 {
		t.Fatalf("found %d endpoint-equals-w and %d cap-on-tie datasets, want 8 each", edge, tie)
	}
	return cases
}

// TestBandedPlanMatchesUncapped is the band's differential test: on every
// case of the table the banded plan answers every RRM budget and RRR
// threshold exactly as the plan over every line, and the banded
// ExactRankRegret equals the sweep over every line.
func TestBandedPlanMatchesUncapped(t *testing.T) {
	for _, tc := range bandCases(t) {
		t.Run(tc.name, func(t *testing.T) { checkBandedPlan(t, tc.ds, tc.space) })
	}
}

// The band is a real restriction on the benchmark's 2D data, and exact:
// SimIsland 10k keeps about a tenth of its lines and every answer.
func TestBandedPlanIsland10k(t *testing.T) {
	ds := dataset.SimIsland(xrand.New(1), 10000)
	lines, cand, capC, _, c0, c1 := planBand(t, ds, nil)
	band := sweepBand(lines, cand, c0, c1).lines
	if len(band)*5 > len(lines) {
		t.Fatalf("band keeps %d of %d lines at cap %d", len(band), len(lines), capC)
	}
	ctx := t.Context()
	banded, err := NewPlanCtx(ctx, ds, nil)
	if err != nil {
		t.Fatal(err)
	}
	full, err := uncappedPlan(ctx, ds, nil)
	if err != nil {
		t.Fatal(err)
	}
	for r := 1; r <= len(cand)+1; r++ {
		got, _ := banded.RRM(ctx, r)
		want, _ := full.RRM(ctx, r)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("r=%d: banded %+v, uncapped %+v", r, got, want)
		}
	}
}

// ranksAt's bound is the least over the tracked lines of start rank plus
// the events in which the line is overtaken: the same count buildEvents
// gives, so it holds in the sweep's own arithmetic.
func TestRanksAtBoundCountsOvertakes(t *testing.T) {
	windows := [][2]float64{{0, 1}, {0.3, 0.7}, {0.5, 1}}
	for seed := int64(1); seed <= 40; seed++ {
		rng := xrand.New(seed)
		lines := dualLines(dataset.MustFromRows(gridRows(rng, 5+rng.Intn(40), 0.5)))
		ids := []int{0, rng.Intn(len(lines)), len(lines) - 1}
		isTracked := make([]bool, len(lines))
		for _, id := range ids {
			isTracked[id] = true
		}
		for _, win := range windows {
			ranks, bound := ranksAt(lines, ids, win[0], win[1])
			over := make([]int, len(lines))
			for _, e := range buildEvents(lines, isTracked, win[0], win[1]) {
				over[e.up]++
			}
			want := math.MaxInt
			for p, id := range ids {
				want = min(want, ranks[p]+over[id])
			}
			if bound != want {
				t.Fatalf("seed %d window %v: bound %d, start+overtakes %d", seed, win, bound, want)
			}
		}
	}
}

// bandIDs keeps every line that ranks in the top m at some x of the
// segment: at each end, at every crossing and between crossings.
func TestBandIDsKeepsTopM(t *testing.T) {
	for seed := int64(1); seed <= 60; seed++ {
		rng := xrand.New(seed)
		lines := dualLines(dataset.MustFromRows(gridRows(rng, 5+rng.Intn(50), 0.25)))
		c0, c1 := 0.25*float64(rng.Intn(2)), 1-0.25*float64(rng.Intn(2))
		xs := []float64{c0, c1}
		for i := range lines {
			for j := i + 1; j < len(lines); j++ {
				if x, ok := intersectX(lines[i], lines[j]); ok && x > c0 && x < c1 {
					xs = append(xs, x)
				}
			}
		}
		slices.Sort(xs)
		xs = slices.Compact(xs)
		for i := len(xs) - 1; i > 0; i-- {
			xs = append(xs, (xs[i-1]+xs[i])/2)
		}
		for _, m := range []int{1, 2, 3, len(lines) / 2} {
			ids, _ := bandIDs(lines, m, nil, c0, c1, roundingMargin(marginScale(lines, c0, c1)))
			if ids == nil {
				continue
			}
			for _, x := range xs {
				for id, rank := range initialRanks(lines, x) {
					if rank <= m {
						if _, ok := slices.BinarySearch(ids, id); !ok {
							t.Fatalf("seed %d m=%d: line %d ranks %d at x=%v but is not in the band %v", seed, m, id, rank, x, ids)
						}
					}
				}
			}
		}
	}
}

// KSets2D over the band returns exactly the sweep over every line, order
// included: every k on the tie grids, k <= 30 and k = n on the larger sets.
func TestKSets2DBandMatchesAllLines(t *testing.T) {
	var sets []*dataset.Dataset
	for seed := int64(1); seed <= 60; seed++ {
		rng := xrand.New(seed)
		sets = append(sets, dataset.MustFromRows(gridRows(rng, 4+rng.Intn(30), 0.5)))
	}
	sets = append(sets, dataset.SimIsland(xrand.New(3), 200), dataset.Independent(xrand.New(5), 120, 2))
	for i, ds := range sets {
		for k := 1; k <= ds.N(); k++ {
			if k > 30 && k < ds.N() {
				continue
			}
			got, err := KSets2D(t.Context(), ds, k)
			if err != nil {
				t.Fatal(err)
			}
			if want := allLinesKSets(ds, k); !reflect.DeepEqual(got, want) {
				t.Fatalf("set %d k=%d: banded %v, every line %v", i, k, got, want)
			}
		}
	}
}

// A cancelled context stops KSets2D before its sweep.
func TestKSets2DCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(t.Context())
	cancel()
	ds := dataset.Anticorrelated(xrand.New(1), 2000, 2)
	if _, err := KSets2D(ctx, ds, 10); !errors.Is(err, context.Canceled) {
		t.Fatalf("KSets2D on a cancelled context: %v, want context.Canceled", err)
	}
}

// FuzzBandedPlan runs the differential check on tiny datasets on a
// half-step grid and a segment the input picks: the first byte picks the
// full space, a cone or a ball whose center and radius the next two bytes
// set, and each following pair of bytes is a row.
func FuzzBandedPlan(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 0, 1, 1, 2, 2, 4, 0, 0, 4})
	f.Add([]byte{1, 0, 0, 4, 0, 0, 4, 2, 2, 2, 2, 1, 3})
	f.Add([]byte{2, 128, 40, 1, 1, 1, 1, 3, 0, 0, 3, 4, 4, 2, 1})
	f.Fuzz(func(t *testing.T, b []byte) {
		if len(b) < 5 {
			return
		}
		var space funcspace.Space
		switch b[0] % 3 {
		case 1:
			space, _ = funcspace.WeakRanking(2, 1)
		case 2:
			c := 0.2 + 0.6*float64(b[1])/255
			r := 0.01 + 0.19*float64(b[2])/255
			ball, err := funcspace.NewBall([]float64{c, 1 - c}, min(r, c, 1-c))
			if err != nil {
				t.Fatal(err)
			}
			space = ball
		}
		rows := make([][]float64, 0, 20)
		for i := 3; i+1 < len(b) && len(rows) < 20; i += 2 {
			rows = append(rows, []float64{float64(b[i]%5) / 2, float64(b[i+1]%5) / 2})
		}
		checkBandedPlan(t, dataset.MustFromRows(rows), space)
	})
}
