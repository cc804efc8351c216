package algo2d

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"

	"github.com/rankregret/rankregret/internal/dataset"
	"github.com/rankregret/rankregret/internal/funcspace"
	"github.com/rankregret/rankregret/internal/xrand"
)

// withRows returns a snapshot of ds with rows appended; ds is unchanged.
func withRows(ds *dataset.Dataset, rows [][]float64) *dataset.Dataset {
	next := ds.Snapshot()
	for _, r := range rows {
		next.Append(r)
	}
	return next
}

// jitterRows returns count rows, each a random row of ds moved by up to
// ±0.01 per attribute and clamped to [0, 1]: the serving benchmark's
// append recipe.
func jitterRows(rng *xrand.Rand, ds *dataset.Dataset, count int) [][]float64 {
	rows := make([][]float64, count)
	for i := range rows {
		src := ds.Row(rng.Intn(ds.N()))
		rows[i] = []float64{
			min(max(src[0]+0.02*(rng.Float64()-0.5), 0), 1),
			min(max(src[1]+0.02*(rng.Float64()-0.5), 0), 1),
		}
	}
	return rows
}

// checkAppended is the repair's oracle: it extends pl to next, whose first
// rows are pl's, and builds next's plan afresh. A repaired plan must be
// deep-equal to the fresh one and answer every RRM budget r in 1..s+1 and
// every RRR threshold k in [1, n] as it does; a declined repair returns a
// nil plan. It returns the plan a caller goes on with, the repaired one or
// the fresh fallback, and whether the repair was taken.
func checkAppended(t testing.TB, pl *Plan, next *dataset.Dataset, space funcspace.Space) (*Plan, bool) {
	t.Helper()
	ctx := context.Background()
	fresh, err := NewPlanCtx(ctx, next, space)
	if err != nil {
		t.Fatal(err)
	}
	before := clonePlan(pl)
	got, ok, err := pl.Appended(ctx, next)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(pl, before) {
		t.Fatal("Appended changed its source plan")
	}
	if !ok {
		if got != nil {
			t.Fatal("a declined repair returned a plan")
		}
		return fresh, false
	}
	if !reflect.DeepEqual(got, fresh) {
		t.Fatalf("repaired plan differs from a fresh build:\nrepaired %+v\nfresh    %+v", got, fresh)
	}
	for r := 1; r <= len(fresh.cand)+1; r++ {
		a, errA := got.RRM(ctx, r)
		b, errB := fresh.RRM(ctx, r)
		if errA != nil || errB != nil || !reflect.DeepEqual(a, b) {
			t.Fatalf("RRM r=%d: repaired %+v (%v), fresh %+v (%v)", r, a, errA, b, errB)
		}
	}
	for k := 1; k <= next.N(); k++ {
		a, okA, errA := got.RRR(ctx, k)
		b, okB, errB := fresh.RRR(ctx, k)
		if errA != nil || errB != nil || okA != okB || !reflect.DeepEqual(a, b) {
			t.Fatalf("RRR k=%d: repaired %+v/%v (%v), fresh %+v/%v (%v)", k, a, okA, errA, b, okB, errB)
		}
	}
	return got, true
}

// appendChain appends batches of rows to ds, steps times, carrying one
// plan through checkAppended. It reports how many batches repaired and how
// many of those added lines to the band.
func appendChain(t testing.TB, ds *dataset.Dataset, space funcspace.Space, steps int, batch func(*dataset.Dataset) [][]float64) (repaired, grew int) {
	t.Helper()
	pl, err := NewPlanCtx(context.Background(), ds, space)
	if err != nil {
		t.Fatal(err)
	}
	for range steps {
		ds = withRows(ds, batch(ds))
		next, ok := checkAppended(t, pl, ds, space)
		if ok {
			repaired++
			if next.nband > pl.nband {
				grew++
			}
		}
		pl = next
	}
	return repaired, grew
}

// TestPlanAppendMatchesFresh chains appends over SimIsland, independent,
// anticorrelated and tied half-step-grid data, on the full space, the
// weak-ranking cone and a narrow ball: every repaired plan equals a fresh
// build of the appended dataset, answers included. On SimIsland over the
// full space, the serving benchmark's solve, most appends must repair and
// some must add lines to the band, or the check would be vacuous.
func TestPlanAppendMatchesFresh(t *testing.T) {
	cone, err := funcspace.WeakRanking(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	narrow, err := funcspace.NewBall([]float64{0.5, 0.5}, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	spaces := []struct {
		name  string
		space funcspace.Space
	}{{"full", nil}, {"weak1", cone}, {"narrow", narrow}}
	rng := xrand.New(29)
	tied := dataset.MustFromRows(gridRows(rng, 80, 0.5))
	sets := []struct {
		name  string
		ds    *dataset.Dataset
		batch func(*dataset.Dataset) [][]float64
	}{
		{"island", dataset.SimIsland(xrand.New(4), 600), func(ds *dataset.Dataset) [][]float64 {
			return jitterRows(rng, ds, 1+rng.Intn(8))
		}},
		{"indep", dataset.Independent(xrand.New(2), 300, 2), func(ds *dataset.Dataset) [][]float64 {
			return jitterRows(rng, ds, 1+rng.Intn(8))
		}},
		{"anti", dataset.Anticorrelated(xrand.New(1), 150, 2), func(ds *dataset.Dataset) [][]float64 {
			return jitterRows(rng, ds, 1+rng.Intn(4))
		}},
		// Grid rows and exact copies of old rows: ties at both ends of the
		// segment and crossings that share an x.
		{"tied", tied, func(ds *dataset.Dataset) [][]float64 {
			rows := gridRows(rng, 1+rng.Intn(4), 0.5)
			for range rng.Intn(3) {
				rows = append(rows, slices.Clone(ds.Row(rng.Intn(ds.N()))))
			}
			return rows
		}},
	}
	for _, set := range sets {
		for _, sp := range spaces {
			t.Run(set.name+"/"+sp.name, func(t *testing.T) {
				const steps = 20
				repaired, grew := appendChain(t, set.ds, sp.space, steps, set.batch)
				t.Logf("%d of %d appends repaired, %d added band lines", repaired, steps, grew)
				if set.name == "island" && sp.space == nil && (2*repaired < steps || grew == 0) {
					t.Fatalf("island: %d of %d appends repaired, %d added band lines", repaired, steps, grew)
				}
			})
		}
	}
}

// TestPlanAppendDeclines checks each reason the repair declines. For each
// appended row the fresh plan shows why the old passes would be wrong (a
// changed candidate set, margin scale or cap C), or the row sits exactly
// where the decline rule draws its line; Appended must return no plan, so
// the caller falls back to a fresh build.
func TestPlanAppendDeclines(t *testing.T) {
	ctx := t.Context()
	ds := dataset.SimIsland(xrand.New(5), 2000)
	pl, err := NewPlanCtx(ctx, ds, nil)
	if err != nil {
		t.Fatal(err)
	}
	if pl.nband == 0 {
		t.Fatal("SimIsland's band is every line")
	}
	fresh := func(rows [][]float64) *Plan {
		t.Helper()
		p, err := NewPlanCtx(ctx, withRows(ds, rows), nil)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	capC := slices.Min(pl.terms)
	// The candidate with the smallest smaller endpoint value lies below the
	// witness level, so its duplicate passes that test and only the
	// dominance test can decline it; so does a row beyond the largest
	// first attribute with a second of 0.
	low, hiX := ds.Row(pl.cand[0]), 0.0
	for _, id := range pl.cand {
		r := ds.Row(id)
		if min(r[0], r[1]) < min(low[0], low[1]) {
			low = r
		}
		hiX = max(hiX, r[0])
	}
	if !(min(low[0], low[1]) < pl.top) {
		t.Fatalf("lowest candidate %v is not below the witness level %v", low, pl.top)
	}
	// The candidate with the largest smaller endpoint value lies at or
	// above the witness level, so rows at and above the level can sit
	// below it.
	var best []float64
	for _, id := range pl.cand {
		if r := ds.Row(id); best == nil || min(r[0], r[1]) > min(best[0], best[1]) {
			best = r
		}
	}
	eps := (min(best[0], best[1]) - pl.top) / 2
	if eps <= 0 {
		t.Fatalf("best candidate %v is not above the witness level %v", best, pl.top)
	}
	// A row that raises C: the first of a seeded series of rows jittered
	// below a candidate whose fresh plan keeps the candidates, the margin
	// and the witness level but has a larger cap.
	var raisesC []float64
	rng := xrand.New(6)
	for try := 0; try < 5000 && raisesC == nil; try++ {
		src := ds.Row(pl.cand[rng.Intn(len(pl.cand))])
		row := []float64{src[0] - 0.3*rng.Float64(), src[1] - 0.3*rng.Float64()}
		if f := fresh([][]float64{row}); slices.Equal(f.cand, pl.cand) && f.scale == pl.scale && f.top == pl.top && slices.Min(f.terms) > capC {
			raisesC = row
		}
	}
	if raisesC == nil {
		t.Fatal("no row in the series raises C alone")
	}

	cases := []struct {
		name string
		row  []float64
		why  func(f *Plan) bool // what the fresh plan shows; nil = nothing to show
	}{
		{"new skyline row", []float64{hiX + 0.01, 0}, func(f *Plan) bool { return !slices.Equal(f.cand, pl.cand) }},
		{"duplicate of a candidate", slices.Clone(low), func(f *Plan) bool { return !slices.Equal(f.cand, pl.cand) }},
		// Below every line everywhere, so the margin is all it changes.
		{"raises the margin", []float64{-10, -10}, func(f *Plan) bool { return f.scale > pl.scale }},
		{"at the witness level", []float64{pl.top, pl.top}, nil},
		{"above the witness level", []float64{best[0] - eps, best[1] - eps}, func(f *Plan) bool { return f.top > pl.top }},
		{"raises C", raisesC, func(f *Plan) bool { return slices.Min(f.terms) > capC }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rows := [][]float64{tc.row}
			if f := fresh(rows); tc.why != nil && !tc.why(f) {
				t.Fatalf("row %v: the fresh plan shows no reason to decline", tc.row)
			}
			next := withRows(ds, rows)
			got, ok, err := pl.Appended(ctx, next)
			if err != nil || ok || got != nil {
				t.Fatalf("row %v: Appended = %v, %v, %v; want a decline", tc.row, got != nil, ok, err)
			}
			checkAppended(t, pl, next, nil)
		})
	}

	t.Run("every-line band", func(t *testing.T) {
		anti := dataset.Anticorrelated(xrand.New(1), 150, 2)
		pl, err := NewPlanCtx(ctx, anti, nil)
		if err != nil {
			t.Fatal(err)
		}
		if pl.nband != 0 {
			t.Fatal("anticorrelated band is not every line")
		}
		// Below every line, so only the every-line band declines it.
		next := withRows(anti, [][]float64{{-0.5, -0.5}})
		if got, ok, err := pl.Appended(ctx, next); err != nil || ok || got != nil {
			t.Fatalf("Appended over an every-line band = %v, %v, %v; want a decline", got != nil, ok, err)
		}
	})

	t.Run("cancelled", func(t *testing.T) {
		cancelled, cancel := context.WithCancel(ctx)
		cancel()
		if _, _, err := pl.Appended(cancelled, withRows(ds, jitterRows(rng, ds, 8))); err != context.Canceled {
			t.Fatalf("cancelled ctx: err = %v", err)
		}
	})
}

// TestPlanAppendFilterEdge appends rows whose larger endpoint value lies
// exactly at the band's filter level w, which joins the band, and just
// below it, which does not: each repair must equal a fresh build.
func TestPlanAppendFilterEdge(t *testing.T) {
	ds := dataset.SimIsland(xrand.New(5), 2000)
	pl, err := NewPlanCtx(t.Context(), ds, nil)
	if err != nil {
		t.Fatal(err)
	}
	w := pl.top - roundingMargin(pl.scale)
	for _, row := range [][]float64{{w, 0}, {0, w}, {math.Nextafter(w, 0), 0}} {
		next := withRows(ds, [][]float64{row})
		got, ok := checkAppended(t, pl, next, nil)
		if !ok {
			t.Fatalf("row %v: the repair declined", row)
		}
		if joined := got.nband > pl.nband; joined != (max(row[0], row[1]) >= w) {
			t.Fatalf("row %v: joined the band = %v", row, joined)
		}
	}
}

// FuzzPlanAppend runs the repair's oracle on tiny datasets on a half-step
// grid: the first byte picks the full space, a cone or a ball whose center
// and radius the next two bytes set, the fourth how many of the following
// rows (a pair of bytes each) form the base; the rest are appended one
// batch at a time, a batch ending at each row whose first byte is odd.
func FuzzPlanAppend(f *testing.F) {
	f.Add([]byte{0, 0, 0, 4, 0, 4, 4, 0, 2, 2, 1, 1, 3, 0, 2, 1, 1, 2})
	f.Add([]byte{1, 0, 0, 3, 4, 4, 0, 4, 3, 1, 1, 1, 2, 2, 0, 0, 1, 3})
	f.Add([]byte{2, 128, 40, 5, 1, 1, 1, 1, 3, 0, 0, 3, 4, 4, 2, 1, 1, 1, 3, 3, 0, 1})
	f.Fuzz(func(t *testing.T, b []byte) {
		if len(b) < 6 {
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
		var rows [][]float64
		for i := 4; i+1 < len(b) && len(rows) < 40; i += 2 {
			rows = append(rows, []float64{float64(b[i]%5) / 2, float64(b[i+1]%5) / 2})
		}
		base := 1 + int(b[3])%12
		if base >= len(rows) {
			return
		}
		ds := dataset.MustFromRows(rows[:base])
		pl, err := NewPlanCtx(context.Background(), ds, space)
		if err != nil {
			t.Fatal(err)
		}
		for lo := base; lo < len(rows); {
			hi := lo + 1
			for hi < len(rows) && b[4+2*(hi-1)]%2 == 0 {
				hi++
			}
			ds = withRows(ds, rows[lo:hi])
			pl, _ = checkAppended(t, pl, ds, space)
			lo = hi
		}
	})
}

// BenchmarkPlanAppend times the repair of the serving benchmark's 2D plan,
// SimIsland 10k, across one write of 8 jittered rows, beside
// BenchmarkNewPlan's fresh build of the same data. Only batches that
// repair are timed.
func BenchmarkPlanAppend(b *testing.B) {
	ctx := b.Context()
	ds := dataset.SimIsland(xrand.New(1), 10000)
	pl, err := NewPlanCtx(ctx, ds, nil)
	if err != nil {
		b.Fatal(err)
	}
	rng := xrand.New(2)
	var next []*dataset.Dataset
	for len(next) < 16 {
		v := withRows(ds, jitterRows(rng, ds, 8))
		if _, ok, _ := pl.Appended(ctx, v); ok {
			next = append(next, v)
		}
	}
	b.Run(fmt.Sprintf("island/n=%d+8", ds.N()), func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, ok, err := pl.Appended(ctx, next[i%len(next)]); err != nil || !ok {
				b.Fatal("repair declined", err)
			}
		}
	})
}
