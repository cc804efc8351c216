package algo2d

import (
	"context"
	"slices"

	"github.com/rankregret/rankregret/internal/ctxutil"
	"github.com/rankregret/rankregret/internal/dataset"
)

// Appended returns the plan of ds over pl's segment, where ds's first pl.n
// rows are the rows pl was built from and its further rows were appended
// after them. The plan is deep-equal to NewPlanCtx(ctx, ds, space) for the
// space pl was built over, but Appended reads only the appended rows and
// the candidates: it skips the build's passes over every row (the skyline,
// the start ranks and the cap C, the witness filter) and the crossings it
// already holds.
//
// Appended ids are larger than every old id, so the old band and candidate
// positions keep their places and every tie against an appended line
// breaks as in a fresh build. The passes over the old rows stand as long as
// no appended row could change what they found, so Appended declines (a nil
// plan and false) when
//
//   - an appended row is not strictly Pareto-dominated by a candidate: it
//     could join the skyline or the U-skyline;
//   - a row raises marginScale, which sets the rounding margin;
//   - a row's smaller endpoint value reaches the band's witness level;
//   - the rows raise the cap C, which sizes the band;
//   - pl's band is every line, which the rows would change.
//
// Otherwise the appended rows whose larger endpoint value reaches the
// band's filter level join the band at its end; their ranks are added to
// the candidates' start ranks, their crossings with the candidates merged
// into pl's events, and the steps folded again as NewPlanCtx folds them.
// Appended never writes pl. It checks ctx before it starts.
func (pl *Plan) Appended(ctx context.Context, ds *dataset.Dataset) (*Plan, bool, error) {
	if err := ctxutil.Cancelled(ctx); err != nil {
		return nil, false, err
	}
	if pl.nband == 0 || ds.Dim() != 2 || ds.N() < pl.n {
		return nil, false, nil
	}
	c0, c1 := pl.c0, pl.c1
	rows := make([]line, ds.N()-pl.n) // rows[k] is row pl.n+k's line
	for k := range rows {
		rows[k] = dualLine(ds.Value(pl.n+k, 0), ds.Value(pl.n+k, 1))
	}
	if marginScale(rows, c0, c1) > pl.scale {
		return nil, false, nil
	}
	for k, l := range rows {
		// Written so a NaN endpoint declines.
		if !(min(l.eval(c0), l.eval(c1)) < pl.top) || !candidateDominates(ds, pl.cand, pl.n+k) {
			return nil, false, nil
		}
	}
	margin := roundingMargin(pl.scale)
	cands := make([]line, len(pl.cand))
	terms := slices.Clone(pl.terms)
	for p, c := range pl.cand {
		cands[p] = dualLine(ds.Value(c, 0), ds.Value(c, 1))
		above, over := standing(cands[p], c, rows, pl.n, c0, c1, margin)
		terms[p] += above + over
	}
	if slices.Min(terms) != slices.Min(pl.terms) {
		return nil, false, nil
	}

	w, nb := pl.top-margin, pl.nband
	var joined []line // the band's new lines, at positions nb, nb+1, ...
	for _, l := range rows {
		if max(l.eval(c0), l.eval(c1)) >= w {
			joined = append(joined, l)
		}
	}
	start := slices.Clone(pl.start)
	var events []event
	for p, i := range pl.local {
		above, _ := standing(cands[p], i, joined, nb, c0, c1, margin)
		start[p] += above
		for k, l := range joined {
			if e, ok := crossing(cands[p], l, i, nb+k, c0, c1); ok {
				events = append(events, e)
			}
		}
	}
	sortEvents(events)
	out := &Plan{
		cand: pl.cand, start: start, n: ds.N(), c0: c0, c1: c1,
		nband: nb + len(joined), local: pl.local, terms: terms, scale: pl.scale, top: pl.top,
		events: mergeEvents(pl.events, events),
	}
	out.fold(out.nband)
	return out, true, nil
}

// candidateDominates reports whether some candidate strictly
// Pareto-dominates row r of ds: at least as large on both attributes and
// larger on one.
func candidateDominates(ds *dataset.Dataset, cand []int, r int) bool {
	r0, r1 := ds.Value(r, 0), ds.Value(r, 1)
	for _, c := range cand {
		v0, v1 := ds.Value(c, 0), ds.Value(c, 1)
		if v0 >= r0 && v1 >= r1 && (v0 > r0 || v1 > r1) {
			return true
		}
	}
	return false
}
