// Package skyline computes the candidate-tuple sets of Theorem 3: the
// classical skyline (Borzsony et al.) for RRM and the restricted U-skyline
// (Ciaccia and Martinenghi, Definition 5 in the paper) for RRRM. Rank-regret
// solvers only ever need to consider these tuples, which is what makes the
// 2D algorithm's matrix small and the HD set-cover instances tractable.
package skyline

import (
	"cmp"
	"slices"
	"sort"

	"github.com/rankregret/rankregret/internal/dataset"
	"github.com/rankregret/rankregret/internal/funcspace"
)

// dominates reports classical Pareto dominance: a >= b on every attribute
// and a > b on at least one.
func dominates(a, b []float64) bool {
	strict := false
	for j := range a {
		if a[j] < b[j] {
			return false
		}
		if a[j] > b[j] {
			strict = true
		}
	}
	return strict
}

// Compute returns the indices of the skyline tuples of ds in ascending index
// order. It dispatches to a linearithmic sweep for d == 2 and a sort-filter
// scan for d > 2.
func Compute(ds *dataset.Dataset) []int {
	if ds.Dim() == 2 {
		return compute2D(ds)
	}
	return computeHD(ds)
}

// compute2D: drop every tuple Pareto-dominated by the maximum-sum tuple
// (exact: anything such a tuple dominates, the pivot dominates too, and the
// pivot's duplicates survive), sort the survivors by attribute 0 descending
// (ties: attribute 1 descending, then index), then a single scan keeping
// tuples whose attribute 1 strictly exceeds the running maximum.
// O(n + m log m) for m survivors.
func compute2D(ds *dataset.Dataset) []int {
	n := ds.N()
	if n == 0 {
		return nil
	}
	pivot := 0
	for i := 1; i < n; i++ {
		if ds.Value(i, 0)+ds.Value(i, 1) > ds.Value(pivot, 0)+ds.Value(pivot, 1) {
			pivot = i
		}
	}
	type rec struct {
		v0, v1 float64
		id     int
	}
	pr := ds.Row(pivot)
	m := 0
	for i := 0; i < n; i++ {
		if !dominates(pr, ds.Row(i)) {
			m++
		}
	}
	recs := make([]rec, 0, m)
	for i := 0; i < n; i++ {
		if row := ds.Row(i); !dominates(pr, row) {
			recs = append(recs, rec{row[0], row[1], i})
		}
	}
	slices.SortFunc(recs, func(a, b rec) int {
		if c := cmp.Compare(b.v0, a.v0); c != 0 {
			return c
		}
		if c := cmp.Compare(b.v1, a.v1); c != 0 {
			return c
		}
		return cmp.Compare(a.id, b.id)
	})
	var out []int
	best1 := -1.0
	prev0, prev1 := -1.0, -1.0
	first := true
	for _, r := range recs {
		i, v0, v1 := r.id, r.v0, r.v1
		if !first && v0 == prev0 && v1 == prev1 {
			// Exact duplicate of a skyline tuple: neither dominates the
			// other, so keep it too (only if the previous one was kept).
			if len(out) > 0 {
				p := out[len(out)-1]
				if ds.Value(p, 0) == v0 && ds.Value(p, 1) == v1 {
					out = append(out, i)
				}
			}
			continue
		}
		if v1 > best1 {
			out = append(out, i)
			best1 = v1
		}
		prev0, prev1 = v0, v1
		first = false
	}
	slices.Sort(out)
	return out
}

// computeHD: sort-filter-skyline. Sorting by attribute sum descending
// guarantees no later tuple can dominate an earlier one, so one pass against
// the accumulated window suffices. O(n * s * d) with s the skyline size.
func computeHD(ds *dataset.Dataset) []int {
	n, d := ds.N(), ds.Dim()
	type rec struct {
		id  int
		sum float64
	}
	recs := make([]rec, n)
	for i := 0; i < n; i++ {
		var s float64
		row := ds.Row(i)
		for j := 0; j < d; j++ {
			s += row[j]
		}
		recs[i] = rec{i, s}
	}
	sort.Slice(recs, func(a, b int) bool {
		if recs[a].sum != recs[b].sum {
			return recs[a].sum > recs[b].sum
		}
		return recs[a].id < recs[b].id
	})
	var out []int
	for _, r := range recs {
		row := ds.Row(r.id)
		dominated := false
		for _, s := range out {
			if dominates(ds.Row(s), row) {
				dominated = true
				break
			}
		}
		if !dominated {
			out = append(out, r.id)
		}
	}
	sort.Ints(out)
	return out
}

// ComputeRestricted returns the U-skyline: tuples not U-dominated by any
// other tuple, for the given utility space. Per the containment
// Sky_U(D) ⊆ Sky(D) it first computes the classical skyline, then removes
// tuples U-dominated by another skyline tuple. For the Full space it reduces
// to Compute.
func ComputeRestricted(ds *dataset.Dataset, space funcspace.Space) ([]int, error) {
	sky := Compute(ds)
	if _, ok := space.(funcspace.Full); ok {
		return sky, nil
	}
	// A tuple is in the U-skyline iff no tuple U-dominates it. Any
	// U-dominator of t is not Pareto-dominated by... it may itself be
	// U-dominated, but U-dominance is transitive on distinct utility
	// profiles, so checking against classical-skyline members suffices:
	// if t' U-dominates t, then some U-skyline member also U-dominates t,
	// and U-skyline members are classical skyline members.
	out := make([]int, 0, len(sky))
	for _, t := range sky {
		dominated := false
		for _, t2 := range sky {
			if t2 == t {
				continue
			}
			dom, err := funcspace.Dominates(space, ds.Row(t2), ds.Row(t))
			if err != nil {
				return nil, err
			}
			if dom {
				dominated = true
				break
			}
		}
		if !dominated {
			out = append(out, t)
		}
	}
	return out, nil
}
