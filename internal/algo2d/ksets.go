package algo2d

import (
	"errors"
	"fmt"
	"sort"

	"github.com/rankregret/rankregret/internal/dataset"
	"github.com/rankregret/rankregret/internal/sweep"
)

// KSets2D enumerates, exactly, every distinct top-k set ("k-set" in the
// terminology of Asudeh et al. and Edelsbrunner) witnessed by some linear
// utility function over x in [0, 1] of the 2D dual space. The sweep walks
// all line crossings in order; the top-k set changes precisely when a
// crossing swaps the lines ranked k and k+1, so the number of distinct sets
// is one plus the number of such boundary crossings.
//
// The collection is what the paper's MDRRR consumes: a hitting set of all
// k-sets is exactly a set with rank-regret at most k for every linear
// function. Runtime is O(n^2 log n) like any full sweep; it exists to make
// MDRRR exact in 2D and to validate the randomized discovery used in HD.
func KSets2D(ds *dataset.Dataset, k int) ([][]int, error) {
	n := ds.N()
	if ds.Dim() != 2 {
		return nil, fmt.Errorf("algo2d: KSets2D needs d=2, got %d", ds.Dim())
	}
	if k < 1 || k > n {
		return nil, fmt.Errorf("algo2d: k=%d out of range [1, %d]", k, n)
	}
	lines := dualLines(ds)

	// The mirror starts in the sweep's own strict order at x = 0 (equal
	// value: larger slope first; equal line: smaller index first), so its
	// swaps track NeighborSweep's exactly, tied rows included.
	order := make([]int, n)
	for id, rank := range sweep.InitialRanks(lines, 0) {
		order[rank-1] = id
	}
	pos := make([]int, n)
	for p, id := range order {
		pos[id] = p
	}

	seen := map[string]bool{}
	var out [][]int
	record := func() {
		top := make([]int, k)
		copy(top, order[:k])
		sort.Ints(top)
		key := intsKey(top)
		if !seen[key] {
			seen[key] = true
			out = append(out, top)
		}
	}
	record()

	synced := true
	sweep.NeighborSweep(lines, 0, 1, func(x float64, up, down int) {
		pu, pd := pos[up], pos[down]
		if !synced || pu+1 != pd {
			// NeighborSweep visits only adjacent pairs; the mirror must
			// agree, or nothing it records can be trusted.
			synced = false
			return
		}
		order[pu], order[pd] = down, up
		pos[up], pos[down] = pd, pu
		if pu == k-1 {
			// The crossing moved a new line into the top k.
			record()
		}
	})
	if !synced {
		return nil, errors.New("algo2d: internal: k-set sweep mirror out of sync")
	}
	return out, nil
}

// intsKey fingerprints a sorted id list.
func intsKey(ids []int) string {
	buf := make([]byte, 0, len(ids)*3)
	for _, id := range ids {
		buf = append(buf, byte(id), byte(id>>8), byte(id>>16))
	}
	return string(buf)
}
