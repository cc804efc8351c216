package algo2d

import (
	"context"
	"encoding/binary"
	"fmt"
	"slices"

	"github.com/rankregret/rankregret/internal/ctxutil"
	"github.com/rankregret/rankregret/internal/dataset"
)

// KSets2D enumerates, exactly, every distinct top-k set ("k-set" in the
// terminology of Asudeh et al. and Edelsbrunner) witnessed by some linear
// utility function over x in [0, 1] of the 2D dual space. The sweep walks
// the line crossings in order; the top-k set changes precisely when a
// crossing swaps the lines ranked k and k+1, so the number of distinct sets
// is one plus the number of such boundary crossings.
//
// Only lines that rank in the top k+1 somewhere can take part in such a
// swap, so the sweep runs over bandIDs' witness-filtered band for the top
// k+1, whose order agrees with the full order on the first k+1 places.
// Runtime is O(b^2 log b) for a band of b lines: b = n only when every line
// reaches the top k+1 (anticorrelated data). It checks ctx before the
// sweep and every few thousand crossings, and returns ctx.Err() if it is
// done.
//
// The collection is what the paper's MDRRR consumes: a hitting set of all
// k-sets is exactly a set with rank-regret at most k for every linear
// function. It exists to make MDRRR exact in 2D and to validate the
// randomized discovery used in HD.
func KSets2D(ctx context.Context, ds *dataset.Dataset, k int) ([][]int, error) {
	n := ds.N()
	if ds.Dim() != 2 {
		return nil, fmt.Errorf("algo2d: KSets2D needs d=2, got %d", ds.Dim())
	}
	if k < 1 || k > n {
		return nil, fmt.Errorf("algo2d: k=%d out of range [1, %d]", k, n)
	}
	if err := ctxutil.Cancelled(ctx); err != nil {
		return nil, err
	}
	lines := dualLines(ds)
	ids, _ := bandIDs(lines, k+1, nil, 0, 1, roundingMargin(marginScale(lines, 0, 1))) // band line -> tuple id; nil = every line
	if ids != nil {
		lines = gather(lines, ids)
	}
	order := initialOrder(lines, 0) // L, which the sweep swaps in place

	seen := map[string]bool{}
	var out [][]int
	record := func() {
		top := slices.Clone(order[:k])
		if ids != nil {
			for i, b := range top {
				top[i] = ids[b]
			}
		}
		slices.Sort(top)
		key := intsKey(top)
		if !seen[key] {
			seen[key] = true
			out = append(out, top)
		}
	}
	record()
	err := neighborSweep(ctx, lines, order, 0, 1, func(_ event, p int) {
		if p == k-1 {
			// The crossing moved a new line into the top k.
			record()
		}
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// intsKey fingerprints a sorted id list, each id in full as a uvarint.
func intsKey(ids []int) string {
	buf := make([]byte, 0, len(ids)*3)
	for _, id := range ids {
		buf = binary.AppendUvarint(buf, uint64(id))
	}
	return string(buf)
}
