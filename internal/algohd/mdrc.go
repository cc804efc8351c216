package algohd

import (
	"context"
	"fmt"
	"math"

	"github.com/rankregret/rankregret/internal/ctxutil"
	"github.com/rankregret/rankregret/internal/dataset"
	"github.com/rankregret/rankregret/internal/geom"
	"github.com/rankregret/rankregret/internal/topk"
)

// MDRCCtx is the space-partitioning heuristic of Asudeh et al.: partition the
// (d-1)-dimensional angle space into g^(d-1) equal cells, take the top-1
// tuple at each cell's center ray, and return the deduplicated union. The
// cell count is grown until the next refinement would exceed the budget r.
// Fast, but with no guarantee on rank-regret — on anti-correlated data its
// output quality collapses, exactly as the paper's experiments show.
//
// MDRC has no restricted-space variant (the paper notes it is "not
// applicable for RRRM"): the fixed rectangular partition of the full angle
// space is baked into the method.
//
// It checks ctx in the cell enumeration.
func MDRCCtx(ctx context.Context, ds *dataset.Dataset, r int) (Result, error) {
	n, d := ds.N(), ds.Dim()
	if n == 0 {
		return Result{}, fmt.Errorf("algohd: empty dataset")
	}
	if r < 1 {
		return Result{}, fmt.Errorf("algohd: output size %d, need >= 1", r)
	}
	nAngles := d - 1
	if nAngles < 1 {
		return Result{IDs: []int{0}, K: 0, VecCount: 1}, nil
	}

	tops := func(g int) ([]int, error) {
		// Centers of a g^(d-1) partition of [0, pi/2]^(d-1).
		step := math.Pi / 2 / float64(g)
		idx := make([]int, nAngles)
		theta := make([]float64, nAngles)
		scores := make([]float64, n)
		var ids []int
		for {
			if len(ids)%1024 == 0 {
				if err := ctxutil.Cancelled(ctx); err != nil {
					return nil, err
				}
			}
			for i, z := range idx {
				theta[i] = (float64(z) + 0.5) * step
			}
			u := geom.PolarToCartesian(theta)
			ids = append(ids, topk.TopK(ds, u, 1, scores)[0])
			i := 0
			for ; i < nAngles; i++ {
				idx[i]++
				if idx[i] < g {
					break
				}
				idx[i] = 0
			}
			if i == nAngles {
				break
			}
		}
		return uniqueInts(ids), nil
	}

	// Double the per-angle resolution until the dedup'd set exceeds the
	// budget (the paper's stop) or the grid stops paying for itself. The
	// cell cap bounds total work at O(cap * n * d): a partition much finer
	// than the budget cannot add tuples that fit it.
	maxCells := 64 * r
	if maxCells < 4096 {
		maxCells = 4096
	}
	best, err := tops(1)
	if err != nil {
		return Result{}, err
	}
	cells := 1
	for g := 2; intPow(g, nAngles) <= maxCells; g *= 2 {
		s, err := tops(g)
		if err != nil {
			return Result{}, err
		}
		if len(s) > r {
			break
		}
		best = s
		cells = intPow(g, nAngles)
		if len(s) == r {
			break
		}
	}
	return Result{IDs: best, K: 0, VecCount: cells}, nil
}

func intPow(b, e int) int {
	out := 1
	for i := 0; i < e; i++ {
		out *= b
		if out > 1<<30 {
			return 1 << 30
		}
	}
	return out
}
