package dataset

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/rankregret/rankregret/internal/xrand"
)

func absInt(x int) int {
	if x < 0 {
		if x == -x {
			return 0
		}
		return -x
	}
	return x
}

// sameScore reports whether a batch score is bit-identical to the per-vector
// Utilities score. For d = 2 Utilities sums u0*v0 + u1*v1 without the
// leading zero every other path starts from, so a sum of two -0 terms keeps
// its sign there and becomes +0 in the batch kernel; ±0 compare equal
// everywhere a score is used, and every other bit must match.
func sameScore(got, want float64, d int) bool {
	if d == 2 && got == 0 && want == 0 {
		return true
	}
	return math.Float64bits(got) == math.Float64bits(want)
}

// signedWeight draws a weight that is sometimes negative, zero or -0, so
// the kernel's sign and zero handling is exercised, not only the
// non-negative orthant the solvers use.
func signedWeight(rng *xrand.Rand) float64 {
	switch rng.Intn(6) {
	case 0:
		return 0
	case 1:
		return math.Copysign(0, -1)
	case 2:
		return -rng.Float64() * 3
	default:
		return rng.Float64() * 3
	}
}

// Property: UtilitiesBatch is bit-identical to per-vector Utilities for
// every vector of the tile, at every width d in [1, 10] (the unrolled d = 4
// and d = 5 kernels and the generic loop alike), for negative, zero and -0
// weights, and for n on both sides of utilitiesTupleTile — both accumulate
// attribute terms in the same order and expression form, so the blocked
// kernel is a pure layout change.
func TestUtilitiesBatchBitIdentical(t *testing.T) {
	f := func(seed int64, nn, dd, bb int) bool {
		n := absInt(nn)%(2*utilitiesTupleTile+50) + 1
		d := absInt(dd)%10 + 1
		rng := xrand.New(seed)
		ds := Independent(rng, n, d)
		us := make([][]float64, absInt(bb)%7+1)
		for b := range us {
			us[b] = make([]float64, d)
			for j := range us[b] {
				us[b][j] = signedWeight(rng)
			}
		}
		got := ds.UtilitiesBatch(us, nil)
		for b, u := range us {
			want := ds.Utilities(u, nil)
			for i := range want {
				if !sameScore(got[b][i], want[i], d) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// The kernel must span tuple-tile boundaries correctly.
func TestUtilitiesBatchCrossesTileBoundary(t *testing.T) {
	rng := xrand.New(3)
	ds := Independent(rng, utilitiesTupleTile+37, 3)
	u := []float64{0.2, 1.5, 0.7}
	got := ds.UtilitiesBatch([][]float64{u}, nil)[0]
	want := ds.Utilities(u, nil)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("score %d = %v, want %v", i, got[i], want[i])
		}
	}
}

// Mutation must invalidate the column-major mirror, like the fingerprint.
func TestColumnMajorInvalidatedByMutation(t *testing.T) {
	ds := MustFromRows([][]float64{{1, 2}, {3, 4}})
	u := []float64{1, 1}
	if got := ds.UtilitiesBatch([][]float64{u}, nil)[0]; got[0] != 3 || got[1] != 7 {
		t.Fatalf("pre-mutation scores = %v, want [3 7]", got)
	}
	ds.Append([]float64{5, 6})
	if got := ds.UtilitiesBatch([][]float64{u}, nil)[0]; len(got) != 3 || got[2] != 11 {
		t.Fatalf("post-Append scores = %v, want [3 7 11]", got)
	}
	ds.Negate(0)
	if got := ds.UtilitiesBatch([][]float64{u}, nil)[0]; got[0] != 1 {
		t.Fatalf("post-Negate scores = %v, want [1 1 1]", got)
	}
}

// Buffer reuse: passing the previous dst back must not change results.
func TestUtilitiesBatchReusesDst(t *testing.T) {
	rng := xrand.New(5)
	ds := Independent(rng, 50, 4)
	us := [][]float64{{1, 0, 0, 0}, {0.3, 0.3, 0.3, 0.1}}
	dst := ds.UtilitiesBatch(us, nil)
	again := ds.UtilitiesBatch(us, dst)
	for b := range us {
		want := ds.Utilities(us[b], nil)
		for i := range want {
			if again[b][i] != want[i] {
				t.Fatalf("reused dst score [%d][%d] = %v, want %v", b, i, again[b][i], want[i])
			}
		}
	}
}
