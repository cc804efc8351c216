package algo2d

import (
	"sort"
	"testing"

	"github.com/rankregret/rankregret/internal/dataset"
	"github.com/rankregret/rankregret/internal/geom"
	"github.com/rankregret/rankregret/internal/xrand"
)

func TestKSets2DValidation(t *testing.T) {
	ds := dataset.Independent(xrand.New(1), 20, 2)
	if _, err := KSets2D(ds, 0); err == nil {
		t.Error("k=0 should fail")
	}
	if _, err := KSets2D(ds, 21); err == nil {
		t.Error("k>n should fail")
	}
	d3 := dataset.Independent(xrand.New(1), 20, 3)
	if _, err := KSets2D(d3, 2); err == nil {
		t.Error("d=3 should fail")
	}
}

func TestKSets2DTableITop1(t *testing.T) {
	// Top-1 sets over all x are exactly the upper-envelope lines, i.e. the
	// tuples that are best for some utility vector: t1, t3 sometimes?
	// From the dual plot, the envelope consists of l1, l2, l3, l4, l7.
	ds := dataset.TableI()
	sets, err := KSets2D(ds, 1)
	if err != nil {
		t.Fatal(err)
	}
	var tops []int
	for _, s := range sets {
		tops = append(tops, s[0])
	}
	sort.Ints(tops)
	// Every envelope member must be the unique top for some x; collect the
	// truth by dense sampling.
	truth := map[int]bool{}
	for i := 0; i <= 1000; i++ {
		x := float64(i) / 1000
		truth[Lines2DAbove(ds, x, 1)[0]] = true
	}
	if len(tops) != len(truth) {
		t.Fatalf("enumerated top-1 sets %v, dense sampling found %v", tops, truth)
	}
	for _, id := range tops {
		if !truth[id] {
			t.Errorf("enumerated top-1 %d never observed by sampling", id)
		}
	}
}

// TestKSets2DMatchesDenseSampling cross-validates the exact enumeration
// against brute-force sampling of the utility segment.
func TestKSets2DMatchesDenseSampling(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		ds := dataset.Independent(xrand.New(seed), 40, 2)
		for _, k := range []int{1, 2, 5} {
			sets, err := KSets2D(ds, k)
			if err != nil {
				t.Fatal(err)
			}
			enumerated := map[string]bool{}
			for _, s := range sets {
				enumerated[intsKey(s)] = true
			}
			// Every sampled top-k set must have been enumerated.
			for i := 0; i <= 2000; i++ {
				x := float64(i) / 2000
				top := Lines2DAbove(ds, x, k)
				if !enumerated[intsKey(top)] {
					t.Fatalf("seed %d k=%d: top-k at x=%v missing from enumeration", seed, k, x)
				}
			}
		}
	}
}

// TestKSetHittingSetIsRankRegretSet: a set hitting every k-set has exact
// rank-regret <= k — the foundation of MDRRR.
func TestKSetHittingSetIsRankRegretSet(t *testing.T) {
	ds := dataset.Anticorrelated(xrand.New(5), 100, 2)
	const k = 4
	sets, err := KSets2D(ds, k)
	if err != nil {
		t.Fatal(err)
	}
	// Greedy hitting set (simple counting variant, enough for the test).
	remaining := make([][]int, len(sets))
	copy(remaining, sets)
	var chosen []int
	for len(remaining) > 0 {
		count := map[int]int{}
		for _, s := range remaining {
			for _, id := range s {
				count[id]++
			}
		}
		best, bestC := -1, -1
		for id, c := range count {
			if c > bestC || (c == bestC && id < best) {
				best, bestC = id, c
			}
		}
		chosen = append(chosen, best)
		var next [][]int
		for _, s := range remaining {
			hit := false
			for _, id := range s {
				if id == best {
					hit = true
					break
				}
			}
			if !hit {
				next = append(next, s)
			}
		}
		remaining = next
	}
	got, err := ExactRankRegret(ds, chosen, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got > k {
		t.Errorf("hitting set of all %d-sets has exact rank-regret %d", k, got)
	}
}

// The number of distinct k-sets grows super-linearly in n (its best known
// lower bound is n * exp(Omega(sqrt(log k))) for the k-level complexity;
// Toth 2000), which is why MDRRR and MDRRRr do not scale.
func TestKSetCount2DGrowsWithN(t *testing.T) {
	small := dataset.Anticorrelated(xrand.New(7), 50, 2)
	large := dataset.Anticorrelated(xrand.New(7), 400, 2)
	smallSets, err := KSets2D(small, 3)
	if err != nil {
		t.Fatal(err)
	}
	largeSets, err := KSets2D(large, 3)
	if err != nil {
		t.Fatal(err)
	}
	if cs, cl := len(smallSets), len(largeSets); cl <= cs {
		t.Errorf("k-set count did not grow with n: %d (n=50) vs %d (n=400)", cs, cl)
	}
}

// Lines2DAbove reports, for validation, the ids ranked in the top k at a
// specific x in dual space (the top-k set of the utility vector (x, 1-x)).
func Lines2DAbove(ds *dataset.Dataset, x float64, k int) []int {
	lines := Lines(ds)
	ids := make([]int, len(lines))
	for i := range ids {
		ids[i] = i
	}
	sort.Slice(ids, func(a, b int) bool {
		ya, yb := lines[ids[a]].Eval(x), lines[ids[b]].Eval(x)
		if ya != yb {
			return ya > yb
		}
		return geom.Above(lines[ids[a]], lines[ids[b]], x+1e-9)
	})
	top := ids[:k]
	sort.Ints(top)
	return top
}
