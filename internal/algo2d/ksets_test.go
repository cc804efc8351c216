package algo2d

import (
	"slices"
	"sort"
	"testing"

	"github.com/rankregret/rankregret/internal/dataset"
	"github.com/rankregret/rankregret/internal/topk"
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

// intsKey keeps every bit of each id: sorted lists that differ only above
// bit 23 get different keys.
func TestIntsKeyFullWidth(t *testing.T) {
	for _, tc := range []struct {
		a, b []int
		same bool
	}{
		{[]int{1}, []int{1 + 1<<24}, false},
		{[]int{0, 5}, []int{0, 5 + 1<<30}, false},
		{[]int{7, 1 << 24}, []int{7, 1 << 25}, false},
		{[]int{3, 1<<40 + 3}, []int{3, 1<<41 + 3}, false},
		{[]int{2, 1 << 24}, []int{2, 1 << 24}, true},
	} {
		if same := intsKey(tc.a) == intsKey(tc.b); same != tc.same {
			t.Errorf("intsKey(%v) == intsKey(%v) is %v, want %v", tc.a, tc.b, same, tc.same)
		}
	}
}

// Lines2DAbove reports, for validation, the ids ranked in the top k at a
// specific x in dual space (the top-k set of the utility vector (x, 1-x)).
func Lines2DAbove(ds *dataset.Dataset, x float64, k int) []int {
	lines := dualLines(ds)
	ids := make([]int, len(lines))
	for i := range ids {
		ids[i] = i
	}
	sort.Slice(ids, func(a, b int) bool {
		ya, yb := lines[ids[a]].eval(x), lines[ids[b]].eval(x)
		if ya != yb {
			return ya > yb
		}
		return lines[ids[a]].eval(x+1e-9) > lines[ids[b]].eval(x+1e-9)
	})
	top := ids[:k]
	sort.Ints(top)
	return top
}

// checkKSets2D checks KSets2D(ds, k) against a topk.TopK oracle on the
// utility (x, 1-x). Between two consecutive distinct crossings of any two
// dual lines no two lines swap, so the top-k set at the midpoint is the one
// that holds on the whole open interval: every such set must be enumerated,
// and so must the set at x = 0 when no tie straddles rank k there.
// Conversely, every enumerated set must be the oracle's set at some
// midpoint, or a top-k set (under some tie order) at x = 0, at x = 1 or at a
// crossing, where a sweep that swaps tied lines one pair at a time records
// the orders in between.
func checkKSets2D(t testing.TB, ds *dataset.Dataset, k int) {
	t.Helper()
	sets, err := KSets2D(ds, k)
	if err != nil {
		t.Fatalf("k=%d: %v", k, err)
	}
	enumerated := map[string]bool{}
	for _, s := range sets {
		enumerated[intsKey(s)] = true
	}
	lines := dualLines(ds)
	xs := []float64{0, 1}
	for i := range lines {
		for j := i + 1; j < len(lines); j++ {
			if x, ok := intersectX(lines[i], lines[j]); ok && x > 0 && x < 1 {
				xs = append(xs, x)
			}
		}
	}
	slices.Sort(xs)
	xs = slices.Compact(xs)
	oracle := func(x float64) []int {
		top := topk.TopK(ds, []float64{x, 1 - x}, k, nil)
		sort.Ints(top)
		return top
	}
	// isTopK reports whether set is a top-k set at x under some order of
	// tied lines, up to rounding in the crossing's x.
	isTopK := func(set []int, x float64) bool {
		in := make([]bool, len(lines))
		for _, id := range set {
			in[id] = true
		}
		lo, hi := 0.0, 0.0
		first := [2]bool{true, true}
		for id, l := range lines {
			v := l.eval(x)
			if in[id] && (first[0] || v < lo) {
				lo, first[0] = v, false
			}
			if !in[id] && (first[1] || v > hi) {
				hi, first[1] = v, false
			}
		}
		return first[1] || lo >= hi-1e-9
	}
	witnessed := map[string]bool{}
	for i := 0; i+1 < len(xs); i++ {
		top := oracle((xs[i] + xs[i+1]) / 2)
		witnessed[intsKey(top)] = true
		if !enumerated[intsKey(top)] {
			t.Fatalf("k=%d: top-k set %v on (%v, %v) missing from %v", k, top, xs[i], xs[i+1], sets)
		}
	}
	if scores := ds.Utilities([]float64{0, 1}, nil); k == len(lines) || kthGap(scores, k) {
		if top := oracle(0); !enumerated[intsKey(top)] {
			t.Fatalf("k=%d: top-k set %v at x=0 missing from %v", k, top, sets)
		}
	}
	for _, s := range sets {
		if witnessed[intsKey(s)] {
			continue
		}
		if !slices.ContainsFunc(xs, func(x float64) bool { return isTopK(s, x) }) {
			t.Fatalf("k=%d: enumerated set %v is not a top-k set anywhere in [0, 1]", k, s)
		}
	}
}

// kthGap reports whether the k-th and (k+1)-th largest scores differ.
func kthGap(scores []float64, k int) bool {
	sorted := slices.Clone(scores)
	slices.Sort(sorted)
	slices.Reverse(sorted)
	return sorted[k-1] != sorted[k]
}

// tiedRows returns n rows whose values lie on a half-step grid in [0, 2],
// so rows tie on an attribute, on both, or at a crossing.
func tiedRows(rng *xrand.Rand, n int) [][]float64 {
	rows := make([][]float64, n)
	for i := range rows {
		rows[i] = []float64{float64(rng.Intn(5)) / 2, float64(rng.Intn(5)) / 2}
	}
	return rows
}

// TestKSets2DTiedRows runs the oracle check over 300 seeded tiny datasets
// on a half-step grid, every k. A mirror that orders tied lines unlike the
// sweep fell out of sync on about a quarter of them.
func TestKSets2DTiedRows(t *testing.T) {
	for seed := int64(1); seed <= 300; seed++ {
		rng := xrand.New(seed)
		ds := dataset.MustFromRows(tiedRows(rng, 4+rng.Intn(12)))
		for k := 1; k <= ds.N(); k++ {
			checkKSets2D(t, ds, k)
		}
	}
}

// FuzzKSets2D feeds KSets2D tiny datasets on a half-step grid: the first
// byte picks k, and each following pair of bytes is a row.
func FuzzKSets2D(f *testing.F) {
	f.Add([]byte{2, 0, 0, 0, 0, 1, 1, 2, 2})
	f.Add([]byte{1, 4, 0, 0, 4, 2, 2, 2, 2, 1, 3})
	f.Add([]byte{3, 1, 1, 1, 1, 1, 1, 3, 0, 0, 3})
	f.Fuzz(func(t *testing.T, b []byte) {
		if len(b) < 5 {
			return
		}
		rows := make([][]float64, 0, 15)
		for i := 1; i+1 < len(b) && len(rows) < 15; i += 2 {
			rows = append(rows, []float64{float64(b[i]%5) / 2, float64(b[i+1]%5) / 2})
		}
		ds := dataset.MustFromRows(rows)
		checkKSets2D(t, ds, 1+int(b[0])%ds.N())
	})
}
