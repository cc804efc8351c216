package skyline

import (
	"reflect"
	"sort"
	"testing"

	"github.com/rankregret/rankregret/internal/dataset"
	"github.com/rankregret/rankregret/internal/funcspace"
	"github.com/rankregret/rankregret/internal/xrand"
)

// tableI is the paper's 7-tuple example; its skyline is {t1,t2,t3,t4,t7} =
// indices {0,1,2,3,6} (t5, t6 are dominated).
func tableI() *dataset.Dataset {
	return dataset.MustFromRows([][]float64{
		{0, 1}, {0.4, 0.95}, {0.57, 0.75}, {0.79, 0.6}, {0.2, 0.5}, {0.35, 0.3}, {1, 0},
	})
}

// bruteSkyline is the O(n^2) reference implementation.
func bruteSkyline(ds *dataset.Dataset) []int {
	var out []int
	for i := 0; i < ds.N(); i++ {
		if !IsDominated(ds, i) {
			out = append(out, i)
		}
	}
	return out
}

func TestTableISkyline(t *testing.T) {
	got := Compute(tableI())
	want := []int{0, 1, 2, 3, 6}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("skyline = %v, want %v", got, want)
	}
}

func TestSkyline2DMatchesBrute(t *testing.T) {
	rng := xrand.New(1)
	for trial := 0; trial < 40; trial++ {
		var ds *dataset.Dataset
		switch trial % 3 {
		case 0:
			ds = dataset.Independent(rng, 60, 2)
		case 1:
			ds = dataset.Correlated(rng, 60, 2)
		default:
			ds = dataset.Anticorrelated(rng, 60, 2)
		}
		got := Compute(ds)
		want := bruteSkyline(ds)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: skyline %v != brute %v", trial, got, want)
		}
	}
}

func TestSkylineHDMatchesBrute(t *testing.T) {
	rng := xrand.New(2)
	for trial := 0; trial < 30; trial++ {
		d := 3 + trial%3
		ds := dataset.Independent(rng, 50, d)
		got := Compute(ds)
		want := bruteSkyline(ds)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d (d=%d): skyline %v != brute %v", trial, d, got, want)
		}
	}
}

func TestSkylineDuplicates(t *testing.T) {
	// Two identical maximal tuples: neither dominates the other, both stay.
	ds := dataset.MustFromRows([][]float64{
		{0.5, 0.5}, {0.9, 0.9}, {0.9, 0.9}, {0.1, 1.0},
	})
	got := Compute(ds)
	want := bruteSkyline(ds)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("duplicate handling: %v, brute %v", got, want)
	}
	found := map[int]bool{}
	for _, i := range got {
		found[i] = true
	}
	if !found[1] || !found[2] {
		t.Errorf("both duplicate maxima must be skyline members: %v", got)
	}
	if found[0] {
		t.Errorf("dominated tuple kept: %v", got)
	}
}

func TestQuarterCircleAllSkyline(t *testing.T) {
	// On the quarter circle no tuple dominates another.
	ds := dataset.QuarterCircle(50, 2)
	if got := Compute(ds); len(got) != 50 {
		t.Errorf("quarter circle skyline size %d, want 50", len(got))
	}
}

func TestCorrelatedSkylineSmallAnticorrelatedLarge(t *testing.T) {
	rng := xrand.New(3)
	corr := Compute(dataset.Correlated(rng, 2000, 2))
	anti := Compute(dataset.Anticorrelated(rng, 2000, 2))
	if len(corr) >= len(anti) {
		t.Errorf("correlated skyline (%d) should be smaller than anti-correlated (%d)", len(corr), len(anti))
	}
}

func TestComputeRestrictedFullReducesToSkyline(t *testing.T) {
	ds := tableI()
	got, err := ComputeRestricted(ds, funcspace.NewFull(2))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, Compute(ds)) {
		t.Errorf("restricted skyline under L = %v, want the skyline", got)
	}
}

func TestComputeRestrictedCone(t *testing.T) {
	// With u0 >= u1 the weight on attribute 0 is at least 1/2, so tuples
	// that are strong on A2 but weak on A1 drop out of the U-skyline.
	ds := tableI()
	cone, err := funcspace.WeakRanking(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ComputeRestricted(ds, cone)
	if err != nil {
		t.Fatal(err)
	}
	// U-skyline must be a subset of the skyline.
	sky := map[int]bool{}
	for _, i := range Compute(ds) {
		sky[i] = true
	}
	for _, i := range got {
		if !sky[i] {
			t.Fatalf("U-skyline member %d not in skyline", i)
		}
	}
	// t1 = (0, 1): under u=(x, 1-x) with x >= 0.5, its utility is 1-x
	// <= 0.5, while t3 = (0.57, 0.75) has utility >= 0.57*0.5 + 0.75*0.5 =
	// 0.66 at x=0.5 and 0.57 at x=1. So t3 U-dominates t1: t1 must be gone.
	for _, i := range got {
		if i == 0 {
			t.Errorf("t1 should be U-dominated under the weak ranking: %v", got)
		}
	}
	if len(got) == 0 || len(got) >= len(Compute(ds)) {
		t.Errorf("restricted skyline size %d should be in (0, skyline size)", len(got))
	}
}

func TestComputeRestrictedAgainstBrute(t *testing.T) {
	// Brute force: check every skyline tuple against every other tuple with
	// sampled directions to confirm no false removals.
	rng := xrand.New(4)
	ds := dataset.Independent(rng, 40, 2)
	cone, err := funcspace.WeakRanking(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ComputeRestricted(ds, cone)
	if err != nil {
		t.Fatal(err)
	}
	inGot := map[int]bool{}
	for _, i := range got {
		inGot[i] = true
	}
	// Every removed skyline tuple must have a dominator among the kept ones
	// confirmed by sampling; every kept one must have none.
	for _, i := range Compute(ds) {
		hasDominator := false
		for _, j := range got {
			if j == i {
				continue
			}
			dom, err := funcspace.Dominates(cone, ds.Row(j), ds.Row(i))
			if err != nil {
				t.Fatal(err)
			}
			if dom {
				hasDominator = true
				break
			}
		}
		if inGot[i] && hasDominator {
			t.Errorf("kept tuple %d is U-dominated", i)
		}
		if !inGot[i] && !hasDominator {
			t.Errorf("removed tuple %d has no U-dominator among kept tuples", i)
		}
	}
	sort.Ints(got)
	if !sort.IntsAreSorted(got) {
		t.Error("restricted skyline must be sorted")
	}
}

// IsDominated reports whether tuple i is Pareto-dominated by any tuple in ds.
func IsDominated(ds *dataset.Dataset, i int) bool {
	row := ds.Row(i)
	for j := 0; j < ds.N(); j++ {
		if j != i && dominates(ds.Row(j), row) {
			return true
		}
	}
	return false
}
