package topk

import (
	"math"
	"reflect"
	"sort"
	"testing"

	"github.com/rankregret/rankregret/internal/dataset"
	"github.com/rankregret/rankregret/internal/xrand"
)

func tableI() *dataset.Dataset {
	return dataset.MustFromRows([][]float64{
		{0, 1}, {0.4, 0.95}, {0.57, 0.75}, {0.79, 0.6}, {0.2, 0.5}, {0.35, 0.3}, {1, 0},
	})
}

// bruteTopK sorts all scores descending (index tie-break) and takes k.
func bruteTopK(ds *dataset.Dataset, u []float64, k int) []int {
	n := ds.N()
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i
	}
	s := ds.Utilities(u, nil)
	sort.Slice(ids, func(a, b int) bool {
		ia, ib := ids[a], ids[b]
		if s[ia] != s[ib] {
			return s[ia] > s[ib]
		}
		return ia < ib
	})
	if k > n {
		k = n
	}
	return ids[:k]
}

func TestTopKTableI(t *testing.T) {
	ds := tableI()
	u := []float64{0.5, 0.5}
	// Utilities: t1 .5, t2 .675, t3 .66, t4 .695, t5 .35, t6 .325, t7 .5.
	got := TopK(ds, u, 3, nil)
	want := []int{3, 1, 2}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("TopK = %v, want %v", got, want)
	}
}

func TestTopKMatchesBrute(t *testing.T) {
	rng := xrand.New(1)
	for trial := 0; trial < 60; trial++ {
		d := 2 + trial%4
		ds := dataset.Independent(rng, 40, d)
		u := rng.UnitOrthantDirection(d)
		k := 1 + rng.Intn(12)
		got := TopK(ds, u, k, nil)
		want := bruteTopK(ds, u, k)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: TopK(k=%d) = %v, want %v", trial, k, got, want)
		}
	}
}

func TestTopKEdgeCases(t *testing.T) {
	ds := tableI()
	u := []float64{1, 0}
	if got := TopK(ds, u, 0, nil); got != nil {
		t.Errorf("k=0 should give nil, got %v", got)
	}
	got := TopK(ds, u, 100, nil)
	if len(got) != ds.N() {
		t.Errorf("k>n should give full ranking, got %d ids", len(got))
	}
	if got[0] != 6 {
		t.Errorf("best under (1,0) should be t7 (index 6), got %d", got[0])
	}
}

func TestTopKTies(t *testing.T) {
	ds := dataset.MustFromRows([][]float64{
		{0.5, 0.5}, {0.5, 0.5}, {0.5, 0.5}, {0.9, 0.9},
	})
	u := []float64{0.5, 0.5}
	got := TopK(ds, u, 3, nil)
	// Best is index 3; tied 0.5s break by index: 0 then 1.
	want := []int{3, 0, 1}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("tie handling: %v, want %v", got, want)
	}
}

func TestKthScore(t *testing.T) {
	ds := tableI()
	u := []float64{0.5, 0.5}
	if got := KthScore(ds, u, 1, nil); math.Abs(got-0.695) > 1e-12 {
		t.Errorf("1st score = %v, want 0.695", got)
	}
	if got := KthScore(ds, u, 3, nil); math.Abs(got-0.66) > 1e-12 {
		t.Errorf("3rd score = %v, want 0.66", got)
	}
}

func TestRank(t *testing.T) {
	ds := tableI()
	u := []float64{0.25, 0.75}
	// From the paper (Figure 4): rank of t1 at x=0.25 is 2.
	if got := Rank(ds, u, 0, nil); got != 2 {
		t.Errorf("rank of t1 under (0.25,0.75) = %d, want 2", got)
	}
	// The top tuple has rank 1.
	best := TopK(ds, u, 1, nil)[0]
	if got := Rank(ds, u, best, nil); got != 1 {
		t.Errorf("rank of best = %d, want 1", got)
	}
	// Worst tuple has rank n.
	full := FullRanking(ds, u, nil)
	worst := full[len(full)-1]
	if got := Rank(ds, u, worst, nil); got != ds.N() {
		t.Errorf("rank of worst = %d, want %d", got, ds.N())
	}
}

func TestRankConsistentWithFullRanking(t *testing.T) {
	rng := xrand.New(2)
	ds := dataset.Anticorrelated(rng, 30, 3)
	u := rng.UnitOrthantDirection(3)
	full := FullRanking(ds, u, nil)
	for pos, id := range full {
		if got := Rank(ds, u, id, nil); got != pos+1 {
			t.Fatalf("Rank(%d) = %d, want %d", id, got, pos+1)
		}
	}
}

func TestRankOfSet(t *testing.T) {
	ds := tableI()
	u := []float64{0.5, 0.5}
	// Set {t1, t3}: best is t3 (0.66) with rank 3 (t4, t2 outrank).
	if got := RankOfSet(ds, u, []int{0, 2}, nil); got != 3 {
		t.Errorf("RankOfSet = %d, want 3", got)
	}
	// Any set containing the top tuple has rank 1.
	if got := RankOfSet(ds, u, []int{3, 0}, nil); got != 1 {
		t.Errorf("RankOfSet with best = %d, want 1", got)
	}
	// Singleton equals Rank.
	for i := 0; i < ds.N(); i++ {
		if RankOfSet(ds, u, []int{i}, nil) != Rank(ds, u, i, nil) {
			t.Errorf("singleton RankOfSet != Rank for %d", i)
		}
	}
}

func TestRankOfSetMonotone(t *testing.T) {
	// Adding tuples can only improve (lower) the rank.
	rng := xrand.New(3)
	ds := dataset.Independent(rng, 50, 3)
	u := rng.UnitOrthantDirection(3)
	set := []int{7}
	prev := RankOfSet(ds, u, set, nil)
	for _, add := range []int{3, 12, 44, 21} {
		set = append(set, add)
		cur := RankOfSet(ds, u, set, nil)
		if cur > prev {
			t.Fatalf("rank increased from %d to %d after adding a tuple", prev, cur)
		}
		prev = cur
	}
}

func TestScratchReuse(t *testing.T) {
	ds := tableI()
	u := []float64{0.3, 0.7}
	buf := make([]float64, ds.N())
	a := TopK(ds, u, 3, buf)
	b := TopK(ds, u, 3, nil)
	if !reflect.DeepEqual(a, b) {
		t.Error("scratch buffer changed the result")
	}
}

// FullRanking returns all tuple indices ordered best-first under u.
func FullRanking(ds *dataset.Dataset, u []float64, scores []float64) []int {
	return TopK(ds, u, ds.N(), scores)
}
