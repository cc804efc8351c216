package skyline

import (
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"github.com/rankregret/rankregret/internal/dataset"
	"github.com/rankregret/rankregret/internal/topk"
	"github.com/rankregret/rankregret/internal/xrand"
)

func absI(x int) int {
	if x < 0 {
		if x == -x {
			return 0
		}
		return -x
	}
	return x
}

// bruteSkyband counts always-beaters pairwise, the O(n^2 d) definition.
func bruteSkyband(ds *dataset.Dataset, k int) []int {
	n := ds.N()
	var out []int
	for i := 0; i < n; i++ {
		beaters := 0
		for j := 0; j < n; j++ {
			if j != i && AlwaysBeats(ds.Row(j), ds.Row(i), j, i) {
				beaters++
			}
		}
		if beaters < k {
			out = append(out, i)
		}
	}
	return out
}

// tiedDataset quantizes attribute values so exact ties and duplicate rows —
// the cases the always-beats tie-break logic exists for — are common.
func tiedDataset(seed int64, n, d, levels int) *dataset.Dataset {
	rng := xrand.New(seed)
	ds := dataset.New(d)
	row := make([]float64, d)
	for i := 0; i < n; i++ {
		for j := range row {
			row[j] = float64(rng.Intn(levels)) / float64(levels)
		}
		ds.Append(row)
	}
	return ds
}

// Property: the sort-filter scan agrees with the brute-force definition.
func TestKSkybandAgreesWithBruteForce(t *testing.T) {
	f := func(seed int64, nn, dd, ll, kk int) bool {
		n := absI(nn)%80 + 2
		d := absI(dd)%4 + 1
		ds := tiedDataset(seed, n, d, absI(ll)%5+1)
		k := absI(kk)%(n-1) + 1
		got := KSkyband(ds, k)
		want := bruteSkyband(ds, k)
		return reflect.DeepEqual(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property (the pruning soundness theorem): for any utility vector, the
// top-k list computed over the k-skyband candidates alone is identical to
// the top-k list over the full dataset — ids, order, and tie-breaks.
func TestKSkybandPreservesTopK(t *testing.T) {
	f := func(seed int64, nn, dd, kk int) bool {
		n := absI(nn)%120 + 2
		d := absI(dd)%4 + 1
		ds := tiedDataset(seed, n, d, 4)
		k := absI(kk)%(n-1) + 1
		band := KSkyband(ds, k)
		if band == nil {
			return true // no pruning: trivially sound
		}
		if len(band) < k {
			return false // the band must always hold at least k tuples
		}
		sub := ds.Subset(band)
		rng := xrand.New(seed + 42)
		u := make([]float64, d)
		for trial := 0; trial < 8; trial++ {
			for j := range u {
				u[j] = float64(rng.Intn(3)) / 2 // zeros are the adversarial case
			}
			allZero := true
			for _, w := range u {
				if w != 0 {
					allZero = false
				}
			}
			if allZero {
				u[0] = 1
			}
			want := topk.TopK(ds, u, k, nil)
			subScores := sub.Utilities(u, nil)
			lists, _ := topk.SelectBatch([][]float64{subScores}, band, k, nil)
			mapped := lists[0]
			if !reflect.DeepEqual(mapped, want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestKSkybandEdges(t *testing.T) {
	ds := dataset.MustFromRows([][]float64{{1, 0}, {0, 1}, {1, 1}, {0.5, 0.5}})
	// k >= n: no pruning.
	if got := KSkyband(ds, 4); got != nil {
		t.Errorf("KSkyband(k=n) = %v, want nil", got)
	}
	if got := KSkyband(ds, 0); got != nil {
		t.Errorf("KSkyband(k=0) = %v, want nil", got)
	}
	// k = 1: tuple 3 is always-beaten by tuple 2 (dominating, higher index —
	// but strictly greater everywhere, so the tie-break never saves it).
	got := KSkyband(ds, 1)
	sort.Ints(got)
	if !reflect.DeepEqual(got, []int{0, 1, 2}) {
		t.Errorf("KSkyband(k=1) = %v, want [0 1 2]", got)
	}
}
