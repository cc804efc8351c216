package topk

import (
	"reflect"
	"testing"
	"testing/quick"

	"github.com/rankregret/rankregret/internal/dataset"
	"github.com/rankregret/rankregret/internal/xrand"
)

// scoresAsDataset wraps raw scores as a 1-attribute dataset whose utility
// under u = (1) is exactly the score, so TopK can serve as the reference
// selection over an arbitrary score slice.
func scoresAsDataset(scores []float64) *dataset.Dataset {
	rows := make([][]float64, len(scores))
	for i, s := range scores {
		rows[i] = []float64{s}
	}
	return dataset.MustFromRows(rows)
}

// tiedScores returns n scores quantized to few distinct values, so exact
// ties — the case the deterministic tie-break exists for — are common.
func tiedScores(seed int64, n, levels int) []float64 {
	rng := xrand.New(seed)
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(rng.Intn(levels)) / float64(levels)
	}
	return out
}

// selectOne is SelectBatch over the single row scores.
func selectOne(scores []float64, ids []int, k int) []int {
	lists, _ := SelectBatch([][]float64{scores}, ids, k, nil)
	return lists[0]
}

// heapSelect is the reference: the package's heap-based selection over a raw
// score slice, via the same code path TopK uses.
func heapSelect(scores []float64, k int) []int {
	ds := scoresAsDataset(scores)
	return TopK(ds, []float64{1}, k, nil)
}

// Property: SelectBatch on one row agrees exactly with the heap-based TopK — same ids, same
// order, including tie-breaks — on heavily tied data at every k.
func TestSelectAgreesWithTopK(t *testing.T) {
	f := func(seed int64, nn, ll, kk int) bool {
		n := abs(nn)%120 + 1
		levels := abs(ll)%6 + 1
		scores := tiedScores(seed, n, levels)
		k := abs(kk)%(n+2) + 1 // occasionally exceeds n: both must clamp
		got := selectOne(scores, nil, k)
		want := heapSelect(scores, k)
		return reflect.DeepEqual(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

// Property: selecting over a candidate subset with an ascending id mapping
// equals filtering the full selection to those candidates.
func TestSelectSubsetMapping(t *testing.T) {
	f := func(seed int64, nn, kk int) bool {
		n := abs(nn)%100 + 4
		scores := tiedScores(seed, n, 5)
		rng := xrand.New(seed + 1)
		var ids []int
		var sub []float64
		for i := 0; i < n; i++ {
			if rng.Intn(3) > 0 {
				ids = append(ids, i)
				sub = append(sub, scores[i])
			}
		}
		if len(ids) == 0 {
			return true
		}
		k := abs(kk)%len(ids) + 1
		got := selectOne(sub, ids, k)
		// Reference: full selection restricted to the candidate ids.
		keep := make(map[int]bool, len(ids))
		for _, id := range ids {
			keep[id] = true
		}
		var want []int
		for _, id := range selectOne(scores, nil, n) {
			if keep[id] {
				want = append(want, id)
			}
			if len(want) == k {
				break
			}
		}
		return reflect.DeepEqual(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: a multi-row SelectBatch equals one call per row.
func TestSelectBatchAgreesWithSelect(t *testing.T) {
	f := func(seed int64, nn, bb, kk int) bool {
		n := abs(nn)%60 + 1
		rows := make([][]float64, abs(bb)%5+1)
		for b := range rows {
			rows[b] = tiedScores(seed+int64(b), n, 4)
		}
		k := abs(kk)%n + 1
		var scratch []int
		var got [][]int
		got, scratch = SelectBatch(rows, nil, k, scratch)
		if _, again := SelectBatch(rows, nil, k, scratch); again == nil && n > 0 {
			return false // scratch must come back for reuse
		}
		for b, row := range rows {
			if !reflect.DeepEqual(got[b], selectOne(row, nil, k)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSelectEdgeCases(t *testing.T) {
	if got := selectOne(nil, nil, 3); got != nil {
		t.Errorf("selectOne(nil) = %v, want nil", got)
	}
	if got := selectOne([]float64{1, 2}, nil, 0); got != nil {
		t.Errorf("selectOne(k=0) = %v, want nil", got)
	}
	got := selectOne([]float64{5, 5, 5}, nil, 5)
	if !reflect.DeepEqual(got, []int{0, 1, 2}) {
		t.Errorf("all-tied selectOne = %v, want [0 1 2]", got)
	}
}

// Property: SelectBatch seeds each row's scan with the previous row's
// winners, and that must never change an answer. Every row equals the
// heap-based TopK on its own, whether the rows of a batch are unrelated
// (seeds are arbitrary), identical (seeds are exactly the answer), or all
// tied (seeds tie with everything and only positions decide), at k in both
// the scan and the quickselect regime, with and without an id mapping.
func TestSelectBatchSeededAgreesWithTopK(t *testing.T) {
	f := func(seed int64, nn, bb, kk, shape uint8, mapped bool) bool {
		n := int(nn)%300 + 1
		rng := xrand.New(seed)
		rows := make([][]float64, int(bb)%9+1)
		for b := range rows {
			switch shape % 3 {
			case 0: // unrelated
				rows[b] = tiedScores(seed+int64(b), n, int(shape)%50+2)
			case 1: // identical
				if b == 0 {
					rows[b] = tiedScores(seed, n, int(shape)%50+2)
				} else {
					rows[b] = rows[0]
				}
			default: // all tied
				rows[b] = make([]float64, n)
				for i := range rows[b] {
					rows[b][i] = 0.5
				}
			}
		}
		k := int(kk)%n + 1
		var ids []int
		if mapped {
			ids = make([]int, n)
			next := 0
			for i := range ids {
				next += 1 + rng.Intn(3)
				ids[i] = next
			}
		}
		got, _ := SelectBatch(rows, ids, k, nil)
		for b, row := range rows {
			want := heapSelect(row, k)
			if ids != nil {
				for i, p := range want {
					want[i] = ids[p]
				}
			}
			if !reflect.DeepEqual(got[b], want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

// FuzzSelectBatch checks SelectBatch against the heap-based TopK on
// fuzzer-chosen batches: the first byte picks k, the second the row count,
// and each further byte is a score on a coarse grid (ties are common). One
// scratch buffer is carried across two calls, as the scoring pass does.
func FuzzSelectBatch(f *testing.F) {
	f.Add([]byte{3, 2, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	f.Add([]byte{1, 1, 5, 5, 5, 5, 5, 5})
	f.Add([]byte{200, 3, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		nr := int(data[1])%6 + 1
		n := (len(data) - 2) / nr
		if n == 0 {
			return
		}
		k := int(data[0])%(n+2) + 1 // occasionally past n: both must clamp
		rows := make([][]float64, nr)
		for b := range rows {
			rows[b] = make([]float64, n)
			for i := range rows[b] {
				rows[b][i] = float64(data[2+b*n+i]%16) / 4
			}
		}
		var scratch []int
		for pass := 0; pass < 2; pass++ {
			var got [][]int
			got, scratch = SelectBatch(rows, nil, k, scratch)
			for b, row := range rows {
				if want := heapSelect(row, k); !reflect.DeepEqual(got[b], want) {
					t.Fatalf("pass %d row %d: SelectBatch %v, TopK %v", pass, b, got[b], want)
				}
			}
		}
	})
}
