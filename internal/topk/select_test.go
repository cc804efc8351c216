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

// rowSeeds returns explicit per-row seeds for SelectBatchSeeded: per row,
// mode picks nil (the previous row's winners), the k worst positions, the
// row's own answer, or k distinct positions drawn from rng.
func rowSeeds(rows [][]float64, k int, modes []byte, rng *xrand.Rand) [][]int {
	seeds := make([][]int, len(rows))
	for b, row := range rows {
		n := len(row)
		if k > n {
			continue
		}
		switch modes[b%len(modes)] % 4 {
		case 1: // worst: the k last positions of the full ranking
			seeds[b] = heapSelect(row, n)[n-k:]
		case 2: // the answer itself
			seeds[b] = heapSelect(row, k)
		case 3: // arbitrary distinct positions
			perm := make([]int, n)
			for i := range perm {
				perm[i] = i
			}
			for i := 0; i < k; i++ {
				j := i + rng.Intn(n-i)
				perm[i], perm[j] = perm[j], perm[i]
			}
			seeds[b] = perm[:k]
		}
	}
	return seeds
}

// Property: seeding never changes an answer. Every row equals the
// heap-based TopK on its own, whether its heap starts from the previous
// row's winners or from explicit seeds (nil rows mixed with seeded ones;
// the worst positions; the answer itself; arbitrary positions), and whether
// the rows of a batch are unrelated, identical, or all tied (seeds tie with
// everything and only positions decide), at k in both the scan and the
// quickselect regime, with and without an id mapping.
func TestSelectBatchSeededAgreesWithTopK(t *testing.T) {
	f := func(seed int64, nn, bb, kk, shape uint8, mapped bool, modes []byte) bool {
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
		var seeds [][]int
		if len(modes) > 0 {
			seeds = rowSeeds(rows, k, modes, rng)
		}
		got, _ := SelectBatchSeeded(rows, ids, k, seeds, nil)
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
	if err := quick.Check(f, &quick.Config{MaxCount: 600}); err != nil {
		t.Fatal(err)
	}
}

// FuzzSelectBatch checks SelectBatchSeeded against the heap-based TopK on
// fuzzer-chosen batches: the first byte picks k, the second the row count,
// the third the per-row seed modes of rowSeeds (two bits a row, 0 for the
// previous row's winners) and the id mapping (its top bit), and each
// further byte is a score on a coarse grid (ties are common). One scratch
// buffer is carried across two calls, as the scoring pass does; the second
// call goes through SelectBatch, which seeds every row from the one before.
func FuzzSelectBatch(f *testing.F) {
	f.Add([]byte{3, 2, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	f.Add([]byte{1, 1, 0, 5, 5, 5, 5, 5, 5})
	f.Add([]byte{200, 3, 0, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0, 0, 0})
	f.Add([]byte{2, 3, 0b10_01_11, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0, 0, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30, 31, 32, 33})
	f.Add([]byte{1, 2, 0b1000_01_01, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		nr := int(data[1])%6 + 1
		n := (len(data) - 3) / nr
		if n == 0 {
			return
		}
		k := int(data[0])%(n+2) + 1 // occasionally past n: both must clamp
		rows := make([][]float64, nr)
		for b := range rows {
			rows[b] = make([]float64, n)
			for i := range rows[b] {
				rows[b][i] = float64(data[3+b*n+i]%16) / 4
			}
		}
		modes := make([]byte, nr)
		for b := range modes {
			modes[b] = data[2] >> (2 * (b % 3)) & 3
		}
		var ids []int
		if data[2]&0x80 != 0 {
			ids = make([]int, n)
			for i := range ids {
				ids[i] = 3*i + int(data[3+i]%3)
			}
		}
		seeds := rowSeeds(rows, k, modes, xrand.New(int64(data[2])))
		var scratch []int
		for pass := 0; pass < 2; pass++ {
			var got [][]int
			if pass == 0 {
				got, scratch = SelectBatchSeeded(rows, ids, k, seeds, scratch)
			} else {
				got, scratch = SelectBatch(rows, ids, k, scratch)
			}
			for b, row := range rows {
				want := heapSelect(row, k)
				for i, p := range want {
					if ids != nil {
						want[i] = ids[p]
					}
				}
				if !reflect.DeepEqual(got[b], want) {
					t.Fatalf("pass %d row %d: got %v, TopK %v", pass, b, got[b], want)
				}
			}
		}
	})
}
