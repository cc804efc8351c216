package setcover

import (
	"container/heap"
	"context"
	"slices"
	"testing"

	"github.com/rankregret/rankregret/internal/xrand"
)

func TestGreedySimple(t *testing.T) {
	sets := [][]int{
		{0, 1, 2},
		{2, 3},
		{3, 4, 5},
		{0, 5},
	}
	chosen, ok := Greedy(6, sets)
	if !ok {
		t.Fatal("coverable instance reported uncoverable")
	}
	if CoverSize(6, sets, chosen) != 6 {
		t.Fatalf("chosen %v does not cover", chosen)
	}
	if len(chosen) > 2 {
		t.Errorf("greedy used %d sets, optimal is 2 (%v)", len(chosen), chosen)
	}
}

func TestGreedyPicksLargestFirst(t *testing.T) {
	sets := [][]int{
		{0},
		{0, 1, 2, 3, 4},
		{1, 2},
	}
	chosen, ok := Greedy(5, sets)
	if !ok || len(chosen) != 1 || chosen[0] != 1 {
		t.Errorf("chosen = %v, want [1]", chosen)
	}
}

func TestGreedyUncoverable(t *testing.T) {
	sets := [][]int{{0, 1}, {1, 2}}
	chosen, ok := Greedy(5, sets)
	if ok {
		t.Error("uncoverable instance reported covered")
	}
	if CoverSize(5, sets, chosen) != 3 {
		t.Errorf("partial cover should still cover elements 0-2, chose %v", chosen)
	}
}

func TestGreedyEmptyUniverse(t *testing.T) {
	chosen, ok := Greedy(0, [][]int{{0}})
	if !ok || len(chosen) != 0 {
		t.Errorf("empty universe: %v, %v", chosen, ok)
	}
}

func TestGreedyEmptySets(t *testing.T) {
	chosen, ok := Greedy(2, [][]int{{}, {0, 1}, {}})
	if !ok || len(chosen) != 1 || chosen[0] != 1 {
		t.Errorf("empty sets mishandled: %v, %v", chosen, ok)
	}
}

func TestGreedyDuplicateElements(t *testing.T) {
	// Sets may repeat elements; coverage counting must not double count.
	sets := [][]int{{0, 0, 1}, {1, 1, 2, 2}}
	chosen, ok := Greedy(3, sets)
	if !ok || CoverSize(3, sets, chosen) != 3 {
		t.Errorf("duplicates broke coverage: %v %v", chosen, ok)
	}
}

// Greedy's guarantee: at most (1 + ln u) times optimal. We can't know the
// optimum for random instances, but we can verify the cover is valid, and
// on instances with a known small cover the ratio holds.
func TestGreedyRandomValid(t *testing.T) {
	rng := xrand.New(1)
	for trial := 0; trial < 50; trial++ {
		u := 20 + rng.Intn(200)
		nsets := 5 + rng.Intn(40)
		sets := make([][]int, nsets)
		for i := range sets {
			sz := 1 + rng.Intn(u/2)
			s := make([]int, sz)
			for j := range s {
				s[j] = rng.Intn(u)
			}
			sets[i] = s
		}
		chosen, ok := Greedy(u, sets)
		covered := CoverSize(u, sets, chosen)
		total := CoverSize(u, sets, allIndices(nsets))
		if ok && covered != u {
			t.Fatalf("trial %d: ok but covered %d < %d", trial, covered, u)
		}
		if !ok && covered != total {
			t.Fatalf("trial %d: not ok but covered %d != max coverable %d", trial, covered, total)
		}
		// No chosen set may be fully redundant at selection time — implied
		// by greedy, but verify no zero-gain selections happened: removing
		// the last chosen set must lose coverage.
		if len(chosen) > 0 {
			without := CoverSize(u, sets, chosen[:len(chosen)-1])
			if without == covered {
				t.Fatalf("trial %d: last selection had zero gain", trial)
			}
		}
	}
}

func TestGreedyKnownOptimumRatio(t *testing.T) {
	// Universe covered by 3 disjoint blocks plus many small decoys.
	rng := xrand.New(2)
	u := 300
	sets := [][]int{{}, {}, {}}
	for e := 0; e < u; e++ {
		sets[e%3] = append(sets[e%3], e)
	}
	for i := 0; i < 50; i++ {
		s := []int{rng.Intn(u), rng.Intn(u)}
		sets = append(sets, s)
	}
	chosen, ok := Greedy(u, sets)
	if !ok {
		t.Fatal("should cover")
	}
	if len(chosen) != 3 {
		t.Errorf("greedy chose %d sets; disjoint optimum is 3", len(chosen))
	}
}

func allIndices(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// refHeap and referenceGreedy are the lazy greedy as it was before the heap
// was typed, kept verbatim apart from their names: container/heap over
// parallel gain/id slices, with boxed entries. Its tie order is the one
// GreedyCtx must reproduce, since among equal gains it decides which set,
// and so which tuple, ASMS chooses.
type refHeap struct {
	gain []int // cached gain per entry
	id   []int // set index per entry
}

func (h *refHeap) Len() int           { return len(h.id) }
func (h *refHeap) Less(a, b int) bool { return h.gain[a] > h.gain[b] }
func (h *refHeap) Swap(a, b int) {
	h.gain[a], h.gain[b] = h.gain[b], h.gain[a]
	h.id[a], h.id[b] = h.id[b], h.id[a]
}
func (h *refHeap) Push(x any) {
	e := x.([2]int)
	h.gain = append(h.gain, e[0])
	h.id = append(h.id, e[1])
}
func (h *refHeap) Pop() any {
	n := len(h.id) - 1
	e := [2]int{h.gain[n], h.id[n]}
	h.gain = h.gain[:n]
	h.id = h.id[:n]
	return e
}

func referenceGreedy(ctx context.Context, universe int, sets [][]int) (chosen []int, ok bool, err error) {
	if universe == 0 {
		return nil, true, nil
	}
	covered := make([]bool, universe)
	remaining := universe

	h := &refHeap{}
	for i, s := range sets {
		if len(s) > 0 {
			h.gain = append(h.gain, len(s))
			h.id = append(h.id, i)
		}
	}
	heap.Init(h)

	fresh := func(i int) int {
		g := 0
		for _, e := range sets[i] {
			if !covered[e] {
				g++
			}
		}
		return g
	}

	const checkEvery = 64
	iter := 0
	for remaining > 0 && h.Len() > 0 {
		if ctx != nil {
			if iter%checkEvery == 0 {
				select {
				case <-ctx.Done():
					return chosen, false, ctx.Err()
				default:
				}
			}
			iter++
		}
		top := heap.Pop(h).([2]int)
		gain, id := top[0], top[1]
		g := fresh(id)
		if g == 0 {
			continue
		}
		if g < gain && h.Len() > 0 && h.gain[0] > g {
			// Stale: push back with the corrected gain and retry.
			heap.Push(h, [2]int{g, id})
			continue
		}
		// Select id.
		chosen = append(chosen, id)
		for _, e := range sets[id] {
			if !covered[e] {
				covered[e] = true
				remaining--
			}
		}
	}
	return chosen, remaining == 0, nil
}

// toInt32 copies int sets into int32 sets.
func toInt32(sets [][]int) [][]int32 {
	out := make([][]int32, len(sets))
	for i, s := range sets {
		out[i] = make([]int32, len(s))
		for j, e := range s {
			out[i][j] = int32(e)
		}
	}
	return out
}

// requireReferenceOrder runs GreedyCtx over sets as int and as int32 ids
// and requires both to choose exactly what referenceGreedy chooses, in the
// same order, with the same ok.
func requireReferenceOrder(t *testing.T, universe int, sets [][]int) (chosen []int, ok bool) {
	t.Helper()
	want, wantOK, _ := referenceGreedy(t.Context(), universe, sets)
	got, gotOK, err := GreedyCtx(t.Context(), universe, sets)
	if err != nil || !slices.Equal(got, want) || gotOK != wantOK {
		t.Fatalf("int sets: chose %v (ok %v, err %v), reference %v (ok %v)", got, gotOK, err, want, wantOK)
	}
	got32, ok32, err := GreedyCtx(t.Context(), universe, toInt32(sets))
	if err != nil || !slices.Equal(got32, want) || ok32 != wantOK {
		t.Fatalf("int32 sets: chose %v (ok %v, err %v), reference %v (ok %v)", got32, ok32, err, want, wantOK)
	}
	return want, wantOK
}

// TestGreedyTieOrder pins the order in which the typed heap surfaces sets
// of equal gain against the container/heap reference, and the choices the
// reference makes on small hand-checked instances.
func TestGreedyTieOrder(t *testing.T) {
	tests := []struct {
		name     string
		universe int
		sets     [][]int
		want     []int
		wantOK   bool
	}{
		{
			name:     "singletons of equal gain",
			universe: 4,
			sets:     [][]int{{0}, {1}, {2}, {3}},
			want:     []int{0, 3, 2, 1},
			wantOK:   true,
		},
		{
			name:     "equal gains that overlap",
			universe: 6,
			sets:     [][]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 0}},
			want:     []int{0, 4, 2},
			wantOK:   true,
		},
		{
			name:     "stale gains tie with fresh ones",
			universe: 6,
			sets:     [][]int{{0, 1, 2}, {2, 3, 4}, {0, 3, 5}, {1, 4, 5}},
			want:     []int{0, 1, 3},
			wantOK:   true,
		},
		{
			name:     "empty sets among equal gains",
			universe: 3,
			sets:     [][]int{{}, {0}, {}, {1}, {2}, {}},
			want:     []int{1, 4, 3},
			wantOK:   true,
		},
		{
			name:     "duplicate sets",
			universe: 4,
			sets:     [][]int{{0, 1}, {2, 3}, {0, 1}, {2, 3}, {0, 1}},
			want:     []int{0, 3},
			wantOK:   true,
		},
		{
			name:     "repeated elements inside a set",
			universe: 3,
			sets:     [][]int{{0, 0, 0}, {1, 2}, {2, 2, 1}},
			want:     []int{0, 2},
			wantOK:   true,
		},
		{
			name:     "uncoverable universe",
			universe: 5,
			sets:     [][]int{{0, 1}, {1, 2}, {3}},
			want:     []int{0, 1, 2},
			wantOK:   false,
		},
		{
			name:     "no sets at all",
			universe: 2,
			sets:     nil,
			want:     nil,
			wantOK:   false,
		},
		{
			name:     "empty universe",
			universe: 0,
			sets:     [][]int{{}, {}},
			want:     nil,
			wantOK:   true,
		},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			chosen, ok := requireReferenceOrder(t, tc.universe, tc.sets)
			if !slices.Equal(chosen, tc.want) || ok != tc.wantOK {
				t.Errorf("reference chose %v (ok %v), want %v (ok %v)", chosen, ok, tc.want, tc.wantOK)
			}
		})
	}
}

// TestGreedyTieOrderRandom compares the typed greedy with the reference on
// random instances built to tie: few distinct set sizes, many copies.
func TestGreedyTieOrderRandom(t *testing.T) {
	rng := xrand.New(3)
	for trial := 0; trial < 300; trial++ {
		u := 1 + rng.Intn(60)
		sets := make([][]int, rng.Intn(80))
		size := 1 + rng.Intn(4)
		for i := range sets {
			if rng.Intn(8) == 0 && i > 0 {
				sets[i] = sets[rng.Intn(i)]
				continue
			}
			for range rng.Intn(size + 1) {
				sets[i] = append(sets[i], rng.Intn(u))
			}
		}
		requireReferenceOrder(t, u, sets)
	}
}

// FuzzGreedy checks the typed greedy against the container/heap reference
// on arbitrary instances: data is split into sets at every 0xff byte, and
// each other byte is an element id mod the universe.
func FuzzGreedy(f *testing.F) {
	f.Add(uint8(4), []byte{0, 0xff, 1, 0xff, 2, 0xff, 3})
	f.Add(uint8(6), []byte{0, 1, 0xff, 1, 2, 0xff, 2, 3, 0xff, 3, 4, 0xff, 4, 5, 0xff, 5, 0})
	f.Add(uint8(5), []byte{0xff, 0xff, 0, 1, 0xff, 0, 1, 0xff, 3})
	f.Add(uint8(0), []byte{7, 7, 0xff})
	f.Fuzz(func(t *testing.T, universe uint8, data []byte) {
		u := int(universe) % 64
		var sets [][]int
		cur := []int{}
		for _, b := range data {
			if b == 0xff {
				sets = append(sets, cur)
				cur = []int{}
				continue
			}
			if u > 0 {
				cur = append(cur, int(b)%u)
			}
		}
		sets = append(sets, cur)
		chosen, ok := requireReferenceOrder(t, u, sets)
		if covered := CoverSize(u, sets, chosen); ok != (covered == u) {
			t.Fatalf("ok %v but %d of %d covered", ok, covered, u)
		}
	})
}
