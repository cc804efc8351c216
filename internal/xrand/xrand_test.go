package xrand

import (
	"math"
	"math/rand"
	"testing"

	"github.com/rankregret/rankregret/internal/geom"
)

func TestDeterminism(t *testing.T) {
	a, b := New(123), New(123)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same seed produced different streams")
		}
	}
	c := New(124)
	same := 0
	a = New(123)
	for i := 0; i < 100; i++ {
		if a.Float64() == c.Float64() {
			same++
		}
	}
	if same > 5 {
		t.Errorf("adjacent seeds produced %d/100 identical draws", same)
	}
}

func TestSplitIndependence(t *testing.T) {
	r := New(1)
	s1 := r.Split(10)
	s2 := r.Split(10) // second Split consumes parent state, so differs
	if s1.Float64() == s2.Float64() {
		t.Error("sequential splits produced identical first draws")
	}
	// Split streams from the same parent state and tag are reproducible.
	p1, p2 := New(5), New(5)
	c1, c2 := p1.Split(7), p2.Split(7)
	for i := 0; i < 50; i++ {
		if c1.Float64() != c2.Float64() {
			t.Fatal("Split is not reproducible")
		}
	}
}

func TestUnitOrthantDirection(t *testing.T) {
	r := New(42)
	for _, d := range []int{1, 2, 3, 4, 6} {
		counts := make([]float64, d)
		const n = 2000
		for i := 0; i < n; i++ {
			u := r.UnitOrthantDirection(d)
			if len(u) != d {
				t.Fatalf("dim %d: got %d", d, len(u))
			}
			if math.Abs(geom.Norm(u)-1) > 1e-9 {
				t.Fatalf("not unit norm: %v", geom.Norm(u))
			}
			if !geom.NonNegative(u) {
				t.Fatalf("left orthant: %v", u)
			}
			for j, x := range u {
				counts[j] += x
			}
		}
		// Symmetry: mean coordinate value should be equal across axes.
		mean := 0.0
		for _, c := range counts {
			mean += c
		}
		mean /= float64(d)
		for j, c := range counts {
			if math.Abs(c-mean)/mean > 0.1 {
				t.Errorf("d=%d axis %d biased: %v vs mean %v", d, j, c/n, mean/n)
			}
		}
	}
}

func TestSimplex(t *testing.T) {
	r := New(7)
	for i := 0; i < 500; i++ {
		u := r.Simplex(4)
		var sum float64
		for _, x := range u {
			if x < 0 {
				t.Fatalf("negative simplex coordinate: %v", u)
			}
			sum += x
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("simplex sums to %v", sum)
		}
	}
}

func TestSampleWhere(t *testing.T) {
	r := New(3)
	// Accept only directions with u[0] >= u[1]: succeeds about half the time.
	accept := func(u geom.Vector) bool { return u[0] >= u[1] }
	for i := 0; i < 100; i++ {
		u := r.SampleWhere(2, accept, 1000)
		if u == nil {
			t.Fatal("SampleWhere gave up on an easy predicate")
		}
		if u[0] < u[1] {
			t.Fatalf("SampleWhere returned rejected vector %v", u)
		}
	}
	// Impossible predicate returns nil instead of looping forever.
	if u := r.SampleWhere(2, func(geom.Vector) bool { return false }, 50); u != nil {
		t.Error("SampleWhere should return nil when it gives up")
	}
	// Nil accepter accepts everything.
	if u := r.SampleWhere(3, nil, 1); u == nil {
		t.Error("nil accepter should always succeed")
	}
}

// mixedDraws consumes r through every kind of draw the repository makes.
func mixedDraws(r *Rand, n int) []float64 {
	var out []float64
	for i := 0; i < n; i++ {
		out = append(out, r.NormFloat64(), r.Float64(), r.ExpFloat64(), float64(r.Intn(1000)), float64(r.Uint64()>>11))
		out = append(out, r.UnitOrthantDirection(3)...)
	}
	return out
}

// The step-counting source must not change the stream: xrand.New(seed) is
// math/rand over the scrambled seed, draw for draw.
func TestStreamMatchesMathRand(t *testing.T) {
	got := mixedDraws(New(9), 200)
	ref := &Rand{Rand: rand.New(rand.NewSource(int64(splitmix64(9))))}
	// UnitOrthantDirection only needs the embedded generator.
	want := mixedDraws(ref, 200)
	if len(got) != len(want) {
		t.Fatalf("%d draws, want %d", len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("draw %d = %v, math/rand gives %v", i, got[i], want[i])
		}
	}
}

// Skip(Steps()) on a fresh Rand of the same seed continues the stream
// exactly where the original stands, however the steps were consumed.
func TestSkipResumesStream(t *testing.T) {
	r := New(4)
	mixedDraws(r, 137)
	fresh := New(4)
	fresh.Skip(r.Steps())
	if fresh.Steps() != r.Steps() {
		t.Fatalf("skipped to %d steps, original at %d", fresh.Steps(), r.Steps())
	}
	a, b := mixedDraws(r, 50), mixedDraws(fresh, 50)
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			t.Fatalf("draw %d after Skip = %v, original %v", i, b[i], a[i])
		}
	}
}
