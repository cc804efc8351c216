package dataset

import (
	"math"
	"testing"

	"github.com/rankregret/rankregret/internal/xrand"
)

// pearson computes the sample correlation between attributes a and b.
func pearson(ds *Dataset, a, b int) float64 {
	n := float64(ds.N())
	var sa, sb, saa, sbb, sab float64
	for i := 0; i < ds.N(); i++ {
		x, y := ds.Value(i, a), ds.Value(i, b)
		sa += x
		sb += y
		saa += x * x
		sbb += y * y
		sab += x * y
	}
	cov := sab/n - sa/n*sb/n
	va := saa/n - sa/n*sa/n
	vb := sbb/n - sb/n*sb/n
	if va <= 0 || vb <= 0 {
		return 0
	}
	return cov / math.Sqrt(va*vb)
}

func TestIndependent(t *testing.T) {
	rng := xrand.New(1)
	ds := Independent(rng, 5000, 3)
	if ds.N() != 5000 || ds.Dim() != 3 {
		t.Fatalf("shape wrong: %v", ds)
	}
	for i := 0; i < ds.N(); i++ {
		for j := 0; j < 3; j++ {
			v := ds.Value(i, j)
			if v < 0 || v > 1 {
				t.Fatalf("value out of range: %v", v)
			}
		}
	}
	if r := pearson(ds, 0, 1); math.Abs(r) > 0.06 {
		t.Errorf("independent data has correlation %v", r)
	}
}

func TestCorrelated(t *testing.T) {
	rng := xrand.New(2)
	ds := Correlated(rng, 5000, 4)
	for a := 0; a < 4; a++ {
		for b := a + 1; b < 4; b++ {
			if r := pearson(ds, a, b); r < 0.5 {
				t.Errorf("correlated data attrs (%d,%d) correlation only %v", a, b, r)
			}
		}
	}
}

func TestAnticorrelated(t *testing.T) {
	rng := xrand.New(3)
	ds := Anticorrelated(rng, 5000, 2)
	if r := pearson(ds, 0, 1); r > -0.5 {
		t.Errorf("anticorrelated 2D data correlation %v, want strongly negative", r)
	}
	ds4 := Anticorrelated(rng, 5000, 4)
	if r := pearson(ds4, 0, 1); r > -0.1 {
		t.Errorf("anticorrelated 4D data correlation %v, want negative", r)
	}
}

func TestQuarterCircle(t *testing.T) {
	ds := QuarterCircle(100, 2)
	if ds.N() != 100 {
		t.Fatalf("N = %d", ds.N())
	}
	for i := 0; i < ds.N(); i++ {
		r := ds.Row(i)
		if math.Abs(r[0]*r[0]+r[1]*r[1]-1) > 1e-9 {
			t.Fatalf("row %d not on unit circle: %v", i, r)
		}
	}
	// Endpoints are the axis tuples.
	if ds.Value(0, 0) != 1 || math.Abs(ds.Value(99, 1)-1) > 1e-12 {
		t.Error("endpoints wrong")
	}
	// Higher-dimensional variant pads with ones.
	ds4 := QuarterCircle(10, 4)
	for i := 0; i < 10; i++ {
		if ds4.Value(i, 2) != 1 || ds4.Value(i, 3) != 1 {
			t.Fatal("padding attributes must be 1")
		}
	}
}

func TestSyntheticDispatch(t *testing.T) {
	rng := xrand.New(4)
	for _, kind := range []string{"indep", "corr", "anti", "independent", "correlated", "anticorrelated"} {
		ds, ok := Synthetic(kind, rng, 100, 3)
		if !ok || ds.N() != 100 {
			t.Errorf("Synthetic(%q) failed", kind)
		}
	}
	if _, ok := Synthetic("nope", rng, 10, 2); ok {
		t.Error("unknown workload should return ok=false")
	}
}

func TestSimIsland(t *testing.T) {
	rng := xrand.New(5)
	ds := SimIsland(rng, 3000)
	if ds.N() != 3000 || ds.Dim() != 2 {
		t.Fatalf("shape: %v", ds)
	}
	if got := SimIsland(xrand.New(5), 0); got.N() != IslandN {
		t.Errorf("default size = %d, want %d", got.N(), IslandN)
	}
	// Geographic data should be spread out, not concentrated on the diagonal:
	// |corr| moderate.
	if r := pearson(ds, 0, 1); math.Abs(r) > 0.6 {
		t.Errorf("island correlation %v looks degenerate", r)
	}
}

func TestSimNBA(t *testing.T) {
	rng := xrand.New(6)
	ds := SimNBA(rng, 5000)
	if ds.Dim() != 5 {
		t.Fatalf("NBA dim = %d", ds.Dim())
	}
	// Latent strength should induce clear positive correlation between
	// points and every other attribute.
	for b := 1; b < 5; b++ {
		if r := pearson(ds, 0, b); r < 0.3 {
			t.Errorf("NBA points vs attr %d correlation %v, want positive", b, r)
		}
	}
	if got := SimNBA(xrand.New(6), 0); got.N() != NBAN {
		t.Errorf("default size = %d, want %d", got.N(), NBAN)
	}
}

func TestSimWeather(t *testing.T) {
	rng := xrand.New(7)
	ds := SimWeather(rng, 8000)
	if ds.Dim() != 4 {
		t.Fatalf("Weather dim = %d", ds.Dim())
	}
	// Temperature vs humidity negative; temperature vs solar positive.
	if r := pearson(ds, 0, 1); r > -0.3 {
		t.Errorf("temp/humidity correlation %v, want negative", r)
	}
	if r := pearson(ds, 0, 3); r < 0.3 {
		t.Errorf("temp/solar correlation %v, want positive", r)
	}
	if got := SimWeather(xrand.New(7), 0); got.N() != WeatherN {
		t.Errorf("default size = %d, want %d", got.N(), WeatherN)
	}
}

func TestRealDispatch(t *testing.T) {
	rng := xrand.New(8)
	for _, kind := range []string{"island", "nba", "weather"} {
		ds, ok := Real(kind, rng, 500)
		if !ok || ds.N() != 500 {
			t.Errorf("Real(%q) failed", kind)
		}
	}
	if _, ok := Real("mars", rng, 10); ok {
		t.Error("unknown real dataset should return ok=false")
	}
}

func TestGeneratorsDeterministic(t *testing.T) {
	a := Anticorrelated(xrand.New(99), 200, 3)
	b := Anticorrelated(xrand.New(99), 200, 3)
	for i := 0; i < a.N(); i++ {
		for j := 0; j < a.Dim(); j++ {
			if a.Value(i, j) != b.Value(i, j) {
				t.Fatal("generator not deterministic under fixed seed")
			}
		}
	}
}

// TestWorkloadCorrelationSigns pins the property the paper's evaluation
// relies on: the three synthetic generators and the three simulated real
// datasets have the right correlation structure, which is what drives
// skyline size and so output rank-regret.
func TestWorkloadCorrelationSigns(t *testing.T) {
	rng := func() *xrand.Rand { return xrand.New(99) }
	cases := []struct {
		name   string
		ds     *Dataset
		lo, hi float64
	}{
		{"correlated", Correlated(rng(), 4000, 4), 0.2, 1},
		{"independent", Independent(rng(), 4000, 4), -0.1, 0.1},
		{"anticorrelated", Anticorrelated(rng(), 4000, 4), -1, -0.15},
		{"nba", SimNBA(rng(), 4000), 0.15, 1},
		{"island", SimIsland(rng(), 4000), -1, -0.1},
	}
	for _, tc := range cases {
		sum, pairs := 0.0, 0
		for a := 0; a < tc.ds.Dim(); a++ {
			for b := 0; b < a; b++ {
				sum += pearson(tc.ds, a, b)
				pairs++
			}
		}
		if got := sum / float64(pairs); got < tc.lo || got > tc.hi {
			t.Errorf("%s: mean pairwise correlation %.3f outside [%v, %v]", tc.name, got, tc.lo, tc.hi)
		}
	}
	// Weather is a seasonal mixture: some pair must be negative, some positive.
	w := SimWeather(xrand.New(99), 4000)
	pos, neg := false, false
	for a := 0; a < w.Dim(); a++ {
		for b := 0; b < a; b++ {
			c := pearson(w, a, b)
			pos = pos || c > 0.05
			neg = neg || c < -0.05
		}
	}
	if !pos || !neg {
		t.Error("weather should mix correlation signs")
	}
}
