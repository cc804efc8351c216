package dataset

import (
	"math"
	"testing"

	"github.com/rankregret/rankregret/internal/xrand"
)

func TestAttrStats(t *testing.T) {
	ds := MustFromRows([][]float64{{0, 10}, {1, 20}, {0.5, 30}})
	st := ds.AttrStats()
	if len(st) != 2 {
		t.Fatalf("got %d stats", len(st))
	}
	if st[0].Min != 0 || st[0].Max != 1 || math.Abs(st[0].Mean-0.5) > 1e-12 {
		t.Errorf("col0 stats = %+v", st[0])
	}
	if st[1].Min != 10 || st[1].Max != 30 || st[1].Mean != 20 {
		t.Errorf("col1 stats = %+v", st[1])
	}
	wantSD := math.Sqrt(200.0 / 3.0)
	if math.Abs(st[1].StdDev-wantSD) > 1e-9 {
		t.Errorf("col1 stddev = %v, want %v", st[1].StdDev, wantSD)
	}
	if got := New(2).AttrStats(); len(got) != 2 {
		t.Errorf("empty dataset stats = %v", got)
	}
}

func TestCorrelationExact(t *testing.T) {
	// Perfectly correlated and perfectly anti-correlated columns.
	ds := MustFromRows([][]float64{{0, 0, 1}, {0.5, 0.5, 0.5}, {1, 1, 0}})
	if c, err := ds.Correlation(0, 1); err != nil || math.Abs(c-1) > 1e-12 {
		t.Errorf("corr(0,1) = %v, %v; want 1", c, err)
	}
	if c, err := ds.Correlation(0, 2); err != nil || math.Abs(c+1) > 1e-12 {
		t.Errorf("corr(0,2) = %v, %v; want -1", c, err)
	}
	if c, err := ds.Correlation(0, 0); err != nil || c != 1 {
		t.Errorf("corr(0,0) = %v, %v", c, err)
	}
}

func TestCorrelationErrors(t *testing.T) {
	ds := MustFromRows([][]float64{{1, 2}, {3, 4}})
	if _, err := ds.Correlation(0, 5); err == nil {
		t.Error("out-of-range column should fail")
	}
	one := MustFromRows([][]float64{{1, 2}})
	if _, err := one.Correlation(0, 1); err == nil {
		t.Error("n=1 should fail")
	}
	konst := MustFromRows([][]float64{{1, 2}, {1, 3}})
	c, err := konst.Correlation(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(c) {
		t.Errorf("constant column correlation = %v, want NaN", c)
	}
}

func TestCorrelationMatrixSymmetric(t *testing.T) {
	ds := Independent(xrand.New(4), 500, 4)
	m, err := ds.CorrelationMatrix()
	if err != nil {
		t.Fatal(err)
	}
	for a := 0; a < 4; a++ {
		if m[a][a] != 1 {
			t.Errorf("diagonal (%d,%d) = %v", a, a, m[a][a])
		}
		for b := 0; b < 4; b++ {
			if m[a][b] != m[b][a] {
				t.Errorf("matrix not symmetric at (%d,%d)", a, b)
			}
			if m[a][b] < -1-1e-12 || m[a][b] > 1+1e-12 {
				t.Errorf("corr (%d,%d) = %v outside [-1,1]", a, b, m[a][b])
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
		got, err := tc.ds.MeanPairwiseCorrelation()
		if err != nil {
			t.Errorf("%s: %v", tc.name, err)
			continue
		}
		if got < tc.lo || got > tc.hi {
			t.Errorf("%s: mean pairwise correlation %.3f outside [%v, %v]", tc.name, got, tc.lo, tc.hi)
		}
	}
	// Weather is a seasonal mixture: some pair must be negative, some positive.
	w := SimWeather(xrand.New(99), 4000)
	m, err := w.CorrelationMatrix()
	if err != nil {
		t.Fatal(err)
	}
	pos, neg := false, false
	for a := 0; a < w.Dim(); a++ {
		for b := 0; b < a; b++ {
			if m[a][b] > 0.05 {
				pos = true
			}
			if m[a][b] < -0.05 {
				neg = true
			}
		}
	}
	if !pos || !neg {
		t.Errorf("weather should mix correlation signs, matrix: %v", m)
	}
}

func TestMeanPairwiseCorrelationValidation(t *testing.T) {
	one := MustFromRows([][]float64{{1}, {2}})
	if _, err := one.MeanPairwiseCorrelation(); err == nil {
		t.Error("d=1 should fail")
	}
}
