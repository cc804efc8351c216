package lp

import (
	"math"
	"testing"

	"github.com/rankregret/rankregret/internal/xrand"
)

func TestMaximizeTextbook(t *testing.T) {
	// max 3x + 5y s.t. x <= 4; 2y <= 12; 3x + 2y <= 18 -> x=2, y=6, obj=36.
	res, err := Maximize(
		[]float64{3, 5},
		[][]float64{{1, 0}, {0, 2}, {3, 2}},
		[]float64{4, 12, 18},
	)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != Optimal {
		t.Fatalf("status = %v", res.Status)
	}
	if math.Abs(res.Objective-36) > 1e-7 {
		t.Errorf("objective = %v, want 36", res.Objective)
	}
	if math.Abs(res.X[0]-2) > 1e-7 || math.Abs(res.X[1]-6) > 1e-7 {
		t.Errorf("X = %v, want [2 6]", res.X)
	}
}

func TestMinimize(t *testing.T) {
	// min x + y s.t. -x - y <= -2 (i.e. x + y >= 2) -> obj = 2.
	res, err := Minimize(
		[]float64{1, 1},
		[][]float64{{-1, -1}},
		[]float64{-2},
	)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != Optimal {
		t.Fatalf("status = %v", res.Status)
	}
	if math.Abs(res.Objective-2) > 1e-7 {
		t.Errorf("objective = %v, want 2", res.Objective)
	}
}

func TestUnbounded(t *testing.T) {
	// max x with only y constrained.
	res, err := Maximize([]float64{1, 0}, [][]float64{{0, 1}}, []float64{1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != Unbounded {
		t.Errorf("status = %v, want unbounded", res.Status)
	}
}

func TestInfeasible(t *testing.T) {
	// x <= 1 and -x <= -3 (x >= 3) cannot both hold.
	res, err := Maximize([]float64{1}, [][]float64{{1}, {-1}}, []float64{1, -3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != Infeasible {
		t.Errorf("status = %v, want infeasible", res.Status)
	}
}

// Feasibility is a zero-objective Maximize: funcspace relies on its status
// telling a non-empty region (Optimal) from an empty one (Infeasible).
func TestFeasible(t *testing.T) {
	res, err := Maximize([]float64{0, 0}, [][]float64{{1, 1}}, []float64{1})
	if err != nil || res.Status != Optimal {
		t.Errorf("simple region: status %v, err %v; want optimal", res.Status, err)
	}
	res, err = Maximize([]float64{0}, [][]float64{{1}, {-1}}, []float64{1, -3})
	if err != nil || res.Status != Infeasible {
		t.Errorf("empty region: status %v, err %v; want infeasible", res.Status, err)
	}
}

func TestNegativeRHSFeasiblePath(t *testing.T) {
	// max x + y s.t. x + y <= 4, x >= 1 (as -x <= -1), y >= 1. Optimum 4.
	res, err := Maximize(
		[]float64{1, 1},
		[][]float64{{1, 1}, {-1, 0}, {0, -1}},
		[]float64{4, -1, -1},
	)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != Optimal || math.Abs(res.Objective-4) > 1e-7 {
		t.Fatalf("got %v obj %v, want optimal 4", res.Status, res.Objective)
	}
	if res.X[0] < 1-1e-7 || res.X[1] < 1-1e-7 {
		t.Errorf("X = %v violates lower bounds", res.X)
	}
}

func TestDegenerateTies(t *testing.T) {
	// Degenerate vertex: several constraints active at the optimum. Bland's
	// rule must still terminate.
	res, err := Maximize(
		[]float64{1, 1, 1},
		[][]float64{
			{1, 0, 0}, {0, 1, 0}, {0, 0, 1},
			{1, 1, 0}, {0, 1, 1}, {1, 0, 1},
			{1, 1, 1},
		},
		[]float64{1, 1, 1, 2, 2, 2, 3},
	)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != Optimal || math.Abs(res.Objective-3) > 1e-7 {
		t.Fatalf("degenerate LP: %v obj %v", res.Status, res.Objective)
	}
}

func TestInputValidation(t *testing.T) {
	if _, err := Maximize([]float64{1}, [][]float64{{1, 2}}, []float64{1}); err == nil {
		t.Error("mismatched row width accepted")
	}
	if _, err := Maximize([]float64{1}, [][]float64{{1}}, []float64{1, 2}); err == nil {
		t.Error("mismatched bound count accepted")
	}
	res, err := Maximize(nil, nil, nil)
	if err != nil || res.Status != Optimal || res.Objective != 0 {
		t.Error("empty LP should be trivially optimal")
	}
}

// checkFeasiblePoint verifies A.x <= b + tol and x >= -tol.
func checkFeasiblePoint(t *testing.T, x []float64, a [][]float64, b []float64) {
	t.Helper()
	for _, xi := range x {
		if xi < -1e-6 {
			t.Fatalf("negative coordinate in solution: %v", x)
		}
	}
	for i, row := range a {
		var s float64
		for j, c := range row {
			s += c * x[j]
		}
		if s > b[i]+1e-6 {
			t.Fatalf("constraint %d violated: %v > %v (x=%v)", i, s, b[i], x)
		}
	}
}

// Property test: on random bounded LPs the simplex answer is feasible and at
// least as good as a large cloud of random feasible points.
func TestRandomLPsDominateRandomPoints(t *testing.T) {
	rng := xrand.New(20)
	for trial := 0; trial < 150; trial++ {
		n := 1 + rng.Intn(4)
		m := 1 + rng.Intn(5)
		a := make([][]float64, m, m+n)
		b := make([]float64, m, m+n)
		for i := 0; i < m; i++ {
			row := make([]float64, n)
			for j := range row {
				row[j] = rng.NormFloat64()
			}
			a[i] = row
			b[i] = rng.Float64() * 2 // keeps origin feasible
		}
		// Box constraints keep it bounded.
		for j := 0; j < n; j++ {
			row := make([]float64, n)
			row[j] = 1
			a = append(a, row)
			b = append(b, 1+rng.Float64()*3)
		}
		c := make([]float64, n)
		for j := range c {
			c[j] = rng.NormFloat64()
		}
		res, err := Maximize(c, a, b)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if res.Status != Optimal {
			t.Fatalf("trial %d: status %v for a bounded feasible LP", trial, res.Status)
		}
		checkFeasiblePoint(t, res.X, a, b)
		// Sample feasible points by scaling random directions until feasible.
		for probe := 0; probe < 200; probe++ {
			x := make([]float64, n)
			for j := range x {
				x[j] = rng.Float64() * 4
			}
			feas := true
			for i, row := range a {
				var s float64
				for j, cc := range row {
					s += cc * x[j]
				}
				if s > b[i] {
					feas = false
					break
				}
			}
			if !feas {
				continue
			}
			var obj float64
			for j := range c {
				obj += c[j] * x[j]
			}
			if obj > res.Objective+1e-6 {
				t.Fatalf("trial %d: random feasible point beats simplex: %v > %v", trial, obj, res.Objective)
			}
		}
	}
}

func TestStatusString(t *testing.T) {
	if Optimal.String() != "optimal" || Unbounded.String() != "unbounded" || Infeasible.String() != "infeasible" {
		t.Error("status strings wrong")
	}
	if Status(42).String() == "" {
		t.Error("unknown status should still format")
	}
}
