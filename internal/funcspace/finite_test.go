package funcspace

import (
	"math"
	"testing"
)

func TestNewBallRejectsNonFinite(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		center []float64
		radius float64
	}{
		{[]float64{0.5, 0.5}, nan},
		{[]float64{0.5, 0.5}, inf},
		{[]float64{nan, 0.5}, 0.1},
		{[]float64{0.5, inf}, 0.1},
		{[]float64{inf, inf}, inf},
	}
	for _, c := range cases {
		if _, err := NewBall(c.center, c.radius); err == nil {
			t.Errorf("NewBall(%v, %v) accepted a non-finite ball", c.center, c.radius)
		}
	}
}

func TestNewPolytopeRejectsNonFinite(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		a [][]float64
		b []float64
	}{
		{[][]float64{{1, nan}}, []float64{1}},
		{[][]float64{{1, 0}, {-inf, 1}}, []float64{1, 0}},
		{[][]float64{{1, 0}}, []float64{nan}},
		{[][]float64{{1, 0}}, []float64{-inf}},
	}
	for _, c := range cases {
		if _, err := NewPolytope(2, c.a, c.b); err == nil {
			t.Errorf("NewPolytope(%v, %v) accepted a non-finite constraint", c.a, c.b)
		}
	}
	if _, err := NewPolytope(2, [][]float64{{1, -1}}, []float64{0}); err != nil {
		t.Fatalf("finite polytope rejected: %v", err)
	}
}
