package geom

import (
	"math"
	"math/rand"
	"testing"
)

func TestPolarToCartesian2D(t *testing.T) {
	// d=2: theta in [0, pi/2]; u = (sin theta, cos theta).
	for _, th := range []float64{0, math.Pi / 6, math.Pi / 4, math.Pi / 3, math.Pi / 2} {
		u := PolarToCartesian([]float64{th})
		if !almostEq(u[0], math.Sin(th), 1e-12) || !almostEq(u[1], math.Cos(th), 1e-12) {
			t.Errorf("PolarToCartesian(%v) = %v", th, u)
		}
	}
}

func TestPolarToCartesian3D(t *testing.T) {
	th := []float64{math.Pi / 6, math.Pi / 3}
	u := PolarToCartesian(th)
	want := Vector{
		math.Sin(th[1]) * math.Sin(th[0]),
		math.Sin(th[1]) * math.Cos(th[0]),
		math.Cos(th[1]),
	}
	for i := range want {
		if !almostEq(u[i], want[i], 1e-12) {
			t.Errorf("u[%d] = %v, want %v", i, u[i], want[i])
		}
	}
}

func TestPolarRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 300; trial++ {
		d := 2 + rng.Intn(5)
		theta := make([]float64, d-1)
		for i := range theta {
			// Stay strictly inside (0, pi/2) so the inversion is unique.
			theta[i] = 0.01 + rng.Float64()*(math.Pi/2-0.02)
		}
		u := PolarToCartesian(theta)
		if !almostEq(Norm(u), 1, 1e-9) {
			t.Fatalf("PolarToCartesian not unit: |u|=%v", Norm(u))
		}
		if !NonNegative(u) {
			t.Fatalf("PolarToCartesian left orthant: %v", u)
		}
		back := CartesianToPolar(u)
		for i := range theta {
			if !almostEq(back[i], theta[i], 1e-6) {
				t.Fatalf("round trip theta[%d]: %v -> %v (d=%d)", i, theta[i], back[i], d)
			}
		}
	}
}

func TestAngleGridSizeAndRange(t *testing.T) {
	for _, tc := range []struct{ d, gamma, want int }{
		{2, 6, 7},
		{3, 3, 16},
		{4, 6, 343},
		{3, 1, 4},
	} {
		grid := AngleGrid(tc.d, tc.gamma)
		if len(grid) != tc.want {
			t.Errorf("AngleGrid(%d,%d): %d vectors, want %d", tc.d, tc.gamma, len(grid), tc.want)
		}
		for _, u := range grid {
			if len(u) != tc.d {
				t.Fatalf("grid vector has dim %d, want %d", len(u), tc.d)
			}
			if !almostEq(Norm(u), 1, 1e-9) {
				t.Fatalf("grid vector not unit: %v", u)
			}
			if !NonNegative(u) {
				t.Fatalf("grid vector outside orthant: %v", u)
			}
		}
	}
	if AngleGrid(1, 5) != nil || AngleGrid(3, 0) != nil {
		t.Error("AngleGrid should return nil for invalid arguments")
	}
}

func TestAngleGridContainsAxes(t *testing.T) {
	// The grid must include every axis direction (the boundary angles).
	grid := AngleGrid(3, 4)
	found := make([]bool, 3)
	for _, u := range grid {
		for ax := 0; ax < 3; ax++ {
			if almostEq(u[ax], 1, 1e-9) {
				found[ax] = true
			}
		}
	}
	for ax, ok := range found {
		if !ok {
			t.Errorf("axis %d direction missing from grid", ax)
		}
	}
}

func TestAngleGridDistinct(t *testing.T) {
	grid := AngleGrid(3, 3)
	// Angle grids can duplicate Cartesian points on the boundary (when a sine
	// factor is zero); at minimum, interior points must be distinct.
	seen := map[[3]int64]int{}
	dups := 0
	for _, u := range grid {
		key := [3]int64{int64(u[0] * 1e9), int64(u[1] * 1e9), int64(u[2] * 1e9)}
		seen[key]++
		if seen[key] > 1 {
			dups++
		}
	}
	// gamma=3, d=3: theta[1]=0 collapses theta[0], giving exactly 3 duplicate
	// Cartesian points (4 angle choices map to the same pole).
	if dups != 3 {
		t.Errorf("unexpected duplicate count %d (want 3 pole duplicates)", dups)
	}
}
