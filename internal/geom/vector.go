// Package geom provides the small amount of computational geometry the
// rank-regret algorithms need: d-dimensional vectors and polar coordinates
// on the unit sphere, with the paper's polar angle grid. The 2D dual lines
// live with the exact 2D sweep in algo2d.
//
// Everything works on []float64 slices; no external linear-algebra library is
// used. Functions that take vectors never retain or mutate their arguments
// unless documented otherwise.
package geom

import (
	"fmt"
	"math"
)

// Vector is a point or direction in d-dimensional space.
type Vector = []float64

// Dot returns the inner product of a and b.
// It panics if the lengths differ, which always indicates a programming error.
func Dot(a, b Vector) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("geom: Dot on mismatched lengths %d and %d", len(a), len(b)))
	}
	var s float64
	for i, v := range a {
		s += v * b[i]
	}
	return s
}

// Norm returns the L2-norm of v.
func Norm(v Vector) float64 {
	var s float64
	for _, x := range v {
		s += x * x
	}
	return math.Sqrt(s)
}

// Normalize returns v scaled to unit L2-norm. The zero vector is returned
// unchanged.
func Normalize(v Vector) Vector {
	n := Norm(v)
	out := make(Vector, len(v))
	if n == 0 {
		copy(out, v)
		return out
	}
	for i, x := range v {
		out[i] = x / n
	}
	return out
}

// NormalizeL1 returns v scaled so its components sum to one. Useful for
// presenting linear utility weights as percentages. The zero vector is
// returned unchanged.
func NormalizeL1(v Vector) Vector {
	var s float64
	for _, x := range v {
		s += x
	}
	out := make(Vector, len(v))
	if s == 0 {
		copy(out, v)
		return out
	}
	for i, x := range v {
		out[i] = x / s
	}
	return out
}

// Sub returns a-b as a fresh vector.
func Sub(a, b Vector) Vector {
	if len(a) != len(b) {
		panic(fmt.Sprintf("geom: Sub on mismatched lengths %d and %d", len(a), len(b)))
	}
	out := make(Vector, len(a))
	for i := range a {
		out[i] = a[i] - b[i]
	}
	return out
}

// Add returns a+b as a fresh vector.
func Add(a, b Vector) Vector {
	if len(a) != len(b) {
		panic(fmt.Sprintf("geom: Add on mismatched lengths %d and %d", len(a), len(b)))
	}
	out := make(Vector, len(a))
	for i := range a {
		out[i] = a[i] + b[i]
	}
	return out
}

// Scale returns c*v as a fresh vector.
func Scale(c float64, v Vector) Vector {
	out := make(Vector, len(v))
	for i, x := range v {
		out[i] = c * x
	}
	return out
}

// Dist returns the L2 distance between a and b.
func Dist(a, b Vector) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("geom: Dist on mismatched lengths %d and %d", len(a), len(b)))
	}
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return math.Sqrt(s)
}

// Clone returns a copy of v.
func Clone(v Vector) Vector {
	out := make(Vector, len(v))
	copy(out, v)
	return out
}

// NonNegative reports whether every component of v is >= 0.
func NonNegative(v Vector) bool {
	for _, x := range v {
		if x < 0 {
			return false
		}
	}
	return true
}

// AllZero reports whether every component of v is exactly zero.
func AllZero(v Vector) bool {
	for _, x := range v {
		if x != 0 {
			return false
		}
	}
	return true
}
