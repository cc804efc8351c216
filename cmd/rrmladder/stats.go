package main

import (
	"math"
	"slices"
)

// percentile returns the p-th percentile (0 <= p <= 100) of xs by linear
// interpolation between closest ranks. xs is not modified; NaN when empty.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// quartiles returns the first and third quartiles of xs the way Python's
// statistics.quantiles(xs, n=4) does (its default "exclusive" method), so the
// spread this benchmark reports is the spread an outside check computes from
// the same values. A single value is its own quartiles; NaN when empty.
func quartiles(xs []float64) (q1, q3 float64) {
	switch len(xs) {
	case 0:
		return math.NaN(), math.NaN()
	case 1:
		return xs[0], xs[0]
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	const n = 4
	ld := len(s)
	m := ld + 1
	q := make([]float64, 0, n-1)
	for i := 1; i < n; i++ {
		j := min(max(i*m/n, 1), ld-1)
		delta := i*m - j*n
		q = append(q, (s[j-1]*float64(n-delta)+s[j]*float64(delta))/n)
	}
	return q[0], q[2]
}

// relSpread is the interquartile range of xs as a share of its median.
func relSpread(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(median(xs))
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
