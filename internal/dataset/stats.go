package dataset

import (
	"fmt"
	"math"
)

// Stats summarizes one attribute of a dataset.
type Stats struct {
	Min, Max, Mean, StdDev float64
}

// AttrStats returns per-attribute summary statistics. It is primarily used
// to validate the workload generators (the simulated real datasets must
// reproduce the originals' value ranges and spreads).
func (ds *Dataset) AttrStats() []Stats {
	d := ds.Dim()
	n := ds.N()
	out := make([]Stats, d)
	if n == 0 {
		return out
	}
	for j := 0; j < d; j++ {
		s := Stats{Min: math.Inf(1), Max: math.Inf(-1)}
		sum := 0.0
		for i := 0; i < n; i++ {
			v := ds.Value(i, j)
			if v < s.Min {
				s.Min = v
			}
			if v > s.Max {
				s.Max = v
			}
			sum += v
		}
		s.Mean = sum / float64(n)
		ss := 0.0
		for i := 0; i < n; i++ {
			dlt := ds.Value(i, j) - s.Mean
			ss += dlt * dlt
		}
		s.StdDev = math.Sqrt(ss / float64(n))
		out[j] = s
	}
	return out
}

// Correlation returns the Pearson correlation between attributes a and b.
// It returns an error for out-of-range columns and NaN when either column
// is constant. The sign structure of this matrix is what drives every
// qualitative result in the paper's evaluation: positively correlated data
// yields tiny rank-regrets, anti-correlated data large ones.
func (ds *Dataset) Correlation(a, b int) (float64, error) {
	d := ds.Dim()
	if a < 0 || a >= d || b < 0 || b >= d {
		return 0, fmt.Errorf("dataset: correlation columns (%d,%d) out of range [0,%d)", a, b, d)
	}
	n := ds.N()
	if n < 2 {
		return 0, fmt.Errorf("dataset: correlation needs at least 2 tuples, have %d", n)
	}
	var meanA, meanB float64
	for i := 0; i < n; i++ {
		meanA += ds.Value(i, a)
		meanB += ds.Value(i, b)
	}
	meanA /= float64(n)
	meanB /= float64(n)
	var cov, varA, varB float64
	for i := 0; i < n; i++ {
		da := ds.Value(i, a) - meanA
		db := ds.Value(i, b) - meanB
		cov += da * db
		varA += da * da
		varB += db * db
	}
	if varA == 0 || varB == 0 {
		return math.NaN(), nil
	}
	return cov / math.Sqrt(varA*varB), nil
}

// CorrelationMatrix returns the full d x d Pearson correlation matrix.
func (ds *Dataset) CorrelationMatrix() ([][]float64, error) {
	d := ds.Dim()
	out := make([][]float64, d)
	for a := 0; a < d; a++ {
		out[a] = make([]float64, d)
		out[a][a] = 1
		for b := 0; b < a; b++ {
			c, err := ds.Correlation(a, b)
			if err != nil {
				return nil, err
			}
			out[a][b] = c
			out[b][a] = c
		}
	}
	return out, nil
}

// MeanPairwiseCorrelation averages the off-diagonal entries of the
// correlation matrix — a single number summarizing whether a workload is
// correlated (positive), independent (near zero) or anti-correlated
// (negative).
func (ds *Dataset) MeanPairwiseCorrelation() (float64, error) {
	d := ds.Dim()
	if d < 2 {
		return 0, fmt.Errorf("dataset: pairwise correlation needs d >= 2, have %d", d)
	}
	m, err := ds.CorrelationMatrix()
	if err != nil {
		return 0, err
	}
	sum, cnt := 0.0, 0
	for a := 0; a < d; a++ {
		for b := 0; b < a; b++ {
			if !math.IsNaN(m[a][b]) {
				sum += m[a][b]
				cnt++
			}
		}
	}
	if cnt == 0 {
		return math.NaN(), nil
	}
	return sum / float64(cnt), nil
}
