package geom

import "math"

// PolarToCartesian converts a (d-1)-dimensional angle vector (each angle in
// [0, pi/2]) to a unit vector in the non-negative orthant of R^d, following
// the paper's convention (Section V.A):
//
//	u[i] = sin(theta[d-1]) * ... * sin(theta[i]) * cos(theta[i-1])
//
// with theta[0] = 0 (so cos(theta[0]) = 1 for i = 1). Indices here are
// 0-based: theta has length d-1 and u has length d.
func PolarToCartesian(theta []float64) Vector {
	d := len(theta) + 1
	u := make(Vector, d)
	// suffix[i] = product of sin(theta[j]) for j >= i (0-based over theta).
	suffix := 1.0
	// Build from the last coordinate down so each u[i] reuses the running
	// suffix product of sines.
	for i := d - 1; i >= 0; i-- {
		cos := 1.0
		if i > 0 {
			cos = math.Cos(theta[i-1])
		}
		u[i] = suffix * cos
		if i > 0 {
			suffix *= math.Sin(theta[i-1])
		}
	}
	return u
}

// CartesianToPolar inverts PolarToCartesian for unit vectors in the
// non-negative orthant, returning d-1 angles in [0, pi/2]. For vectors with
// zero suffix norms the corresponding angles are returned as 0, matching the
// convention that sin(0) = 0 collapses the remaining coordinates.
func CartesianToPolar(u Vector) []float64 {
	d := len(u)
	theta := make([]float64, d-1)
	// suffixNorm[i] = norm of u[0..i] (first i+1 coords).
	// theta[i-1] relates u[i] to the norm of u[0..i]:
	//   u[i] = |u[0..i]| * cos(theta[i-1])  -- actually from the forward
	// formula, cos(theta[i-1]) multiplies the sines of all later angles, so
	//   cos(theta[i-1]) = u[i-1... ].
	// Compute incrementally: r = |(u[0], ..., u[i])|; cos(theta[i-1]) = u[i]/r.
	r := u[0] * u[0]
	for i := 1; i < d; i++ {
		r += u[i] * u[i]
		norm := math.Sqrt(r)
		if norm == 0 {
			theta[i-1] = 0
			continue
		}
		c := u[i] / norm
		if c > 1 {
			c = 1
		} else if c < -1 {
			c = -1
		}
		theta[i-1] = math.Acos(c)
	}
	return theta
}

// AngleGrid enumerates the paper's Db discretization: every (d-1)-dimensional
// angle vector whose coordinates are multiples of pi/(2*gamma) in [0, pi/2],
// converted to Cartesian unit vectors. It returns (gamma+1)^(d-1) vectors.
// gamma must be >= 1 and d >= 2.
func AngleGrid(d, gamma int) []Vector {
	if d < 2 || gamma < 1 {
		return nil
	}
	step := math.Pi / 2 / float64(gamma)
	nAngles := d - 1
	total := 1
	for i := 0; i < nAngles; i++ {
		total *= gamma + 1
	}
	out := make([]Vector, 0, total)
	idx := make([]int, nAngles)
	theta := make([]float64, nAngles)
	for {
		for i, z := range idx {
			theta[i] = float64(z) * step
		}
		out = append(out, PolarToCartesian(theta))
		// Odometer increment.
		i := 0
		for ; i < nAngles; i++ {
			idx[i]++
			if idx[i] <= gamma {
				break
			}
			idx[i] = 0
		}
		if i == nAngles {
			break
		}
	}
	return out
}
