// Package funcspace models the space of linear utility functions a
// rank-regret query ranges over. RRM uses the full non-negative orthant L;
// RRRM (Definition 4) restricts to an arbitrary convex subspace U. Because a
// linear utility's induced ranking is invariant under positive scaling of
// the weight vector, a space is characterized by its *direction cone*
// {u/|u| : u in U}; all queries here work on directions.
//
// Implementations: Full (the orthant L), Cone (homogeneous linear
// constraints, e.g. the weak rankings of the paper's Section VI.B.5),
// Polytope (general A.u <= b), and Ball (hypersphere around an estimated
// weight vector, as in Mouratidis et al.).
package funcspace

import (
	"fmt"
	"math"

	"github.com/rankregret/rankregret/internal/geom"
	"github.com/rankregret/rankregret/internal/lp"
	"github.com/rankregret/rankregret/internal/xrand"
)

const dirEps = 1e-9

// Space is a convex space of utility vectors, queried by direction.
type Space interface {
	// Dim returns the dimensionality d of the utility vectors.
	Dim() int
	// ContainsDirection reports whether the ray {c*u : c > 0} meets the
	// space. u need not be normalized; it must be non-zero.
	ContainsDirection(u geom.Vector) bool
	// Sample draws a unit direction whose ray meets the space. The
	// distribution is the space's natural one (uniform over the direction
	// cone's sphere patch for Full/Cone, uniform over the body for
	// Polytope/Ball). It returns nil only if sampling is impossible.
	Sample(rng *xrand.Rand) geom.Vector
	// MinDot and MaxDot return the minimum/maximum of delta.u over a compact
	// cross-section of the space that meets every direction ray. Their signs
	// decide U-dominance (Definition 5): t dominates t' within the space iff
	// MinDot(t-t') >= 0 and MaxDot(t-t') > 0.
	MinDot(delta geom.Vector) (float64, error)
	MaxDot(delta geom.Vector) (float64, error)
	// Name identifies the space in logs and experiment output.
	Name() string
}

// Full is the unrestricted space L: all non-negative weight vectors. Its
// direction cone is the whole orthant; the canonical cross-section is the
// probability simplex, so MinDot/MaxDot are the min/max component of delta.
type Full struct{ D int }

// NewFull returns the full orthant space in d dimensions.
func NewFull(d int) Full { return Full{D: d} }

func (f Full) Dim() int { return f.D }

func (f Full) ContainsDirection(u geom.Vector) bool {
	if len(u) != f.D || geom.AllZero(u) {
		return false
	}
	return geom.NonNegative(u)
}

func (f Full) Sample(rng *xrand.Rand) geom.Vector {
	return rng.UnitOrthantDirection(f.D)
}

func (f Full) MinDot(delta geom.Vector) (float64, error) {
	if len(delta) != f.D {
		return 0, fmt.Errorf("funcspace: delta dim %d, space dim %d", len(delta), f.D)
	}
	m := math.Inf(1)
	for _, v := range delta {
		if v < m {
			m = v
		}
	}
	return m, nil
}

func (f Full) MaxDot(delta geom.Vector) (float64, error) {
	if len(delta) != f.D {
		return 0, fmt.Errorf("funcspace: delta dim %d, space dim %d", len(delta), f.D)
	}
	m := math.Inf(-1)
	for _, v := range delta {
		if v > m {
			m = v
		}
	}
	return m, nil
}

func (f Full) Name() string { return "L" }

// Cone is a convex cone inside the orthant given by homogeneous constraints
// A.u <= 0 (together with u >= 0). Scaling-invariant by construction, it is
// the natural encoding for order constraints on weights such as the weak
// rankings u[1] >= u[2] >= ... >= u[c+1] used in the paper's RRRM
// experiments.
type Cone struct {
	D int
	A [][]float64 // each row a: constraint a.u <= 0
}

// WeakRanking returns the cone {u in L : u[0] >= u[1] >= ... >= u[c]}
// (c constraints over d-dimensional vectors), the paper's Section VI.B.5
// restricted space with its parameter c.
func WeakRanking(d, c int) (*Cone, error) {
	if c < 1 || c >= d {
		return nil, fmt.Errorf("funcspace: WeakRanking needs 1 <= c < d, got c=%d d=%d", c, d)
	}
	a := make([][]float64, c)
	for i := 0; i < c; i++ {
		row := make([]float64, d)
		row[i] = -1
		row[i+1] = 1 // u[i+1] - u[i] <= 0
		a[i] = row
	}
	return &Cone{D: d, A: a}, nil
}

func (c *Cone) Dim() int { return c.D }

func (c *Cone) ContainsDirection(u geom.Vector) bool {
	if len(u) != c.D || geom.AllZero(u) || !geom.NonNegative(u) {
		return false
	}
	// Normalize so the epsilon is scale-independent.
	n := geom.Norm(u)
	for _, row := range c.A {
		if geom.Dot(row, u)/n > dirEps {
			return false
		}
	}
	return true
}

func (c *Cone) Sample(rng *xrand.Rand) geom.Vector {
	return rng.SampleWhere(c.D, c.ContainsDirection, 1_000_000)
}

// crossSectionLP solves min/max delta.u over the simplex cross-section
// {u >= 0, sum u = 1, A.u <= 0}.
func (c *Cone) crossSectionLP(delta geom.Vector, maximize bool) (float64, error) {
	if len(delta) != c.D {
		return 0, fmt.Errorf("funcspace: delta dim %d, space dim %d", len(delta), c.D)
	}
	rows := make([][]float64, 0, len(c.A)+2)
	b := make([]float64, 0, len(c.A)+2)
	for _, row := range c.A {
		rows = append(rows, row)
		b = append(b, 0)
	}
	ones := make([]float64, c.D)
	negOnes := make([]float64, c.D)
	for i := range ones {
		ones[i] = 1
		negOnes[i] = -1
	}
	rows = append(rows, ones, negOnes)
	b = append(b, 1, -1)
	var res lp.Result
	var err error
	if maximize {
		res, err = lp.Maximize(delta, rows, b)
	} else {
		res, err = lp.Minimize(delta, rows, b)
	}
	if err != nil {
		return 0, err
	}
	if res.Status != lp.Optimal {
		return 0, fmt.Errorf("funcspace: cone cross-section LP %v (is the cone empty?)", res.Status)
	}
	return res.Objective, nil
}

func (c *Cone) MinDot(delta geom.Vector) (float64, error) { return c.crossSectionLP(delta, false) }
func (c *Cone) MaxDot(delta geom.Vector) (float64, error) { return c.crossSectionLP(delta, true) }

func (c *Cone) Name() string { return fmt.Sprintf("cone(%d constraints)", len(c.A)) }

// Polytope is a general convex polytope {u >= 0 : A.u <= b} of utility
// vectors, the restricted-space model of Ciaccia and Martinenghi. The
// polytope itself serves as the compact cross-section for dominance tests.
type Polytope struct {
	D int
	A [][]float64
	B []float64
}

// NewPolytope validates dimensions and finiteness and returns the polytope
// space.
func NewPolytope(d int, a [][]float64, b []float64) (*Polytope, error) {
	if len(a) != len(b) {
		return nil, fmt.Errorf("funcspace: %d constraint rows, %d bounds", len(a), len(b))
	}
	for i, row := range a {
		if len(row) != d {
			return nil, fmt.Errorf("funcspace: constraint %d has %d coefficients, want %d", i, len(row), d)
		}
		if !finite(row...) || !finite(b[i]) {
			return nil, fmt.Errorf("funcspace: constraint %d has a non-finite coefficient or bound", i)
		}
	}
	return &Polytope{D: d, A: a, B: b}, nil
}

func (p *Polytope) Dim() int { return p.D }

// ContainsDirection checks whether some positive scaling c puts c*u inside
// the polytope: each constraint a_i.(c u) <= b_i is an interval condition on
// c, so the ray meets the polytope iff the interval intersection admits a
// positive c. No LP needed.
func (p *Polytope) ContainsDirection(u geom.Vector) bool {
	if len(u) != p.D || geom.AllZero(u) || !geom.NonNegative(u) {
		return false
	}
	lo, hi := 0.0, math.Inf(1)
	for i, row := range p.A {
		s := geom.Dot(row, u)
		bi := p.B[i]
		switch {
		case s > dirEps:
			if h := bi / s; h < hi {
				hi = h
			}
		case s < -dirEps:
			if l := bi / s; l > lo {
				lo = l
			}
		default:
			if bi < -dirEps {
				return false
			}
		}
	}
	return hi > lo && hi > dirEps
}

func (p *Polytope) Sample(rng *xrand.Rand) geom.Vector {
	u := rng.SampleWhere(p.D, p.ContainsDirection, 1_000_000)
	return u
}

func (p *Polytope) lpOver(delta geom.Vector, maximize bool) (float64, error) {
	if len(delta) != p.D {
		return 0, fmt.Errorf("funcspace: delta dim %d, space dim %d", len(delta), p.D)
	}
	var res lp.Result
	var err error
	if maximize {
		res, err = lp.Maximize(delta, p.A, p.B)
	} else {
		res, err = lp.Minimize(delta, p.A, p.B)
	}
	if err != nil {
		return 0, err
	}
	if res.Status != lp.Optimal {
		return 0, fmt.Errorf("funcspace: polytope LP %v", res.Status)
	}
	return res.Objective, nil
}

func (p *Polytope) MinDot(delta geom.Vector) (float64, error) { return p.lpOver(delta, false) }
func (p *Polytope) MaxDot(delta geom.Vector) (float64, error) { return p.lpOver(delta, true) }

func (p *Polytope) Name() string { return fmt.Sprintf("polytope(%d constraints)", len(p.A)) }

// Ball is the hypersphere space {u : |u - Center| <= Radius}: an estimated
// weight vector expanded by an uncertainty radius (Mouratidis, Li and Tang).
// The ball should lie inside the non-negative orthant; NewBall enforces it.
type Ball struct {
	Center geom.Vector
	Radius float64
}

// NewBall validates that the ball is finite and lies in the orthant (so
// every member is a legal utility vector) and returns the space.
func NewBall(center geom.Vector, radius float64) (*Ball, error) {
	if !finite(radius) || !finite(center...) {
		return nil, fmt.Errorf("funcspace: ball center %v and radius %v must be finite", center, radius)
	}
	if radius <= 0 {
		return nil, fmt.Errorf("funcspace: ball radius must be positive, got %v", radius)
	}
	for i, c := range center {
		if c < radius {
			return nil, fmt.Errorf("funcspace: ball leaves the orthant on axis %d (center %v < radius %v)", i, c, radius)
		}
	}
	return &Ball{Center: geom.Clone(center), Radius: radius}, nil
}

func (bl *Ball) Dim() int { return len(bl.Center) }

func (bl *Ball) ContainsDirection(u geom.Vector) bool {
	if len(u) != len(bl.Center) || geom.AllZero(u) || !geom.NonNegative(u) {
		return false
	}
	// Distance from the line {c*u} to Center must be <= Radius, with the
	// closest point at positive c. Projection coefficient:
	// c* = (u.Center)/(u.u) — positive because Center is in the orthant.
	uu := geom.Dot(u, u)
	cstar := geom.Dot(u, bl.Center) / uu
	if cstar <= 0 {
		return false
	}
	closest := geom.Scale(cstar, u)
	return geom.Dist(closest, bl.Center) <= bl.Radius+dirEps
}

func (bl *Ball) Sample(rng *xrand.Rand) geom.Vector {
	d := len(bl.Center)
	// Uniform in the ball: Gaussian direction scaled by U^(1/d) * Radius.
	for tries := 0; tries < 1_000_000; tries++ {
		dir := make(geom.Vector, d)
		for i := range dir {
			dir[i] = rng.NormFloat64()
		}
		n := geom.Norm(dir)
		if n == 0 {
			continue
		}
		rad := bl.Radius * math.Pow(rng.Float64(), 1/float64(d))
		pt := make(geom.Vector, d)
		for i := range pt {
			pt[i] = bl.Center[i] + dir[i]/n*rad
		}
		if geom.NonNegative(pt) && !geom.AllZero(pt) {
			return geom.Normalize(pt)
		}
	}
	return nil
}

// MinDot/MaxDot over a ball are analytic: delta.Center -/+ Radius*|delta|.
func (bl *Ball) MinDot(delta geom.Vector) (float64, error) {
	if len(delta) != len(bl.Center) {
		return 0, fmt.Errorf("funcspace: delta dim %d, space dim %d", len(delta), len(bl.Center))
	}
	return geom.Dot(delta, bl.Center) - bl.Radius*geom.Norm(delta), nil
}

func (bl *Ball) MaxDot(delta geom.Vector) (float64, error) {
	if len(delta) != len(bl.Center) {
		return 0, fmt.Errorf("funcspace: delta dim %d, space dim %d", len(delta), len(bl.Center))
	}
	return geom.Dot(delta, bl.Center) + bl.Radius*geom.Norm(delta), nil
}

func (bl *Ball) Name() string { return fmt.Sprintf("ball(r=%g)", bl.Radius) }

// Dominates reports whether t U-dominates t2 within space s (Definition 5):
// w(u,t) >= w(u,t2) for all u in the space, strictly for some u.
func Dominates(s Space, t, t2 geom.Vector) (bool, error) {
	delta := geom.Sub(t, t2)
	lo, err := s.MinDot(delta)
	if err != nil {
		return false, err
	}
	if lo < -dirEps {
		return false, nil
	}
	hi, err := s.MaxDot(delta)
	if err != nil {
		return false, err
	}
	return hi > dirEps, nil
}

// Render2D converts a 2-dimensional space to its normalized segment
// [c0, c1] of x values, where the direction (x, 1-x) is in the space exactly
// when x in [c0, c1] — the paper's "rendering the scene" step that lets the
// 2D sweep algorithm handle RRRM. The convexity of the space guarantees the
// x set is a single interval; endpoints are located by bisection.
func Render2D(s Space) (c0, c1 float64, err error) {
	if s.Dim() != 2 {
		return 0, 0, fmt.Errorf("funcspace: Render2D needs a 2D space, got dim %d", s.Dim())
	}
	member := func(x float64) bool {
		return s.ContainsDirection(geom.Vector{x, 1 - x})
	}
	// Find any member x by grid scan.
	const grid = 4096
	seed := -1.0
	for i := 0; i <= grid; i++ {
		x := float64(i) / grid
		if member(x) {
			seed = x
			break
		}
	}
	if seed < 0 {
		return 0, 0, fmt.Errorf("funcspace: %s contains no 2D direction", s.Name())
	}
	bisect := func(in, out float64) float64 {
		// Invariant: member(in), !member(out).
		for i := 0; i < 64; i++ {
			mid := (in + out) / 2
			if member(mid) {
				in = mid
			} else {
				out = mid
			}
		}
		return in
	}
	c0 = 0
	if !member(0) {
		c0 = bisect(seed, 0)
	}
	c1 = 1
	if !member(1) {
		c1 = bisect(seed, 1)
	}
	return c0, c1, nil
}

// finite reports whether no value is NaN or ±Inf.
func finite(vs ...float64) bool {
	for _, v := range vs {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}
