// Package lp implements a small dense linear-programming solver: the primal
// simplex method with Bland's anti-cycling rule over the standard form
//
//	maximize c.x subject to A.x <= b, x >= 0.
//
// The rank-regret code uses it for U-dominance tests on general convex
// polytope utility spaces (Definition 5: t U-dominates t' iff the minimum of
// (t - t').u over U is >= 0) and for the MDRRR baseline's feasibility checks.
// Problem sizes are tiny (d variables, at most a few dozen constraints), so a
// dense tableau is the right tool; no sparse machinery, no external
// dependencies.
package lp

import (
	"errors"
	"fmt"
	"math"
)

// Status describes the outcome of a solve.
type Status int

const (
	// Optimal means an optimal solution was found.
	Optimal Status = iota
	// Unbounded means the objective can be made arbitrarily large.
	Unbounded
	// Infeasible means no point satisfies the constraints.
	Infeasible
)

func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Unbounded:
		return "unbounded"
	case Infeasible:
		return "infeasible"
	default:
		return fmt.Sprintf("Status(%d)", int(s))
	}
}

// ErrNumeric is returned when the tableau degrades numerically (it should
// not happen at the scales this repository uses).
var ErrNumeric = errors.New("lp: numerical failure")

const eps = 1e-9

// Result holds the solution of a solve.
type Result struct {
	Status Status
	// X is the optimal assignment (length = number of variables) when
	// Status == Optimal.
	X []float64
	// Objective is c.X when Status == Optimal.
	Objective float64
}

// Maximize solves max c.x s.t. A.x <= b, x >= 0 using the two-phase primal
// simplex method. A has one row per constraint; rows must all have len(c)
// columns. b entries may be negative (phase one handles them).
func Maximize(c []float64, a [][]float64, b []float64) (Result, error) {
	n := len(c)
	m := len(a)
	if len(b) != m {
		return Result{}, fmt.Errorf("lp: %d constraint rows but %d bounds", m, len(b))
	}
	for i, row := range a {
		if len(row) != n {
			return Result{}, fmt.Errorf("lp: constraint row %d has %d coefficients, want %d", i, len(row), n)
		}
	}
	if n == 0 {
		return Result{Status: Optimal, X: nil, Objective: 0}, nil
	}

	t := newTableau(c, a, b)
	if t.needsPhaseOne() {
		if err := t.phaseOne(); err != nil {
			return Result{}, err
		}
		if t.infeasible {
			return Result{Status: Infeasible}, nil
		}
	}
	if err := t.phaseTwo(); err != nil {
		return Result{}, err
	}
	if t.unbounded {
		return Result{Status: Unbounded}, nil
	}
	x := t.solution()
	obj := 0.0
	for j, cj := range c {
		obj += cj * x[j]
	}
	return Result{Status: Optimal, X: x, Objective: obj}, nil
}

// Minimize solves min c.x s.t. A.x <= b, x >= 0 by negating the objective.
func Minimize(c []float64, a [][]float64, b []float64) (Result, error) {
	neg := make([]float64, len(c))
	for i, v := range c {
		neg[i] = -v
	}
	res, err := Maximize(neg, a, b)
	if err != nil || res.Status != Optimal {
		return res, err
	}
	res.Objective = -res.Objective
	return res, nil
}

// tableau is a dense simplex tableau with m rows (constraints) and columns
// for the n structural variables, m slack variables, and (during phase one)
// artificial variables.
type tableau struct {
	n, m       int
	cols       int // total columns excluding the RHS
	rows       [][]float64
	rhs        []float64
	basis      []int // basis[i] = column basic in row i
	obj        []float64
	objRHS     float64 // objective value of the current basic solution
	artStart   int     // first artificial column, or -1
	banFrom    int     // columns >= banFrom may not enter the basis (-1: none)
	infeasible bool
	unbounded  bool
}

func newTableau(c []float64, a [][]float64, b []float64) *tableau {
	n, m := len(c), len(a)
	t := &tableau{n: n, m: m, artStart: -1, banFrom: -1}
	t.cols = n + m
	t.rows = make([][]float64, m)
	t.rhs = make([]float64, m)
	t.basis = make([]int, m)
	for i := 0; i < m; i++ {
		row := make([]float64, t.cols)
		copy(row, a[i])
		row[n+i] = 1 // slack
		t.rows[i] = row
		t.rhs[i] = b[i]
		t.basis[i] = n + i
	}
	t.obj = make([]float64, t.cols)
	copy(t.obj, c)
	return t
}

func (t *tableau) needsPhaseOne() bool {
	for _, v := range t.rhs {
		if v < -eps {
			return true
		}
	}
	return false
}

// phaseOne introduces artificial variables for rows with negative RHS and
// minimizes their sum.
func (t *tableau) phaseOne() error {
	art := 0
	for i := 0; i < t.m; i++ {
		if t.rhs[i] < -eps {
			art++
		}
	}
	t.artStart = t.cols
	newCols := t.cols + art
	k := t.cols
	for i := 0; i < t.m; i++ {
		grown := make([]float64, newCols)
		copy(grown, t.rows[i])
		t.rows[i] = grown
		if t.rhs[i] < -eps {
			// Negate the row so RHS is positive, then add an artificial.
			for j := range t.rows[i] {
				t.rows[i][j] = -t.rows[i][j]
			}
			t.rhs[i] = -t.rhs[i]
			t.rows[i][k] = 1
			t.basis[i] = k
			k++
		}
	}
	t.cols = newCols

	// Phase-one objective: maximize -(sum of artificials). With artificial
	// a_k basic in row k, -sum(a_k) = -sum(rhs_k) + sum_j (sum_k row_k[j]) x_j,
	// so the reduced costs are the column sums over artificial rows (with
	// artificial columns themselves banned from entering) and the starting
	// objective value is -sum(rhs_k).
	phase := make([]float64, t.cols)
	var phaseRHS float64
	for i := 0; i < t.m; i++ {
		if t.basis[i] >= t.artStart {
			for j := 0; j < t.artStart; j++ {
				phase[j] += t.rows[i][j]
			}
			phaseRHS += t.rhs[i]
		}
	}
	savedObj, savedRHS := t.obj, t.objRHS
	t.obj, t.objRHS = phase, -phaseRHS
	t.banFrom = t.artStart
	if err := t.iterate(); err != nil {
		return err
	}
	if t.unbounded {
		return fmt.Errorf("%w: phase one unbounded", ErrNumeric)
	}
	if t.objRHS < -eps {
		t.infeasible = true
		return nil
	}
	// Drive any remaining artificial variables out of the basis.
	for i := 0; i < t.m; i++ {
		if t.basis[i] >= t.artStart {
			pivoted := false
			for j := 0; j < t.artStart; j++ {
				if math.Abs(t.rows[i][j]) > eps {
					t.pivot(i, j)
					pivoted = true
					break
				}
			}
			if !pivoted {
				// Redundant row; leave the artificial basic at zero.
				continue
			}
		}
	}
	// Restore the real objective, priced out against the current basis.
	t.obj = make([]float64, t.cols)
	copy(t.obj, savedObj)
	t.objRHS = savedRHS
	for i := 0; i < t.m; i++ {
		bj := t.basis[i]
		cb := t.obj[bj]
		if cb != 0 {
			for j := 0; j < t.cols; j++ {
				t.obj[j] -= cb * t.rows[i][j]
			}
			t.objRHS += cb * t.rhs[i]
		}
	}
	// Artificials stay banned from entering in phase two (banFrom persists).
	return nil
}

func (t *tableau) phaseTwo() error {
	if t.artStart < 0 {
		// Price out the objective against the (slack) basis: slacks have zero
		// cost, so nothing to do.
	}
	return t.iterate()
}

// iterate runs simplex pivots (Bland's rule) until optimal or unbounded.
func (t *tableau) iterate() error {
	maxIter := 200 * (t.cols + t.m + 10)
	for iter := 0; iter < maxIter; iter++ {
		// Entering variable: first column with positive reduced cost
		// (Bland's rule), skipping banned (artificial) columns.
		limit := t.cols
		if t.banFrom >= 0 && t.banFrom < limit {
			limit = t.banFrom
		}
		enter := -1
		for j := 0; j < limit; j++ {
			if t.obj[j] > eps {
				enter = j
				break
			}
		}
		if enter < 0 {
			return nil // optimal
		}
		// Leaving row: min ratio, ties by smallest basis index (Bland).
		leave := -1
		bestRatio := math.Inf(1)
		for i := 0; i < t.m; i++ {
			aij := t.rows[i][enter]
			if aij > eps {
				ratio := t.rhs[i] / aij
				if ratio < bestRatio-eps || (ratio < bestRatio+eps && (leave < 0 || t.basis[i] < t.basis[leave])) {
					bestRatio = ratio
					leave = i
				}
			}
		}
		if leave < 0 {
			t.unbounded = true
			return nil
		}
		t.pivot(leave, enter)
	}
	return fmt.Errorf("%w: iteration limit exceeded", ErrNumeric)
}

// pivot makes column enter basic in row leave.
func (t *tableau) pivot(leave, enter int) {
	p := t.rows[leave][enter]
	inv := 1 / p
	for j := 0; j < t.cols; j++ {
		t.rows[leave][j] *= inv
	}
	t.rhs[leave] *= inv
	for i := 0; i < t.m; i++ {
		if i == leave {
			continue
		}
		f := t.rows[i][enter]
		if f == 0 {
			continue
		}
		for j := 0; j < t.cols; j++ {
			t.rows[i][j] -= f * t.rows[leave][j]
		}
		t.rhs[i] -= f * t.rhs[leave]
	}
	f := t.obj[enter]
	if f != 0 {
		for j := 0; j < t.cols; j++ {
			t.obj[j] -= f * t.rows[leave][j]
		}
		t.objRHS += f * t.rhs[leave]
	}
	t.basis[leave] = enter
}

func (t *tableau) solution() []float64 {
	x := make([]float64, t.n)
	for i, bj := range t.basis {
		if bj < t.n {
			x[bj] = t.rhs[i]
		}
	}
	// Clean tiny negatives from roundoff.
	for j := range x {
		if x[j] < 0 && x[j] > -eps {
			x[j] = 0
		}
	}
	return x
}
