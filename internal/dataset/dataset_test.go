package dataset

import (
	"math"
	"slices"
	"testing"
	"testing/quick"

	"github.com/rankregret/rankregret/internal/xrand"
)

func TestBasicAccessors(t *testing.T) {
	ds := TableI()
	if ds.N() != 7 || ds.Dim() != 2 {
		t.Fatalf("N=%d Dim=%d, want 7, 2", ds.N(), ds.Dim())
	}
	if ds.Value(2, 0) != 0.57 || ds.Value(2, 1) != 0.75 {
		t.Errorf("Value(2) = (%v,%v)", ds.Value(2, 0), ds.Value(2, 1))
	}
	row := ds.Row(3)
	if row[0] != 0.79 || row[1] != 0.6 {
		t.Errorf("Row(3) = %v", row)
	}
}

func TestFromRowsErrors(t *testing.T) {
	if _, err := FromRows(nil); err == nil {
		t.Error("FromRows(nil) should fail")
	}
	if _, err := FromRows([][]float64{{}}); err == nil {
		t.Error("FromRows with empty row should fail")
	}
	if _, err := FromRows([][]float64{{1, 2}, {3}}); err == nil {
		t.Error("FromRows with ragged rows should fail")
	}
}

func TestUtility(t *testing.T) {
	ds := TableI()
	u := []float64{0.7, 0.3}
	// t3 = (0.57, 0.75): 0.7*0.57 + 0.3*0.75 = 0.624.
	if got := ds.Utility(u, 2); math.Abs(got-0.624) > 1e-12 {
		t.Errorf("Utility = %v, want 0.624", got)
	}
	all := ds.Utilities(u, nil)
	if len(all) != 7 {
		t.Fatalf("Utilities returned %d values", len(all))
	}
	for i := range all {
		if math.Abs(all[i]-ds.Utility(u, i)) > 1e-12 {
			t.Errorf("Utilities[%d] inconsistent with Utility", i)
		}
	}
	// Reuse path.
	buf := make([]float64, 7)
	got := ds.Utilities(u, buf)
	if &got[0] != &buf[0] {
		t.Error("Utilities did not reuse provided buffer")
	}
}

func TestUtilitiesHigherDim(t *testing.T) {
	rng := xrand.New(11)
	ds := Independent(rng, 50, 5)
	u := []float64{0.1, 0.2, 0.3, 0.25, 0.15}
	all := ds.Utilities(u, nil)
	for i := 0; i < ds.N(); i++ {
		if math.Abs(all[i]-ds.Utility(u, i)) > 1e-12 {
			t.Fatalf("Utilities[%d] mismatch in 5D", i)
		}
	}
}

func TestNormalize(t *testing.T) {
	ds := MustFromRows([][]float64{
		{10, 5, 3},
		{20, 5, 1},
		{15, 5, 2},
	})
	mins, maxs := ds.Normalize()
	if mins[0] != 10 || maxs[0] != 20 {
		t.Errorf("attr 0 range = [%v,%v]", mins[0], maxs[0])
	}
	if ds.Value(0, 0) != 0 || ds.Value(1, 0) != 1 || ds.Value(2, 0) != 0.5 {
		t.Errorf("attr 0 after normalize: %v %v %v", ds.Value(0, 0), ds.Value(1, 0), ds.Value(2, 0))
	}
	// Constant attribute becomes zero.
	for i := 0; i < 3; i++ {
		if ds.Value(i, 1) != 0 {
			t.Errorf("constant attr not zeroed: row %d = %v", i, ds.Value(i, 1))
		}
	}
	// Third attribute maxes at 1.
	if ds.Value(0, 2) != 1 {
		t.Errorf("attr 2 max = %v", ds.Value(0, 2))
	}
}

func TestShiftAndNegate(t *testing.T) {
	ds := TableI()
	orig := ds.Clone()
	ds.Shift([]float64{0, 4})
	for i := 0; i < ds.N(); i++ {
		if ds.Value(i, 0) != orig.Value(i, 0) || ds.Value(i, 1) != orig.Value(i, 1)+4 {
			t.Fatalf("Shift wrong at row %d", i)
		}
	}
	ds.Negate(1)
	for i := 0; i < ds.N(); i++ {
		if ds.Value(i, 1) != -(orig.Value(i, 1) + 4) {
			t.Fatalf("Negate wrong at row %d", i)
		}
	}
}

func TestBasis(t *testing.T) {
	ds := TableI()
	b := ds.Basis()
	// Max A1 is t7 (index 6), max A2 is t1 (index 0).
	if b[0] != 6 || b[1] != 0 {
		t.Errorf("Basis = %v, want [6 0]", b)
	}
}

// scanBasis is Basis without the memo: per attribute, the first tuple
// holding the column's maximum.
func scanBasis(ds *Dataset) []int {
	out := make([]int, ds.Dim())
	for j := range out {
		for i := 1; i < ds.N(); i++ {
			if ds.Value(i, j) > ds.Value(out[j], j) {
				out[j] = i
			}
		}
	}
	return out
}

// requireBasis checks ds.Basis against a fresh column scan. The first call
// may fill the memo and the later ones read it; sorting each returned
// slice must leave the memo as it was.
func requireBasis(t *testing.T, ds *Dataset, step string) {
	t.Helper()
	want := scanBasis(ds)
	for range 3 {
		got := ds.Basis()
		if !slices.Equal(got, want) {
			t.Fatalf("%s: Basis = %v, column scan %v", step, got, want)
		}
		slices.Sort(got)
	}
}

// TestBasisMemoInvalidation memoizes the basis before every mutator and
// requires the next Basis to equal a fresh column scan. The steps marked
// moves change some attribute's boundary tuple, so a stale memo shows; a
// shift or a min-max scaling never can.
func TestBasisMemoInvalidation(t *testing.T) {
	ds := TableI() // basis [6 0]: not ascending, so sorting a copy shows
	requireBasis(t, ds, "initial")
	steps := []struct {
		name  string
		moves bool
		run   func(*Dataset) error
	}{
		{"Append", true, func(ds *Dataset) error { ds.Append([]float64{2, 0}); return nil }},
		{"Delete", true, func(ds *Dataset) error { return ds.Delete([]int{0}) }},
		{"Negate", true, func(ds *Dataset) error { ds.Negate(1); return nil }},
		{"Shift", false, func(ds *Dataset) error { ds.Shift([]float64{1, -1}); return nil }},
		{"Normalize", false, func(ds *Dataset) error { ds.Normalize(); return nil }},
		{"SetAttrs", false, func(ds *Dataset) error { return ds.SetAttrs([]string{"x", "y"}) }},
		{"Append again", true, func(ds *Dataset) error { ds.Append([]float64{0, 5}); return nil }},
		{"Negate again", true, func(ds *Dataset) error { ds.Negate(0); return nil }},
	}
	for _, st := range steps {
		before := ds.Basis()
		if err := st.run(ds); err != nil {
			t.Fatalf("%s: %v", st.name, err)
		}
		requireBasis(t, ds, st.name)
		if st.moves && slices.Equal(before, ds.Basis()) {
			t.Fatalf("%s left the basis at %v: the step tests no invalidation", st.name, before)
		}
	}
	// A snapshot carries the memo; mutating it leaves the source's alone.
	snap := ds.Snapshot()
	want := ds.Basis()
	snap.Negate(1)
	requireBasis(t, snap, "snapshot Negate")
	if got := ds.Basis(); !slices.Equal(got, want) {
		t.Fatalf("source Basis after mutating its snapshot = %v, want %v", got, want)
	}
}

func TestSubsetHeadProject(t *testing.T) {
	ds := TableI()
	sub := ds.Subset([]int{2, 0})
	if sub.N() != 2 || sub.Value(0, 0) != 0.57 || sub.Value(1, 1) != 1 {
		t.Errorf("Subset wrong: %v", sub)
	}
	h := ds.Head(3)
	if h.N() != 3 || h.Value(2, 0) != 0.57 {
		t.Errorf("Head wrong")
	}
	if ds.Head(100).N() != 7 {
		t.Errorf("Head beyond N should clamp")
	}
	p, err := ds.Project([]int{1})
	if err != nil || p.Dim() != 1 || p.Value(0, 0) != 1 {
		t.Errorf("Project wrong: %v %v", p, err)
	}
	if _, err := ds.Project([]int{5}); err == nil {
		t.Error("Project out of range should fail")
	}
	if _, err := ds.Project(nil); err == nil {
		t.Error("Project with no columns should fail")
	}
}

func TestCloneIsDeep(t *testing.T) {
	ds := TableI()
	c := ds.Clone()
	c.Row(0)[0] = 99
	if ds.Value(0, 0) == 99 {
		t.Error("Clone shares storage")
	}
}

// Property: normalization leaves every value in [0,1] with each
// non-constant attribute attaining both endpoints.
func TestNormalizeProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := xrand.New(seed)
		n, d := 2+rng.Intn(40), 1+rng.Intn(5)
		ds := New(d)
		row := make([]float64, d)
		for i := 0; i < n; i++ {
			for j := range row {
				row[j] = rng.NormFloat64() * 100
			}
			ds.Append(row)
		}
		ds.Normalize()
		seenMax := make([]bool, d)
		seenMin := make([]bool, d)
		for i := 0; i < n; i++ {
			for j := 0; j < d; j++ {
				v := ds.Value(i, j)
				if v < 0 || v > 1 {
					return false
				}
				if v == 1 {
					seenMax[j] = true
				}
				if v == 0 {
					seenMin[j] = true
				}
			}
		}
		for j := 0; j < d; j++ {
			if !seenMax[j] || !seenMin[j] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: shifting commutes with utility up to the constant sum(u*delta)
// (the heart of Theorem 1's proof).
func TestShiftUtilityProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := xrand.New(seed)
		d := 2 + rng.Intn(4)
		ds := Independent(rng, 20, d)
		delta := make([]float64, d)
		for j := range delta {
			delta[j] = rng.Float64() * 10
		}
		u := rng.UnitOrthantDirection(d)
		before := ds.Utilities(u, nil)
		shift := 0.0
		for j := range delta {
			shift += u[j] * delta[j]
		}
		ds.Shift(delta)
		after := ds.Utilities(u, nil)
		for i := range before {
			if math.Abs(after[i]-(before[i]+shift)) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
