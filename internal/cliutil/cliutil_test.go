package cliutil

import (
	"strings"
	"testing"

	"github.com/rankregret/rankregret/internal/xrand"
)

func TestParseSpaceWeak(t *testing.T) {
	sp, err := ParseSpace("weak:2", 4)
	if err != nil {
		t.Fatal(err)
	}
	if sp.Dim() != 4 {
		t.Errorf("dim = %d, want 4", sp.Dim())
	}
	// u[0] >= u[1] >= u[2] holds for this direction...
	if !sp.ContainsDirection([]float64{0.5, 0.4, 0.3, 0.9}) {
		t.Error("direction satisfying the weak ranking rejected")
	}
	// ...but not for this one.
	if sp.ContainsDirection([]float64{0.1, 0.5, 0.3, 0.9}) {
		t.Error("direction violating the weak ranking accepted")
	}
}

func TestParseSpaceBall(t *testing.T) {
	sp, err := ParseSpace("ball:0.1,0.5,0.5", 2)
	if err != nil {
		t.Fatal(err)
	}
	if sp.Dim() != 2 {
		t.Errorf("dim = %d, want 2", sp.Dim())
	}
	if !sp.ContainsDirection([]float64{0.5, 0.5}) {
		t.Error("center direction rejected")
	}
	if sp.ContainsDirection([]float64{1, 0}) {
		t.Error("far-away direction accepted")
	}
}

func TestParseSpaceMalformed(t *testing.T) {
	cases := []struct {
		name string
		spec string
		d    int
	}{
		{"non-numeric c", "weak:x", 4},
		{"c out of range high", "weak:4", 4},
		{"c out of range low", "weak:0", 4},
		{"weak missing c", "weak:", 4},
		{"ball wrong coordinate count", "ball:0.1,0.5", 2},
		{"ball too many coordinates", "ball:0.1,0.5,0.5,0.5", 2},
		{"ball non-numeric fields", "ball:0.1,a,b", 2},
		{"ball empty", "ball:", 2},
		{"ball NaN radius", "ball:NaN,0.5,0.5,0.5", 3},
		{"ball infinite center", "ball:0.1,Inf,0.5", 2},
		{"unknown kind", "sphere:1", 2},
		{"empty", "", 2},
		{"bare word", "weak", 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := ParseSpace(tc.spec, tc.d); err == nil {
				t.Errorf("ParseSpace(%q, %d) should fail", tc.spec, tc.d)
			}
		})
	}
}

func TestParseNegate(t *testing.T) {
	got, err := ParseNegate(" 2, 4 ")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != 2 || got[1] != 4 {
		t.Errorf("ParseNegate = %v, want [2 4]", got)
	}
	if got, err := ParseNegate(""); err != nil || got != nil {
		t.Errorf("empty spec: got %v, %v", got, err)
	}
	for _, bad := range []string{"a", "1,,2", "1,b", ","} {
		if _, err := ParseNegate(bad); err == nil {
			t.Errorf("ParseNegate(%q) should fail", bad)
		}
	}
}

func TestLoadCSV(t *testing.T) {
	const csvData = "price,mpg\n100,30\n200,50\n150,10\n"
	ds, err := LoadCSV(strings.NewReader(csvData), true, []int{0}, true)
	if err != nil {
		t.Fatal(err)
	}
	if ds.N() != 3 || ds.Dim() != 2 {
		t.Fatalf("n=%d d=%d, want 3x2", ds.N(), ds.Dim())
	}
	// Column 0 was negated (smaller-is-better) then normalized: the cheapest
	// row (100) must carry the best (largest) value.
	if ds.Value(0, 0) != 1 {
		t.Errorf("negated+normalized price of cheapest row = %v, want 1", ds.Value(0, 0))
	}
	// Negate column out of range must fail.
	if _, err := LoadCSV(strings.NewReader(csvData), true, []int{7}, true); err == nil {
		t.Error("out-of-range negate column should fail")
	}
}

// FuzzParseSpace feeds ParseSpace arbitrary specs, as a client's "space"
// field would. It must reject a spec with an error, or return a space of
// the requested dimension whose Sample and ContainsDirection do not panic,
// whatever the direction they are given.
func FuzzParseSpace(f *testing.F) {
	for _, seed := range []struct {
		spec string
		d    uint8
	}{
		{"weak:2", 4}, {"weak:5", 6}, {"weak:-1", 3}, {"weak:99999999999999999999", 3},
		{"ball:0.1,0.5,0.5", 2}, {"ball:0.1,0.5,0.5,0.5", 2}, {"ball:", 1},
		{"ball:1e308,1e308,1e308", 2}, {"ball:0.1,NaN,0.5", 2}, {"ball:5e-324,1,1", 2},
	} {
		f.Add(seed.spec, seed.d)
	}
	f.Fuzz(func(t *testing.T, spec string, dd uint8) {
		d := int(dd)%6 + 1
		sp, err := ParseSpace(spec, d)
		if err != nil {
			return
		}
		if sp.Dim() != d {
			t.Fatalf("ParseSpace(%q, %d).Dim() = %d", spec, d, sp.Dim())
		}
		rng := xrand.New(int64(dd))
		dirs := [][]float64{make([]float64, d), make([]float64, d+1), rng.UnitOrthantDirection(d)}
		for i := 0; i < d; i++ {
			e := make([]float64, d)
			e[i] = 1
			dirs = append(dirs, e)
		}
		for i := 0; i < 3; i++ {
			u := sp.Sample(rng)
			if u != nil && len(u) != d {
				t.Fatalf("ParseSpace(%q, %d).Sample() has length %d", spec, d, len(u))
			}
			dirs = append(dirs, u)
		}
		for _, u := range dirs {
			sp.ContainsDirection(u)
		}
	})
}
