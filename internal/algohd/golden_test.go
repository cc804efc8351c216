package algohd

import (
	"fmt"
	"reflect"
	"testing"

	"github.com/rankregret/rankregret/internal/dataset"
	"github.com/rankregret/rankregret/internal/funcspace"
	"github.com/rankregret/rankregret/internal/xrand"
)

// goldenHDOut is a pinned HDRRM output: the chosen ids and the internal
// rank threshold K.
type goldenHDOut struct {
	ids []int
	k   int
}

// goldenHDCase names one cold HDRRM solve whose output is pinned in goldenHD.
type goldenHDCase struct {
	name  string
	ds    *dataset.Dataset
	r     int
	space funcspace.Space
}

// goldenHDCases covers the CI-scale shapes the cold path is tuned for
// (simweather d=4, simnba d=5) plus synthetic data at d = 3..6, so every
// unrolled and generic width of the batch kernel feeds a pinned answer.
func goldenHDCases(t *testing.T) []goldenHDCase {
	weather := dataset.SimWeather(xrand.New(1), 4000)
	nba := dataset.SimNBA(xrand.New(1), 2000)
	anti4 := dataset.Anticorrelated(xrand.New(3), 2000, 4)
	indep4 := dataset.Independent(xrand.New(4), 2000, 4)
	anti3 := dataset.Anticorrelated(xrand.New(5), 600, 3)
	anti5 := dataset.Anticorrelated(xrand.New(6), 600, 5)
	indep6 := dataset.Independent(xrand.New(7), 500, 6)
	weak, err := funcspace.WeakRanking(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	var cases []goldenHDCase
	add := func(name string, ds *dataset.Dataset, r int, space funcspace.Space) {
		cases = append(cases, goldenHDCase{fmt.Sprintf("%s/r=%d", name, r), ds, r, space})
	}
	for _, r := range []int{8, 10, 12} {
		add("simweather", weather, r, nil)
	}
	for _, r := range []int{6, 8, 10} {
		add("simnba", nba, r, nil)
	}
	for _, r := range []int{12, 16} {
		add("anti4", anti4, r, nil)
	}
	for _, r := range []int{8, 12} {
		add("indep4", indep4, r, nil)
	}
	add("anti3", anti3, 8, nil)
	add("anti5", anti5, 10, nil)
	add("indep6", indep6, 10, nil)
	add("simweather-weak1", weather, 8, weak)
	return cases
}

// TestGoldenHD pins cold HDRRM outputs at CI scale (MaxM 12000, seed 1) to a
// table recorded before the batch kernel accumulated in registers and top-K
// selection was seeded, so any change to scoring or selection that moves an
// answer fails.
func TestGoldenHD(t *testing.T) {
	if testing.Short() {
		t.Skip("CI-scale cold solves")
	}
	cases := goldenHDCases(t)
	if len(cases) != len(goldenHD) {
		t.Fatalf("%d cases, %d pinned outputs", len(cases), len(goldenHD))
	}
	opts := DefaultOptions()
	opts.MaxM = 12000
	for _, c := range cases {
		o := opts
		o.Space = c.space
		res, err := HDRRMCtx(t.Context(), c.ds, c.r, o)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		want, pinned := goldenHD[c.name]
		if !pinned {
			t.Fatalf("%s: no pinned output (got %#v, %d)", c.name, res.IDs, res.K)
		}
		if got := (goldenHDOut{ids: res.IDs, k: res.K}); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: got %+v, want %+v", c.name, got, want)
		}
	}
}

// goldenHD holds the outputs of goldenHDCases.
var goldenHD = map[string]goldenHDOut{
	"simweather/r=8":       {[]int{0, 55, 248, 432, 629, 2102, 2880, 3931}, 50},
	"simweather/r=10":      {[]int{0, 55, 248, 432, 629, 952, 1489, 2102, 3178, 3931}, 24},
	"simweather/r=12":      {[]int{0, 55, 159, 248, 340, 432, 629, 1484, 1489, 3178, 3931}, 18},
	"simnba/r=6":           {[]int{724, 958, 1035, 1610}, 1},
	"simnba/r=8":           {[]int{724, 958, 1035, 1610}, 1},
	"simnba/r=10":          {[]int{724, 958, 1035, 1610}, 1},
	"anti4/r=12":           {[]int{99, 104, 683, 827, 835, 925, 1128, 1272, 1338, 1464, 1594, 1839}, 32},
	"anti4/r=16":           {[]int{99, 104, 130, 140, 676, 683, 806, 827, 835, 925, 1002, 1272, 1464, 1580, 1839}, 17},
	"indep4/r=8":           {[]int{226, 951, 993, 1249, 1449, 1450, 1491, 1744}, 18},
	"indep4/r=12":          {[]int{226, 951, 992, 993, 1032, 1057, 1249, 1449, 1450, 1651, 1744, 1849}, 4},
	"anti3/r=8":            {[]int{52, 53, 88, 110, 192, 327, 480, 481}, 15},
	"anti5/r=10":           {[]int{111, 159, 164, 208, 271, 322, 333, 400, 519, 550}, 80},
	"indep6/r=10":          {[]int{73, 134, 177, 181, 210, 283, 324, 338, 459, 489}, 31},
	"simweather-weak1/r=8": {[]int{0, 55, 248, 432, 917, 1489, 3178, 3699}, 6},
}
