package algo2d

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"github.com/rankregret/rankregret/internal/dataset"
	"github.com/rankregret/rankregret/internal/funcspace"
	"github.com/rankregret/rankregret/internal/xrand"
)

// goldenOut is a pinned 2D solver output.
type goldenOut struct {
	ids []int
	rr  int
	ok  bool
}

// goldenCase names one 2D solve whose output is pinned in golden2D.
type goldenCase struct {
	name string
	run  func() (Result, bool, error)
}

// snapped is tie-heavy data: ds's points snapped to a grid of step 1/steps,
// so many tuples are exact duplicates and many dual lines cross at one
// point.
func snapped(ds *dataset.Dataset, steps float64) *dataset.Dataset {
	rows := make([][]float64, ds.N())
	for i := range rows {
		rows[i] = []float64{
			math.Round(ds.Value(i, 0)*steps) / steps,
			math.Round(ds.Value(i, 1)*steps) / steps,
		}
	}
	return dataset.MustFromRows(rows)
}

func goldenCases(t *testing.T) []goldenCase {
	island := dataset.SimIsland(xrand.New(1), 10000)
	anti := dataset.Anticorrelated(xrand.New(3), 2000, 2)
	grid := snapped(dataset.Anticorrelated(xrand.New(11), 400, 2), 8)
	grid6 := snapped(dataset.Independent(xrand.New(12), 300, 2), 5)
	ball, err := funcspace.NewBall([]float64{0.5, 0.5}, 0.15)
	if err != nil {
		t.Fatal(err)
	}
	cone, err := funcspace.WeakRanking(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	var cases []goldenCase
	rrm := func(name string, ds *dataset.Dataset, r int, space funcspace.Space) {
		cases = append(cases, goldenCase{name, func() (Result, bool, error) {
			res, err := freshRRM(t.Context(), ds, r, space)
			return res, true, err
		}})
	}
	for r := 9; r <= 15; r++ {
		rrm(fmt.Sprintf("island/full/r=%d", r), island, r, funcspace.NewFull(2))
	}
	for _, r := range []int{1, 3, 5} {
		rrm(fmt.Sprintf("island/ball/r=%d", r), island, r, ball)
		rrm(fmt.Sprintf("island/cone/r=%d", r), island, r, cone)
		rrm(fmt.Sprintf("anti/ball/r=%d", r), anti, r, ball)
		rrm(fmt.Sprintf("anti/cone/r=%d", r), anti, r, cone)
		rrm(fmt.Sprintf("grid/full/r=%d", r), grid, r, funcspace.NewFull(2))
		rrm(fmt.Sprintf("grid6/full/r=%d", r), grid6, r, funcspace.NewFull(2))
		rrm(fmt.Sprintf("grid6/cone/r=%d", r), grid6, r, cone)
	}
	for _, k := range []int{1, 3, 10, 25, 40} {
		cases = append(cases, goldenCase{fmt.Sprintf("grid/rrr/k=%d", k), func() (Result, bool, error) {
			return freshRRR(t.Context(), grid, k, nil)
		}})
		cases = append(cases, goldenCase{fmt.Sprintf("grid/rrr-cone/k=%d", k), func() (Result, bool, error) {
			return freshRRR(t.Context(), grid, k, cone)
		}})
		cases = append(cases, goldenCase{fmt.Sprintf("grid6/rrr/k=%d", k), func() (Result, bool, error) {
			return freshRRR(t.Context(), grid6, k, nil)
		}})
	}
	return cases
}

// TestGolden2D pins the exact 2D solvers' outputs (IDs and rank-regret) to a
// table captured from the sort-based sweep, so any reordering of crossing
// events, start ranks or skyline candidates that changes an answer fails.
func TestGolden2D(t *testing.T) {
	cases := goldenCases(t)
	if len(cases) != len(golden2D) {
		t.Fatalf("%d cases, %d pinned outputs", len(cases), len(golden2D))
	}
	for _, c := range cases {
		res, ok, err := c.run()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		want, pinned := golden2D[c.name]
		if !pinned {
			t.Fatalf("%s: no pinned output", c.name)
		}
		got := goldenOut{ids: res.IDs, rr: res.RankRegret, ok: ok}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: got %+v, want %+v", c.name, got, want)
		}
	}
}

// golden2D holds the outputs of goldenCases as computed by the comparison-sort
// sweep; a case whose ok is false found no set within rank k.
var golden2D = map[string]goldenOut{
	"island/full/r=9":    {[]int{384, 818, 846, 3530, 8020, 9306, 9525}, 1, true},
	"island/full/r=10":   {[]int{384, 818, 846, 3530, 8020, 9306, 9525}, 1, true},
	"island/full/r=11":   {[]int{384, 818, 846, 3530, 8020, 9306, 9525}, 1, true},
	"island/full/r=12":   {[]int{384, 818, 846, 3530, 8020, 9306, 9525}, 1, true},
	"island/full/r=13":   {[]int{384, 818, 846, 3530, 8020, 9306, 9525}, 1, true},
	"island/full/r=14":   {[]int{384, 818, 846, 3530, 8020, 9306, 9525}, 1, true},
	"island/full/r=15":   {[]int{384, 818, 846, 3530, 8020, 9306, 9525}, 1, true},
	"island/ball/r=1":    {[]int{9525}, 1, true},
	"island/cone/r=1":    {[]int{384}, 7, true},
	"anti/ball/r=1":      {[]int{1838}, 657, true},
	"anti/cone/r=1":      {[]int{786}, 28, true},
	"grid/full/r=1":      {[]int{83}, 180, true},
	"grid6/full/r=1":     {[]int{70}, 35, true},
	"grid6/cone/r=1":     {[]int{70}, 35, true},
	"island/ball/r=3":    {[]int{9525}, 1, true},
	"island/cone/r=3":    {[]int{3530, 9116, 9525}, 2, true},
	"anti/ball/r=3":      {[]int{786, 1044, 1900}, 3, true},
	"anti/cone/r=3":      {[]int{508, 1031, 1974}, 3, true},
	"grid/full/r=3":      {[]int{22, 89, 183}, 22, true},
	"grid6/full/r=3":     {[]int{70}, 35, true},
	"grid6/cone/r=3":     {[]int{70}, 35, true},
	"island/ball/r=5":    {[]int{9525}, 1, true},
	"island/cone/r=5":    {[]int{384, 3530, 9306, 9525}, 1, true},
	"anti/ball/r=5":      {[]int{786, 948, 1044, 1900, 1974}, 2, true},
	"anti/cone/r=5":      {[]int{508, 786, 1031, 1044, 1974}, 2, true},
	"grid/full/r=5":      {[]int{22, 89, 183}, 22, true},
	"grid6/full/r=5":     {[]int{70}, 35, true},
	"grid6/cone/r=5":     {[]int{70}, 35, true},
	"grid/rrr/k=1":       {nil, 0, false},
	"grid/rrr-cone/k=1":  {nil, 0, false},
	"grid6/rrr/k=1":      {nil, 0, false},
	"grid/rrr/k=3":       {nil, 0, false},
	"grid/rrr-cone/k=3":  {nil, 0, false},
	"grid6/rrr/k=3":      {nil, 0, false},
	"grid/rrr/k=10":      {nil, 0, false},
	"grid/rrr-cone/k=10": {nil, 0, false},
	"grid6/rrr/k=10":     {nil, 0, false},
	"grid/rrr/k=25":      {[]int{22, 183}, 22, true},
	"grid/rrr-cone/k=25": {nil, 0, false},
	"grid6/rrr/k=25":     {nil, 0, false},
	"grid/rrr/k=40":      {[]int{22, 183}, 22, true},
	"grid/rrr-cone/k=40": {[]int{183}, 35, true},
	"grid6/rrr/k=40":     {[]int{70}, 35, true},
}
