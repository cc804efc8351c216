package engine

import (
	"fmt"
	"reflect"
	"testing"

	"github.com/rankregret/rankregret/internal/algohd"
	"github.com/rankregret/rankregret/internal/dataset"
	"github.com/rankregret/rankregret/internal/funcspace"
	"github.com/rankregret/rankregret/internal/geom"
	"github.com/rankregret/rankregret/internal/xrand"
)

// goldenOut is a pinned engine answer.
type goldenOut struct {
	ids   []int
	rr    int
	exact bool
}

// goldenCase names one engine solve whose answer is pinned in goldenEngine.
type goldenCase struct {
	name   string
	ds     *dataset.Dataset
	rk     int  // r in RRM mode, k in RRR mode
	rrr    bool // solve the dual problem through SolveRRR
	solver Solver
	opts   Options
}

// goldenCases covers every registry solver and the three HDRRM ablations in
// RRM mode, plus RRR mode for 2drrm and hdrrm, on small seeded datasets at
// d = 2 (island and anticorrelated), 3 and 5: the full space everywhere and a weak-ranking space
// wherever the solver accepts one, plus one Gaussian-preference hdrrm.
func goldenCases(t *testing.T) []goldenCase {
	type dsCase struct {
		name string
		ds   *dataset.Dataset
		r, k int
	}
	sets := []dsCase{
		{"island", dataset.SimIsland(xrand.New(1), 200), 2, 3},
		{"anti2", dataset.Anticorrelated(xrand.New(2), 150, 2), 4, 6},
		{"anti3", dataset.Anticorrelated(xrand.New(5), 200, 3), 6, 10},
		{"nba", dataset.SimNBA(xrand.New(1), 200), 6, 10},
	}
	// restricted reports whether a solver accepts Options.Space.
	restricted := map[string]bool{AlgoTwoDRRR: false, AlgoMDRC: false}
	solvers := []Solver{
		VariantSolver(algohd.Variant{NoBasis: true}),
		VariantSolver(algohd.Variant{NoGrid: true}),
		VariantSolver(algohd.Variant{NoSamples: true}),
	}
	for _, name := range []string{AlgoTwoDRRM, AlgoHDRRM, AlgoTwoDRRR, AlgoMDRRRr, AlgoMDRC, AlgoMDRMS, AlgoMDRRR, AlgoRMSGreedy, AlgoSkylineOnly} {
		s, _ := Lookup(name)
		solvers = append(solvers, s)
	}
	base := Options{Seed: 1, MaxSamples: 1000}
	var cases []goldenCase
	for _, sc := range sets {
		weak, err := funcspace.WeakRanking(sc.ds.Dim(), 1)
		if err != nil {
			t.Fatal(err)
		}
		spaces := []struct {
			name  string
			space funcspace.Space
		}{{"full", nil}, {"weak1", weak}}
		for _, sp := range spaces {
			o := base
			o.Space = sp.space
			for _, s := range solvers {
				if ok, listed := restricted[s.Name()]; sp.space != nil && listed && !ok {
					continue
				}
				if (s.Name() == AlgoTwoDRRM || s.Name() == AlgoTwoDRRR) && sc.ds.Dim() != 2 {
					continue
				}
				prefix := fmt.Sprintf("%s/%s/%s", sc.name, sp.name, s.Name())
				cases = append(cases, goldenCase{prefix + "/r=" + fmt.Sprint(sc.r), sc.ds, sc.r, false, s, o})
				if _, dual := s.(DualSolver); dual {
					cases = append(cases, goldenCase{prefix + "/rrr/k=" + fmt.Sprint(sc.k), sc.ds, sc.k, true, s, o})
				}
			}
		}
	}
	gauss, err := algohd.GaussianPreference(geom.Vector{0.5, 0.3, 0.2}, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	o := base
	o.Sampler = gauss
	hd, _ := Lookup(AlgoHDRRM)
	cases = append(cases, goldenCase{"anti3/gauss/hdrrm/r=6", sets[2].ds, 6, false, hd, o})
	return cases
}

// TestGoldenEngine pins the answers of every engine solver to a table
// recorded when the HD solves still forked between the VecSet tier and a
// private build. Each case runs through a caching engine (the tier path)
// and an uncached one (the private path); both must match the table.
func TestGoldenEngine(t *testing.T) {
	cases := goldenCases(t)
	if len(cases) != len(goldenEngine) {
		t.Errorf("%d cases, %d pinned outputs", len(cases), len(goldenEngine))
	}
	engines := []struct {
		name string
		e    *Engine
	}{{"tier", New(0)}, {"private", New(-1)}}
	for _, c := range cases {
		want, pinned := goldenEngine[c.name]
		for _, en := range engines {
			var sol *Solution
			var err error
			if c.rrr {
				sol, err = en.e.SolveRRR(t.Context(), c.ds, c.rk, c.solver.Name(), c.opts)
			} else {
				sol, err = en.e.SolveWith(t.Context(), c.ds, c.rk, c.solver, c.opts)
			}
			if err != nil {
				t.Fatalf("%s (%s): %v", c.name, en.name, err)
			}
			got := goldenOut{ids: sol.IDs, rr: sol.RankRegret, exact: sol.Exact}
			if !pinned {
				t.Errorf("%s (%s): no pinned output; got\n\t%q: {%#v, %d, %v},", c.name, en.name, c.name, got.ids, got.rr, got.exact)
				continue
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s (%s): got %+v, want %+v", c.name, en.name, got, want)
			}
		}
	}
}

// goldenEngine holds the answers of goldenCases.
var goldenEngine = map[string]goldenOut{
	"island/full/hdrrm:no-basis/r=2":    {[]int{42, 99}, 5, false},
	"island/full/hdrrm:no-grid/r=2":     {[]int{123, 190}, 26, false},
	"island/full/hdrrm:no-samples/r=2":  {[]int{123, 190}, 23, false},
	"island/full/2drrm/r=2":             {[]int{39, 99}, 5, true},
	"island/full/2drrm/rrr/k=3":         {[]int{39, 99, 190}, 2, true},
	"island/full/hdrrm/r=2":             {[]int{123, 190}, 26, false},
	"island/full/hdrrm/rrr/k=3":         {[]int{99, 123, 190}, 3, false},
	"island/full/2drrr/r=2":             {[]int{39, 99}, 5, true},
	"island/full/mdrrrr/r=2":            {[]int{42, 99}, 5, false},
	"island/full/mdrc/r=2":              {[]int{99, 190}, 0, false},
	"island/full/mdrms/r=2":             {[]int{99, 190}, 0, false},
	"island/full/mdrrr/r=2":             {[]int{42, 99}, 5, false},
	"island/full/rms-greedy/r=2":        {[]int{99, 190}, 0, false},
	"island/full/skyline/r=2":           {[]int{39, 99}, 0, false},
	"island/weak1/hdrrm:no-basis/r=2":   {[]int{39, 99}, 2, false},
	"island/weak1/hdrrm:no-grid/r=2":    {[]int{123, 190}, 27, false},
	"island/weak1/hdrrm:no-samples/r=2": {[]int{123, 190}, 23, false},
	"island/weak1/2drrm/r=2":            {[]int{39, 99}, 2, true},
	"island/weak1/2drrm/rrr/k=3":        {[]int{39, 99}, 2, true},
	"island/weak1/hdrrm/r=2":            {[]int{123, 190}, 27, false},
	"island/weak1/hdrrm/rrr/k=3":        {[]int{99, 123, 190}, 3, false},
	"island/weak1/mdrrrr/r=2":           {[]int{39, 99}, 2, false},
	"island/weak1/mdrms/r=2":            {[]int{99, 123}, 0, false},
	"island/weak1/mdrrr/r=2":            {[]int{39, 99}, 2, false},
	"island/weak1/rms-greedy/r=2":       {[]int{99, 123}, 0, false},
	"island/weak1/skyline/r=2":          {[]int{39, 99}, 0, false},
	"anti2/full/hdrrm:no-basis/r=4":     {[]int{35, 57, 69, 124}, 2, false},
	"anti2/full/hdrrm:no-grid/r=4":      {[]int{35, 57, 69, 124}, 2, false},
	"anti2/full/hdrrm:no-samples/r=4":   {[]int{35, 69, 124}, 1, false},
	"anti2/full/2drrm/r=4":              {[]int{35, 57, 69, 124}, 2, true},
	"anti2/full/2drrm/rrr/k=6":          {[]int{35, 69, 93}, 3, true},
	"anti2/full/hdrrm/r=4":              {[]int{35, 57, 69, 124}, 2, false},
	"anti2/full/hdrrm/rrr/k=6":          {[]int{35, 113, 124}, 6, false},
	"anti2/full/2drrr/r=4":              {[]int{35, 69, 93}, 3, true},
	"anti2/full/mdrrrr/r=4":             {[]int{35, 69, 93, 124}, 2, false},
	"anti2/full/mdrc/r=4":               {[]int{35, 69, 93, 124}, 0, false},
	"anti2/full/mdrms/r=4":              {[]int{35, 69, 93, 124}, 0, false},
	"anti2/full/mdrrr/r=4":              {[]int{35, 69, 93, 124}, 2, false},
	"anti2/full/rms-greedy/r=4":         {[]int{7, 23, 59, 93}, 0, false},
	"anti2/full/skyline/r=4":            {[]int{0, 7, 12, 13}, 0, false},
	"anti2/weak1/hdrrm:no-basis/r=4":    {[]int{57, 69, 93, 124}, 1, false},
	"anti2/weak1/hdrrm:no-grid/r=4":     {[]int{35, 57, 124}, 2, false},
	"anti2/weak1/hdrrm:no-samples/r=4":  {[]int{35, 69, 124}, 1, false},
	"anti2/weak1/2drrm/r=4":             {[]int{57, 69, 93, 124}, 1, true},
	"anti2/weak1/2drrm/rrr/k=6":         {[]int{93}, 5, true},
	"anti2/weak1/hdrrm/r=4":             {[]int{35, 57, 124}, 2, false},
	"anti2/weak1/hdrrm/rrr/k=6":         {[]int{23, 35, 124}, 6, false},
	"anti2/weak1/mdrrrr/r=4":            {[]int{57, 69, 93, 124}, 1, false},
	"anti2/weak1/mdrms/r=4":             {[]int{57, 69, 93, 124}, 0, false},
	"anti2/weak1/mdrrr/r=4":             {[]int{57, 69, 93, 124}, 1, false},
	"anti2/weak1/rms-greedy/r=4":        {[]int{57, 69, 93, 124}, 0, false},
	"anti2/weak1/skyline/r=4":           {[]int{57, 69, 93, 124}, 0, false},
	"anti3/full/hdrrm:no-basis/r=6":     {[]int{32, 52, 63, 74, 85, 175}, 12, false},
	"anti3/full/hdrrm:no-grid/r=6":      {[]int{26, 38, 52, 54, 88, 110}, 15, false},
	"anti3/full/hdrrm:no-samples/r=6":   {[]int{26, 54, 63, 67, 88, 110}, 8, false},
	"anti3/full/hdrrm/r=6":              {[]int{26, 38, 52, 54, 88, 110}, 15, false},
	"anti3/full/hdrrm/rrr/k=10":         {[]int{26, 52, 53, 54, 88, 91, 110}, 10, false},
	"anti3/full/mdrrrr/r=6":             {[]int{52, 54, 63, 121, 141, 192}, 7, false},
	"anti3/full/mdrc/r=6":               {[]int{48, 54, 63, 141}, 0, false},
	"anti3/full/mdrms/r=6":              {[]int{39, 52, 63, 74, 108, 141}, 0, false},
	"anti3/full/mdrrr/r=6":              {[]int{52, 54, 63, 121, 141, 192}, 8, false},
	"anti3/full/rms-greedy/r=6":         {[]int{0, 6, 17, 38, 100, 156}, 0, false},
	"anti3/full/skyline/r=6":            {[]int{0, 1, 3, 4, 5, 6}, 0, false},
	"anti3/weak1/hdrrm:no-basis/r=6":    {[]int{39, 48, 52, 54, 74}, 4, false},
	"anti3/weak1/hdrrm:no-grid/r=6":     {[]int{52, 54, 74, 88, 110, 141}, 5, false},
	"anti3/weak1/hdrrm:no-samples/r=6":  {[]int{52, 54, 67, 74, 88, 110}, 4, false},
	"anti3/weak1/hdrrm/r=6":             {[]int{52, 54, 74, 88, 110, 141}, 5, false},
	"anti3/weak1/hdrrm/rrr/k=10":        {[]int{26, 52, 54, 88, 110}, 10, false},
	"anti3/weak1/mdrrrr/r=6":            {[]int{39, 48, 52, 54, 74}, 4, false},
	"anti3/weak1/mdrms/r=6":             {[]int{39, 48, 52, 54, 74, 155}, 0, false},
	"anti3/weak1/mdrrr/r=6":             {[]int{39, 48, 52, 54, 74, 176}, 4, false},
	"anti3/weak1/rms-greedy/r=6":        {[]int{0, 3, 4, 5, 60, 118}, 0, false},
	"anti3/weak1/skyline/r=6":           {[]int{3, 10, 12, 13, 17, 18}, 0, false},
	"nba/full/hdrrm:no-basis/r=6":       {[]int{20, 23, 82, 109, 148, 165}, 2, false},
	"nba/full/hdrrm:no-grid/r=6":        {[]int{20, 23, 109, 126, 148, 194}, 3, false},
	"nba/full/hdrrm:no-samples/r=6":     {[]int{20, 23, 109, 126, 148, 194}, 4, false},
	"nba/full/hdrrm/r=6":                {[]int{20, 23, 109, 126, 148, 194}, 4, false},
	"nba/full/hdrrm/rrr/k=10":           {[]int{20, 23, 109, 126, 194}, 10, false},
	"nba/full/mdrrrr/r=6":               {[]int{20, 23, 82, 109, 148}, 2, false},
	"nba/full/mdrc/r=6":                 {[]int{23, 82, 109, 148, 194}, 0, false},
	"nba/full/mdrms/r=6":                {[]int{20, 23, 109, 126, 148, 194}, 0, false},
	"nba/full/mdrrr/r=6":                {[]int{20, 23, 82, 109, 148, 165}, 2, false},
	"nba/full/rms-greedy/r=6":           {[]int{23, 65, 82, 109, 126, 148}, 0, false},
	"nba/full/skyline/r=6":              {[]int{20, 23, 65, 82, 109, 126}, 0, false},
	"nba/weak1/hdrrm:no-basis/r=6":      {[]int{20, 23, 82, 109, 148, 194}, 2, false},
	"nba/weak1/hdrrm:no-grid/r=6":       {[]int{20, 23, 109, 126, 148, 194}, 3, false},
	"nba/weak1/hdrrm:no-samples/r=6":    {[]int{20, 23, 109, 126, 148, 194}, 4, false},
	"nba/weak1/hdrrm/r=6":               {[]int{20, 23, 109, 126, 148, 194}, 4, false},
	"nba/weak1/hdrrm/rrr/k=10":          {[]int{20, 23, 109, 126, 194}, 10, false},
	"nba/weak1/mdrrrr/r=6":              {[]int{20, 82, 109, 132, 148}, 2, false},
	"nba/weak1/mdrms/r=6":               {[]int{20, 23, 82, 109, 148, 194}, 0, false},
	"nba/weak1/mdrrr/r=6":               {[]int{20, 23, 82, 109, 148, 194}, 2, false},
	"nba/weak1/rms-greedy/r=6":          {[]int{20, 23, 65, 109, 148, 194}, 0, false},
	"nba/weak1/skyline/r=6":             {[]int{20, 23, 65, 82, 109, 126}, 0, false},
	"anti3/gauss/hdrrm/r=6":             {[]int{26, 38, 54, 67, 88, 110}, 9, false},
}
