package bench

import "testing"

// oldAlgoNames maps the algo labels the figure harness printed when it
// dispatched by its own name switch (the labels the rows below were recorded
// under) to the engine registry names it reports now.
var oldAlgoNames = map[string]string{
	"2DRRM":            "2drrm",
	"2DRRR":            "2drrr",
	"HDRRM":            "hdrrm",
	"MDRRRr":           "mdrrrr",
	"MDRC":             "mdrc",
	"MDRMS":            "mdrms",
	"HDRRM:no-basis":   "hdrrm:no-basis",
	"HDRRM:no-grid":    "hdrrm:no-grid",
	"HDRRM:no-samples": "hdrrm:no-samples",
}

// goldenRow is a Row without its wall time.
type goldenRow struct {
	figure, workload string
	n, d, r          int
	delta            float64
	algo             string
	size, rankRegret int
	k                int
	err              string
}

// figureGolden runs one small point per figure family through the figure's
// own algorithm list at seed 1. Every column except time_ms is pinned, so a
// change in how the harness builds options or dispatches solvers shows up
// as a changed row. The rankRegret column of d > 2 rows is the sampled
// estimate, which is the same at every GOMAXPROCS.
var figureGolden = []struct {
	scale Scale
	fig   string
	point Point
	rows  []goldenRow
}{
	{CIScale, "fig09", Point{Workload: "anti", N: 1000, D: 2, R: 5}, []goldenRow{ // 2D synthetic
		{"fig09", "anti", 1000, 2, 5, 0, "2DRRM", 5, 1, 1, ""},
		{"fig09", "anti", 1000, 2, 5, 0, "2DRRR", 5, 1, 1, ""},
	}},
	{CIScale, "fig11", Point{Workload: "island", N: 2000, D: 2, R: 5}, []goldenRow{ // 2D Island
		{"fig11", "island", 2000, 2, 5, 0, "2DRRM", 4, 1, 1, ""},
		{"fig11", "island", 2000, 2, 5, 0, "2DRRR", 4, 1, 1, ""},
	}},
	{CIScale, "fig12", Point{Workload: "nba", N: 1000, D: 2, R: 5}, []goldenRow{ // 2D NBA, projected to two attributes
		{"fig12", "nba", 1000, 2, 5, 0, "2DRRM", 1, 1, 1, ""},
		{"fig12", "nba", 1000, 2, 5, 0, "2DRRR", 1, 1, 1, ""},
	}},
	{CIScale, "fig13", Point{Workload: "indep", N: 500, D: 4, R: 10}, []goldenRow{ // HD dataset size
		{"fig13", "indep", 500, 4, 10, 0, "HDRRM", 10, 5, 4, ""},
		{"fig13", "indep", 500, 4, 10, 0, "MDRRRr", 9, 6, 4, ""},
		{"fig13", "indep", 500, 4, 10, 0, "MDRC", 9, 13, 0, ""},
		{"fig13", "indep", 500, 4, 10, 0, "MDRMS", 10, 5, 0, ""},
	}},
	{CIScale, "fig18", Point{Workload: "anti", N: 500, D: 3, R: 10}, []goldenRow{ // HD dimension
		{"fig18", "anti", 500, 3, 10, 0, "HDRRM", 10, 8, 8, ""},
		{"fig18", "anti", 500, 3, 10, 0, "MDRRRr", 9, 8, 6, ""},
		{"fig18", "anti", 500, 3, 10, 0, "MDRC", 4, 85, 0, ""},
		{"fig18", "anti", 500, 3, 10, 0, "MDRMS", 10, 10, 0, ""},
	}},
	{CIScale, "fig21", Point{Workload: "anti", N: 500, D: 4, R: 12}, []goldenRow{ // HD output size
		{"fig21", "anti", 500, 4, 12, 0, "HDRRM", 12, 32, 27, ""},
		{"fig21", "anti", 500, 4, 12, 0, "MDRRRr", 12, 24, 13, ""},
		{"fig21", "anti", 500, 4, 12, 0, "MDRC", 6, 359, 0, ""},
		{"fig21", "anti", 500, 4, 12, 0, "MDRMS", 12, 31, 0, ""},
	}},
	{CIScale, "fig22", Point{Workload: "indep", N: 2000, D: 4, R: 10, Delta: 0.05}, []goldenRow{ // HD delta: Theorem 10 asks ~12.4K samples, above MaxM but within the 4x delta headroom
		{"fig22", "indep", 2000, 4, 10, 0.05, "HDRRM", 10, 9, 8, ""},
	}},
	{CIScale, "fig23", Point{Workload: "corr", N: 1000, D: 4, R: 10, Delta: 0.02}, []goldenRow{ // HD delta: Theorem 10 asks ~76K samples, so the 4x delta headroom binds
		{"fig23", "corr", 1000, 4, 10, 0.02, "HDRRM", 9, 1, 1, ""},
	}},
	{CIScale, "fig25", Point{Workload: "anti", N: 500, D: 4, R: 10, C: 2}, []goldenRow{ // RRRM, weak rankings c = 2
		{"fig25", "anti", 500, 4, 10, 0, "HDRRM", 10, 5, 5, ""},
		{"fig25", "anti", 500, 4, 10, 0, "MDRRRr", 9, 4, 3, ""},
	}},
	{CIScale, "fig27", Point{Workload: "nba", N: 500, D: 5, R: 10}, []goldenRow{ // HD NBA
		{"fig27", "nba", 500, 5, 10, 0, "HDRRM", 7, 1, 1, ""},
		{"fig27", "nba", 500, 5, 10, 0, "MDRRRr", 7, 1, 1, ""},
		{"fig27", "nba", 500, 5, 10, 0, "MDRC", 6, 2, 0, ""},
		{"fig27", "nba", 500, 5, 10, 0, "MDRMS", 7, 1, 0, ""},
	}},
	{CIScale, "ablation", Point{Workload: "indep", N: 500, D: 4, R: 10}, []goldenRow{ // HDRRM ablations
		{"ablation", "indep", 500, 4, 10, 0, "HDRRM", 10, 5, 4, ""},
		{"ablation", "indep", 500, 4, 10, 0, "HDRRM:no-basis", 10, 5, 4, ""},
		{"ablation", "indep", 500, 4, 10, 0, "HDRRM:no-grid", 10, 5, 4, ""},
		{"ablation", "indep", 500, 4, 10, 0, "HDRRM:no-samples", 10, 5, 4, ""},
	}},
	{CIScale, "table1", Point{Workload: "table1", N: 7, D: 2, R: 1}, []goldenRow{ // Table I
		{"table1", "table1", 7, 2, 1, 0, "2DRRM", 1, 3, 3, ""},
	}},
	{PaperScale, "fig13", Point{Workload: "indep", N: 100, D: 3, R: 5}, []goldenRow{ // paper scale: MaxM 0 leaves Theorem 10 uncapped (~22.9K samples here)
		{"fig13", "indep", 100, 3, 5, 0, "HDRRM", 5, 2, 1, ""},
		{"fig13", "indep", 100, 3, 5, 0, "MDRRRr", 5, 2, 1, ""},
		{"fig13", "indep", 100, 3, 5, 0, "MDRC", 4, 2, 0, ""},
		{"fig13", "indep", 100, 3, 5, 0, "MDRMS", 5, 2, 0, ""},
	}},
	{PaperScale, "fig22", Point{Workload: "indep", N: 500, D: 4, R: 10, Delta: 0.02}, []goldenRow{ // paper scale: ~76.5K samples, above the library's default cap
		{"fig22", "indep", 500, 4, 10, 0.02, "HDRRM", 9, 12, 11, ""},
	}},
}

func TestFigureRowsGolden(t *testing.T) {
	for _, g := range figureGolden {
		t.Run(g.scale.Name+"/"+g.fig, func(t *testing.T) {
			spec, ok := Lookup(g.fig, g.scale)
			if !ok {
				t.Fatalf("no figure %s", g.fig)
			}
			spec.Points = []Point{g.point}
			rows := Run(spec, g.scale, 1)
			if len(rows) != len(g.rows) {
				t.Fatalf("got %d rows, want %d", len(rows), len(g.rows))
			}
			for i, row := range rows {
				want := g.rows[i]
				newName, ok := oldAlgoNames[want.algo]
				if !ok {
					t.Fatalf("no registry name for %q", want.algo)
				}
				want.algo = newName
				got := goldenRow{row.Figure, row.Workload, row.N, row.D, row.R, row.Delta,
					row.Algo, row.Size, row.RankRegret, row.K, row.Err}
				if got != want {
					t.Errorf("row %d:\n got  %+v\n want %+v", i, got, want)
				}
			}
		})
	}
}
