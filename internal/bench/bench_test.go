package bench

import (
	"strings"
	"testing"

	"github.com/rankregret/rankregret/internal/algohd"
	"github.com/rankregret/rankregret/internal/engine"
)

func TestMakeDatasetWorkloads(t *testing.T) {
	cases := []struct {
		p     Point
		wantN int
		wantD int
	}{
		{Point{Workload: "table1", N: 7, D: 2, R: 1}, 7, 2},
		{Point{Workload: "indep", N: 200, D: 3, R: 5}, 200, 3},
		{Point{Workload: "corr", N: 200, D: 3, R: 5}, 200, 3},
		{Point{Workload: "anti", N: 200, D: 3, R: 5}, 200, 3},
		{Point{Workload: "island", N: 300, D: 2, R: 5}, 300, 2},
		{Point{Workload: "nba", N: 300, D: 5, R: 5}, 300, 5},
		{Point{Workload: "nba", N: 300, D: 2, R: 5}, 300, 2}, // Fig 12 projection
		{Point{Workload: "weather", N: 300, D: 4, R: 5}, 300, 4},
	}
	for _, tc := range cases {
		ds, err := MakeDataset(tc.p, 1)
		if err != nil {
			t.Errorf("%s: %v", tc.p.Workload, err)
			continue
		}
		if ds.N() != tc.wantN || ds.Dim() != tc.wantD {
			t.Errorf("%s d=%d: got %dx%d, want %dx%d",
				tc.p.Workload, tc.p.D, ds.N(), ds.Dim(), tc.wantN, tc.wantD)
		}
	}
	if _, err := MakeDataset(Point{Workload: "nope", N: 10}, 1); err == nil {
		t.Error("unknown workload should fail")
	}
}

func TestMakeDatasetDeterministic(t *testing.T) {
	p := Point{Workload: "anti", N: 100, D: 3, R: 5}
	a, err := MakeDataset(p, 42)
	if err != nil {
		t.Fatal(err)
	}
	b, err := MakeDataset(p, 42)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < a.N(); i++ {
		for j := 0; j < a.Dim(); j++ {
			if a.Value(i, j) != b.Value(i, j) {
				t.Fatalf("same seed produced different data at (%d,%d)", i, j)
			}
		}
	}
}

func TestFiguresCoverEveryPaperExperiment(t *testing.T) {
	for _, sc := range []Scale{CIScale, PaperScale} {
		figs := Figures(sc)
		for i := 9; i <= 28; i++ {
			id := fmt09(i)
			spec, ok := figs[id]
			if !ok {
				t.Errorf("scale %s: missing %s", sc.Name, id)
				continue
			}
			if spec.ID != id || spec.Title == "" || len(spec.Points) == 0 || len(spec.Algos) == 0 {
				t.Errorf("scale %s: %s spec incomplete: %+v", sc.Name, id, spec)
			}
		}
		for _, extra := range []string{"table1", "ablation"} {
			if _, ok := figs[extra]; !ok {
				t.Errorf("scale %s: missing %s", sc.Name, extra)
			}
		}
	}
}

func TestIDsSortedAndLookup(t *testing.T) {
	ids := IDs(CIScale)
	if len(ids) < 22 {
		t.Fatalf("only %d figure ids", len(ids))
	}
	for i := 1; i < len(ids); i++ {
		if ids[i-1] >= ids[i] {
			t.Errorf("ids not sorted: %q >= %q", ids[i-1], ids[i])
		}
	}
	if _, ok := Lookup("fig15", CIScale); !ok {
		t.Error("Lookup(fig15) failed")
	}
	if _, ok := Lookup("nonsense", CIScale); ok {
		t.Error("Lookup(nonsense) should fail")
	}
}

func TestRunTinyFigure(t *testing.T) {
	spec := FigureSpec{
		ID:    "test",
		Title: "tiny",
		Points: []Point{
			{Workload: "indep", N: 60, D: 2, R: 3},
			{Workload: "anti", N: 60, D: 3, R: 4},
		},
		Algos: registered(engine.AlgoTwoDRRM, engine.AlgoHDRRM, engine.AlgoMDRC),
	}
	sc := Scale{Name: "test", MaxM: 200, EvalSamples: 500}
	rows := Run(spec, sc, 1)
	if len(rows) != len(spec.Points)*len(spec.Algos) {
		t.Fatalf("got %d rows, want %d", len(rows), len(spec.Points)*len(spec.Algos))
	}
	for _, row := range rows {
		if row.Algo == engine.AlgoTwoDRRM && row.D == 3 {
			if row.Err == "" {
				t.Errorf("2DRRM on d=3 should error, got rank-regret %d", row.RankRegret)
			}
			continue
		}
		if row.Err != "" {
			t.Errorf("%s on %s: %s", row.Algo, row.Workload, row.Err)
			continue
		}
		if row.Size <= 0 || row.Size > row.R {
			t.Errorf("%s on %s: size %d outside (0, %d]", row.Algo, row.Workload, row.Size, row.R)
		}
		if row.RankRegret < 1 || row.RankRegret > row.N {
			t.Errorf("%s on %s: rank-regret %d outside [1, %d]", row.Algo, row.Workload, row.RankRegret, row.N)
		}
		if row.Millis < 0 {
			t.Errorf("%s on %s: negative time", row.Algo, row.Workload)
		}
	}
}

func TestRunAblationAlgos(t *testing.T) {
	spec := FigureSpec{
		ID:     "abl",
		Title:  "tiny ablation",
		Points: []Point{{Workload: "indep", N: 80, D: 3, R: 6}},
		Algos: append(registered(engine.AlgoHDRRM),
			engine.VariantSolver(algohd.Variant{NoBasis: true}),
			engine.VariantSolver(algohd.Variant{NoGrid: true}),
			engine.VariantSolver(algohd.Variant{NoSamples: true})),
	}
	rows := Run(spec, Scale{Name: "test", MaxM: 200, EvalSamples: 500}, 1)
	for _, row := range rows {
		if row.Err != "" {
			t.Errorf("%s: %s", row.Algo, row.Err)
		}
	}
}

func TestRunRestrictedPoint(t *testing.T) {
	spec := FigureSpec{
		ID:     "rrrm",
		Title:  "tiny RRRM",
		Points: []Point{{Workload: "anti", N: 80, D: 3, R: 6, C: 1}},
		Algos:  registered(engine.AlgoHDRRM, engine.AlgoMDRRRr),
	}
	rows := Run(spec, Scale{Name: "test", MaxM: 200, EvalSamples: 500}, 1)
	for _, row := range rows {
		if row.Err != "" {
			t.Errorf("%s: %s", row.Algo, row.Err)
		}
	}
}

func TestWriteTable(t *testing.T) {
	rows := []Row{
		{Figure: "f", Workload: "indep", N: 10, D: 2, R: 3, Algo: "2DRRM",
			Millis: 1.25, Size: 3, RankRegret: 2, K: 2},
		{Figure: "f", Workload: "anti", N: 10, D: 2, R: 3, Algo: "HDRRM",
			Err: "boom"},
	}
	var sb strings.Builder
	if err := WriteTable(&sb, rows); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"figure", "2DRRM", "boom", "indep", "anti"} {
		if !strings.Contains(out, want) {
			t.Errorf("table output missing %q:\n%s", want, out)
		}
	}
}

func TestWriteCSV(t *testing.T) {
	rows := []Row{
		{Figure: "f", Workload: "indep", N: 10, D: 2, R: 3, Delta: 0.03, Algo: "HDRRM",
			Millis: 1.25, Size: 3, RankRegret: 2, K: 2},
		{Figure: "f", Workload: "anti", N: 10, D: 2, R: 3, Algo: "MDRC", Err: "boom"},
	}
	var sb strings.Builder
	if err := WriteCSV(&sb, rows); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("got %d lines, want header + 2 rows:\n%s", len(lines), sb.String())
	}
	if !strings.HasPrefix(lines[0], "figure,workload,n,d,r,delta,algo") {
		t.Errorf("bad header: %s", lines[0])
	}
	if !strings.Contains(lines[1], "0.03") || !strings.Contains(lines[1], "HDRRM") {
		t.Errorf("bad first row: %s", lines[1])
	}
	if !strings.Contains(lines[2], "boom") {
		t.Errorf("error column missing: %s", lines[2])
	}
}
