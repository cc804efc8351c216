package bench

import (
	"github.com/rankregret/rankregret/internal/algohd"
	"github.com/rankregret/rankregret/internal/engine"
)

// Figures returns every figure spec of the paper's evaluation at the given
// scale. Paper-scale axis ranges follow Section VI exactly; ci-scale keeps
// the same workloads, algorithms and defaults but shrinks n so the whole
// suite completes on a laptop. Default parameters (paper): n=10K, d=4, r=10
// in HD; n=10K, r=5 in 2D; delta=0.03, gamma=6.
func Figures(sc Scale) map[string]FigureSpec {
	paper := sc.Name == "paper"

	ns2d := []int{100, 1000, 5000, 20000}
	if paper {
		ns2d = []int{100, 1000, 10000, 100000}
	}
	n2dDefault := 5000
	if paper {
		n2dDefault = 10000
	}
	nsHD := []int{500, 1000, 2000, 5000}
	if paper {
		nsHD = []int{1000, 10000, 100000, 1000000}
	}
	nHDDefault := 2000
	if paper {
		nHDDefault = 10000
	}
	nsIsland := []int{5000, 10000, 20000}
	if paper {
		nsIsland = []int{10000, 20000, 40000, 60000}
	}
	nsNBA := []int{2000, 5000, 8000}
	if paper {
		nsNBA = []int{5000, 10000, 15000, 20000}
	}
	nsWeather := []int{10000, 20000, 40000}
	if paper {
		nsWeather = []int{40000, 80000, 120000, 160000}
	}

	twoDAlgos := registered(engine.AlgoTwoDRRM, engine.AlgoTwoDRRR)
	hdAlgos := registered(engine.AlgoHDRRM, engine.AlgoMDRRRr, engine.AlgoMDRC, engine.AlgoMDRMS)

	figs := map[string]FigureSpec{}

	add := func(id, title string, algos []engine.Solver, points []Point) {
		figs[id] = FigureSpec{ID: id, Title: title, Points: points, Algos: algos}
	}

	// --- 2D experiments (Section VI.A) ---
	var pts []Point
	for _, w := range []string{"indep", "corr", "anti"} {
		for _, n := range ns2d {
			pts = append(pts, Point{Workload: w, N: n, D: 2, R: 5})
		}
	}
	add("fig09", "2D, impact of dataset size on three synthetic datasets", twoDAlgos, pts)

	pts = nil
	for _, w := range []string{"indep", "corr", "anti"} {
		for r := 5; r <= 10; r++ {
			pts = append(pts, Point{Workload: w, N: n2dDefault, D: 2, R: r})
		}
	}
	add("fig10", "2D, impact of output size on three synthetic datasets", twoDAlgos, pts)

	pts = nil
	for _, n := range nsIsland {
		pts = append(pts, Point{Workload: "island", N: n, D: 2, R: 5})
	}
	add("fig11", "2D, varied dataset size on Island", twoDAlgos, pts)

	pts = nil
	for _, n := range nsNBA {
		pts = append(pts, Point{Workload: "nba", N: n, D: 2, R: 5})
	}
	add("fig12", "2D, varied dataset size on NBA (2 attributes)", twoDAlgos, pts)

	// --- HD experiments (Section VI.B) ---
	for i, w := range []string{"indep", "corr", "anti"} {
		pts = nil
		for _, n := range nsHD {
			pts = append(pts, Point{Workload: w, N: n, D: 4, R: 10})
		}
		add(fmt09(13+i), "HD, impact of dataset size on "+w+" dataset", hdAlgos, pts)
	}

	for i, w := range []string{"indep", "corr", "anti"} {
		pts = nil
		for d := 2; d <= 6; d++ {
			r := 10
			if r < d+1 {
				r = d + 1
			}
			pts = append(pts, Point{Workload: w, N: nHDDefault, D: d, R: r})
		}
		add(fmt09(16+i), "HD, impact of dimension on "+w+" dataset", hdAlgos, pts)
	}

	for i, w := range []string{"indep", "corr", "anti"} {
		pts = nil
		for r := 10; r <= 15; r++ {
			pts = append(pts, Point{Workload: w, N: nHDDefault, D: 4, R: r})
		}
		add(fmt09(19+i), "HD, impact of output size on "+w+" dataset", hdAlgos, pts)
	}

	for i, w := range []string{"indep", "corr", "anti"} {
		pts = nil
		for _, delta := range []float64{0.01, 0.02, 0.03, 0.05, 0.1} {
			pts = append(pts, Point{Workload: w, N: nHDDefault, D: 4, R: 10, Delta: delta})
		}
		add(fmt09(22+i), "HD, impact of delta on "+w+" dataset", registered(engine.AlgoHDRRM), pts)
	}

	// --- RRRM experiments (Section VI.B.5): weak rankings with c = 2 ---
	pts = nil
	for _, n := range nsHD {
		pts = append(pts, Point{Workload: "anti", N: n, D: 4, R: 10, C: 2})
	}
	add("fig25", "HD, RRRM, varied dataset size on anti-correlated dataset",
		registered(engine.AlgoHDRRM, engine.AlgoMDRRRr), pts)

	pts = nil
	for d := 3; d <= 6; d++ {
		pts = append(pts, Point{Workload: "anti", N: nHDDefault, D: d, R: 10, C: 2})
	}
	add("fig26", "HD, RRRM, varied dimension on anti-correlated dataset",
		registered(engine.AlgoHDRRM, engine.AlgoMDRRRr), pts)

	// --- HD real datasets ---
	pts = nil
	for _, n := range nsNBA {
		pts = append(pts, Point{Workload: "nba", N: n, D: 5, R: 10})
	}
	add("fig27", "HD, varied dataset size on NBA", hdAlgos, pts)

	pts = nil
	for _, n := range nsWeather {
		pts = append(pts, Point{Workload: "weather", N: n, D: 4, R: 10})
	}
	add("fig28", "HD, varied dataset size on Weather", hdAlgos, pts)

	// --- Table I (the running example, for completeness) ---
	add("table1", "Table I example: RRM on the 7-tuple dataset",
		registered(engine.AlgoTwoDRRM), []Point{{Workload: "table1", N: 7, D: 2, R: 1}})

	// --- Ablations (beyond the paper) ---
	pts = nil
	for _, w := range []string{"indep", "anti"} {
		pts = append(pts, Point{Workload: w, N: nHDDefault, D: 4, R: 10})
	}
	add("ablation", "HDRRM ablations: drop the basis, the polar grid, or the samples",
		append(registered(engine.AlgoHDRRM),
			engine.VariantSolver(algohd.Variant{NoBasis: true}),
			engine.VariantSolver(algohd.Variant{NoGrid: true}),
			engine.VariantSolver(algohd.Variant{NoSamples: true})), pts)

	return figs
}

// registered returns the registry solvers for names. The names are engine
// constants, so a miss is a programming error.
func registered(names ...string) []engine.Solver {
	out := make([]engine.Solver, len(names))
	for i, name := range names {
		s, ok := engine.Lookup(name)
		if !ok {
			panic("bench: unregistered algorithm " + name)
		}
		out[i] = s
	}
	return out
}

func fmt09(i int) string {
	if i < 10 {
		return "fig0" + string(rune('0'+i))
	}
	return "fig" + itoa(i)
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var b [8]byte
	p := len(b)
	for i > 0 {
		p--
		b[p] = byte('0' + i%10)
		i /= 10
	}
	return string(b[p:])
}
