// Package bench is the experiment harness that regenerates every figure of
// the paper's evaluation (Section VI). Each figure is a FigureSpec: a list
// of (workload, n, d, r, ...) points crossed with a list of algorithms; Run
// executes the points, measures wall time and output rank-regret (exact in
// 2D, sampled in HD, as in the paper), and returns printable rows.
//
// Two scales are built in: "ci" (laptop-friendly sizes, the default) and
// "paper" (the paper's axis ranges; expect long runtimes — the original
// experiments ran in C++ on a 128 GB machine). The reproduction target is
// the curves' *shape*: who wins, by what factor, and where the crossovers
// fall.
package bench

import (
	"context"
	"encoding/csv"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"text/tabwriter"
	"time"

	"github.com/rankregret/rankregret/internal/dataset"
	"github.com/rankregret/rankregret/internal/engine"
	"github.com/rankregret/rankregret/internal/eval"
	"github.com/rankregret/rankregret/internal/funcspace"
	"github.com/rankregret/rankregret/internal/xrand"
)

// Point is one x-axis position of a figure.
type Point struct {
	Workload string  // indep | corr | anti | island | nba | weather
	N        int     // dataset size
	D        int     // attributes (real datasets have a fixed d; island=2, nba=5 or 2, weather=4)
	R        int     // output size budget
	Delta    float64 // HDRRM delta (0 = default)
	C        int     // weak-ranking constraint count (restricted figures; 0 = full space)
}

// FigureSpec describes one paper figure. Algos are engine solvers: the
// registry's (engine.Lookup) and the HDRRM ablation variants
// (engine.VariantSolver), so a figure measures the call path the daemon
// serves.
type FigureSpec struct {
	ID     string
	Title  string
	Points []Point
	Algos  []engine.Solver
}

// Row is one measurement.
type Row struct {
	Figure     string
	Workload   string
	N, D, R    int
	Delta      float64
	Algo       string // the solver's registry name
	Millis     float64
	Size       int
	RankRegret int
	K          int // the solver's Solution.RankRegret: exact in 2D, HDRRM/MDRRRr's internal bound in HD (0 when n/a)
	Err        string
}

// Scale bundles the knobs that differ between laptop and paper runs.
type Scale struct {
	Name        string
	MaxM        int // cap on HDRRM's Theorem 10 sample size
	EvalSamples int // directions used to estimate HD rank-regret
}

// CIScale and PaperScale are the two built-in scales.
var (
	CIScale    = Scale{Name: "ci", MaxM: 12000, EvalSamples: 20000}
	PaperScale = Scale{Name: "paper", MaxM: 0, EvalSamples: 100000}
)

// MakeDataset builds the workload for a point. Seeds are derived from the
// point so every algorithm sees the identical dataset.
func MakeDataset(p Point, seed int64) (*dataset.Dataset, error) {
	rng := xrand.New(seed)
	if p.Workload == "table1" {
		return dataset.TableI(), nil
	}
	if ds, ok := dataset.Synthetic(p.Workload, rng, p.N, p.D); ok {
		return ds, nil
	}
	if ds, ok := dataset.Real(p.Workload, rng, p.N); ok {
		if p.Workload == "nba" && p.D == 2 {
			// Figure 12 projects NBA onto two attributes.
			return ds.Project([]int{0, 1})
		}
		return ds.Head(p.N), nil
	}
	return nil, fmt.Errorf("bench: unknown workload %q", p.Workload)
}

// space returns the utility space for a point (weak-ranking cone when C>0).
func space(p Point, d int) (funcspace.Space, error) {
	if p.C <= 0 {
		return nil, nil
	}
	return funcspace.WeakRanking(d, p.C)
}

// sampleBudgets fixes the sample count of the baselines whose budget is not
// HDRRM's Theorem 10 size. MDRRRr's is the RRR paper's fixed k-set
// discovery budget: the number of k-sets |W| grows super-linearly with n
// while the sampling budget does not, which is where MDRRRr's output quality
// falls behind HDRRM's (the paper's Figures 13-15 and 25).
var sampleBudgets = map[string]int{
	engine.AlgoMDRRRr:    1024,
	engine.AlgoMDRMS:     2048,
	engine.AlgoRMSGreedy: 1024,
}

// options returns the engine options solver name runs with at point p.
func options(name string, p Point, sp funcspace.Space, sc Scale, seed int64) engine.Options {
	maxM := sc.MaxM
	if p.Delta > 0 {
		// The delta sweep (Figures 22-24) exists to show m = Theta(1/delta^2)
		// trading time for rank-regret; a tight cap would flatten the sweep,
		// so give these points more headroom.
		maxM = 4 * sc.MaxM
	}
	if maxM == 0 {
		maxM = -1 // paper scale: Theorem 10 uncapped
	}
	return engine.Options{
		Seed:       seed,
		Space:      sp,
		Delta:      p.Delta,
		MaxSamples: maxM,
		Samples:    sampleBudgets[name],
	}
}

// Run executes a figure spec at the given scale and returns one row per
// (point, algorithm). Each solve calls the registry solver directly — no
// engine, no cache — so every timing is a cold solve. Failures (e.g. MDRRRr
// refusing a scale) are recorded in the row's Err instead of aborting the
// figure, mirroring the paper's "does not scale beyond" annotations.
func Run(spec FigureSpec, sc Scale, seed int64) []Row {
	var rows []Row
	for pi, p := range spec.Points {
		dsSeed := seed + int64(pi)*1000
		ds, err := MakeDataset(p, dsSeed)
		if err != nil {
			rows = append(rows, Row{Figure: spec.ID, Workload: p.Workload, N: p.N, D: p.D, R: p.R, Delta: p.Delta, Err: err.Error()})
			continue
		}
		d := ds.Dim()
		sp, spErr := space(p, d)
		for _, s := range spec.Algos {
			row := Row{Figure: spec.ID, Workload: p.Workload, N: ds.N(), D: d, R: p.R, Delta: p.Delta, Algo: s.Name()}
			if spErr != nil {
				row.Err = spErr.Error()
				rows = append(rows, row)
				continue
			}
			start := time.Now()
			sol, err := s.Solve(context.TODO(), ds, p.R, options(s.Name(), p, sp, sc, seed))
			row.Millis = float64(time.Since(start).Microseconds()) / 1000
			if err != nil {
				row.Err = err.Error()
				rows = append(rows, row)
				continue
			}
			row.Size = len(sol.IDs)
			row.K = sol.RankRegret
			var rr int
			if d == 2 {
				rr, err = eval.RankRegret2DExact(ds, sol.IDs, sp)
			} else {
				rr, err = eval.RankRegretCtx(context.TODO(), ds, sol.IDs, sp, sc.EvalSamples, seed+777)
			}
			if err != nil {
				row.Err = err.Error()
			} else {
				row.RankRegret = rr
			}
			rows = append(rows, row)
		}
	}
	return rows
}

// WriteTable renders rows as an aligned table, one line per measurement —
// the same series the paper plots (time and output rank-regret per
// algorithm and x-axis position).
func WriteTable(w io.Writer, rows []Row) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "figure\tworkload\tn\td\tr\tdelta\talgo\ttime_ms\tsize\trank_regret\tk_bound\terror")
	for _, r := range rows {
		delta := ""
		if r.Delta > 0 {
			delta = fmt.Sprintf("%.2f", r.Delta)
		}
		fmt.Fprintf(tw, "%s\t%s\t%d\t%d\t%d\t%s\t%s\t%.1f\t%d\t%d\t%d\t%s\n",
			r.Figure, r.Workload, r.N, r.D, r.R, delta, r.Algo, r.Millis, r.Size, r.RankRegret, r.K, r.Err)
	}
	return tw.Flush()
}

// WriteCSV renders rows as machine-readable CSV with the same columns as
// WriteTable, for feeding plotting scripts.
func WriteCSV(w io.Writer, rows []Row) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"figure", "workload", "n", "d", "r", "delta", "algo",
		"time_ms", "size", "rank_regret", "k_bound", "error"}); err != nil {
		return fmt.Errorf("bench: writing csv header: %w", err)
	}
	for _, r := range rows {
		delta := ""
		if r.Delta > 0 {
			delta = strconv.FormatFloat(r.Delta, 'g', -1, 64)
		}
		rec := []string{
			r.Figure, r.Workload,
			strconv.Itoa(r.N), strconv.Itoa(r.D), strconv.Itoa(r.R), delta, r.Algo,
			strconv.FormatFloat(r.Millis, 'f', 3, 64),
			strconv.Itoa(r.Size), strconv.Itoa(r.RankRegret), strconv.Itoa(r.K), r.Err,
		}
		if err := cw.Write(rec); err != nil {
			return fmt.Errorf("bench: writing csv row: %w", err)
		}
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		return fmt.Errorf("bench: flushing csv: %w", err)
	}
	return nil
}

// IDs returns the sorted figure identifiers available from Figures.
func IDs(scale Scale) []string {
	figs := Figures(scale)
	out := make([]string, 0, len(figs))
	for id := range figs {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// Lookup finds a figure spec by id (case-insensitive).
func Lookup(id string, scale Scale) (FigureSpec, bool) {
	figs := Figures(scale)
	spec, ok := figs[strings.ToLower(id)]
	return spec, ok
}
