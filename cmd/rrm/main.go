// Command rrm answers rank-regret minimization queries over a CSV file.
//
// Examples:
//
//	rrm -in cars.csv -header -r 5
//	rrm -in cars.csv -header -r 5 -algo hdrrm -space weak:2
//	rrm -in cars.csv -header -k 10            # dual (RRR): min set with regret <= 10
//	rrm -in cars.csv -header -r 5 -negate 2,4 # columns where smaller is better
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"github.com/rankregret/rankregret"
	"github.com/rankregret/rankregret/internal/cliutil"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "rrm:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		in        = flag.String("in", "", "input CSV file (required; - for stdin)")
		header    = flag.Bool("header", false, "first CSV record is a header")
		r         = flag.Int("r", 0, "output size budget (RRM mode)")
		k         = flag.Int("k", 0, "rank-regret threshold (RRR dual mode; exclusive with -r)")
		algo      = flag.String("algo", "", "algorithm: 2drrm|hdrrm|2drrr|mdrrrr|mdrc|mdrms (default: auto)")
		spaceSpec = flag.String("space", "", "restricted space, e.g. weak:2 (first 3 attrs in importance order)")
		negate    = flag.String("negate", "", "comma-separated 0-based columns where smaller is better")
		normalize = flag.Bool("normalize", true, "min-max normalize attributes to [0,1]")
		seed      = flag.Int64("seed", 1, "random seed")
		samples   = flag.Int("eval-samples", 20000, "directions for the independent rank-regret estimate (0 = skip)")
		format    = flag.String("format", "text", "output format: text or json")
		timeout   = flag.Duration("timeout", 0, "abort the solve after this duration (0 = no limit)")
	)
	flag.Parse()
	if *format != "text" && *format != "json" {
		return fmt.Errorf("unknown format %q (want text or json)", *format)
	}
	if *in == "" {
		flag.Usage()
		return fmt.Errorf("missing -in")
	}
	if (*r > 0) == (*k > 0) {
		return fmt.Errorf("exactly one of -r and -k must be positive")
	}

	neg, err := cliutil.ParseNegate(*negate)
	if err != nil {
		return err
	}
	ds, err := cliutil.LoadCSVFile(*in, *header, neg, *normalize)
	if err != nil {
		return err
	}

	opts := &rankregret.Options{Algorithm: rankregret.Algorithm(*algo), Seed: *seed}
	if *spaceSpec != "" {
		sp, err := cliutil.ParseSpace(*spaceSpec, ds.Dim())
		if err != nil {
			return err
		}
		opts.Space = sp
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	var sol *rankregret.Solution
	if *r > 0 {
		sol, err = rankregret.Solve(ctx, ds, *r, opts)
	} else {
		sol, err = rankregret.SolveRRR(ctx, ds, *k, opts)
	}
	if err != nil {
		return err
	}

	estimated := -1
	if *samples > 0 {
		est, err := rankregret.EvaluateRankRegret(ds, sol.IDs, opts.Space, *samples, *seed+7)
		if err != nil {
			return err
		}
		estimated = est
	}

	if *format == "json" {
		return writeJSON(os.Stdout, ds, sol, estimated)
	}

	fmt.Printf("dataset: n=%d d=%d\n", ds.N(), ds.Dim())
	fmt.Printf("algorithm: %s\n", sol.Algorithm)
	if sol.Exact {
		fmt.Printf("rank-regret: %d (exact)\n", sol.RankRegret)
	} else if sol.RankRegret > 0 {
		fmt.Printf("rank-regret: <= %d on the discretized space\n", sol.RankRegret)
	}
	if estimated >= 0 {
		fmt.Printf("rank-regret (estimated, %d samples): %d  (%.3f%% of n)\n",
			*samples, estimated, rankregret.RankRegretPercent(estimated, ds.N()))
	}
	fmt.Printf("chosen %d tuples:\n", len(sol.IDs))
	attrs := ds.Attrs()
	fmt.Printf("  id")
	for _, a := range attrs {
		fmt.Printf("\t%s", a)
	}
	fmt.Println()
	for _, id := range sol.IDs {
		fmt.Printf("  %d", id)
		for _, v := range ds.Row(id) {
			fmt.Printf("\t%.4g", v)
		}
		fmt.Println()
	}
	return nil
}

// solutionJSON is the machine-readable output shape of -format json.
type solutionJSON struct {
	N          int         `json:"n"`
	D          int         `json:"d"`
	Algorithm  string      `json:"algorithm"`
	IDs        []int       `json:"ids"`
	RankRegret int         `json:"rank_regret"`
	Exact      bool        `json:"exact"`
	Estimated  *int        `json:"estimated_rank_regret,omitempty"`
	Percent    *float64    `json:"estimated_percent,omitempty"`
	Rows       [][]float64 `json:"rows"`
}

func writeJSON(w io.Writer, ds *rankregret.Dataset, sol *rankregret.Solution, estimated int) error {
	out := solutionJSON{
		N:          ds.N(),
		D:          ds.Dim(),
		Algorithm:  string(sol.Algorithm),
		IDs:        sol.IDs,
		RankRegret: sol.RankRegret,
		Exact:      sol.Exact,
	}
	if estimated >= 0 {
		out.Estimated = &estimated
		pct := rankregret.RankRegretPercent(estimated, ds.N())
		out.Percent = &pct
	}
	for _, id := range sol.IDs {
		row := make([]float64, ds.Dim())
		copy(row, ds.Row(id))
		out.Rows = append(out.Rows, row)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}
