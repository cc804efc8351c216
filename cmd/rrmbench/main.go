// Command rrmbench regenerates the tables and figures of the paper's
// evaluation (Section VI). Each figure is identified by its paper number;
// -list shows them all. The default "ci" scale uses laptop-friendly sizes;
// -scale paper uses the paper's axis ranges (expect long runtimes). Every
// solve is a cold call of the engine registry's solver, and the algo column
// carries its registry name (2drrm, 2drrr, hdrrm, mdrrrr, mdrc, mdrms, and
// hdrrm:no-basis / no-grid / no-samples for the ablations). Engine
// performance (caches, daemon, per-layer ladder) is measured by
// cmd/rrmladder instead.
//
// Examples:
//
//	rrmbench -list
//	rrmbench -fig fig13
//	rrmbench -fig all -scale ci
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"github.com/rankregret/rankregret/internal/bench"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "rrmbench:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		fig        = flag.String("fig", "", "figure id (e.g. fig13, table1) or 'all'")
		list       = flag.Bool("list", false, "list available figures and exit")
		scale      = flag.String("scale", "ci", "ci (laptop sizes) or paper (paper's axis ranges)")
		seed       = flag.Int64("seed", 1, "random seed")
		format     = flag.String("format", "table", "output format: table or csv")
		cpuProfile = flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this path")
		memProfile = flag.String("memprofile", "", "write a pprof heap profile at exit to this path")
	)
	flag.Parse()
	if *format != "table" && *format != "csv" {
		return fmt.Errorf("unknown format %q (want table or csv)", *format)
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			return fmt.Errorf("memprofile: %w", err)
		}
		defer func() {
			runtime.GC() // settle allocations so the heap profile reflects retention
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "rrmbench: memprofile:", err)
			}
			f.Close()
		}()
	}

	var sc bench.Scale
	switch *scale {
	case "ci":
		sc = bench.CIScale
	case "paper":
		sc = bench.PaperScale
	default:
		return fmt.Errorf("unknown scale %q (want ci or paper)", *scale)
	}

	if *list {
		for _, id := range bench.IDs(sc) {
			spec, _ := bench.Lookup(id, sc)
			fmt.Printf("%-8s %s\n", id, spec.Title)
		}
		return nil
	}
	if *fig == "" {
		flag.Usage()
		return fmt.Errorf("missing -fig (use -list to see options)")
	}

	ids := []string{*fig}
	if *fig == "all" {
		ids = bench.IDs(sc)
	}
	for _, id := range ids {
		spec, ok := bench.Lookup(id, sc)
		if !ok {
			return fmt.Errorf("unknown figure %q (use -list)", id)
		}
		rows := bench.Run(spec, sc, *seed)
		if *format == "csv" {
			if err := bench.WriteCSV(os.Stdout, rows); err != nil {
				return err
			}
			continue
		}
		fmt.Printf("== %s: %s (scale=%s) ==\n", spec.ID, spec.Title, sc.Name)
		if err := bench.WriteTable(os.Stdout, rows); err != nil {
			return err
		}
		fmt.Println()
	}
	return nil
}
