// Command promcheck validates a Prometheus text-exposition scrape with the
// same strict parser the obs tests use: HELP/TYPE
// discipline, cumulative non-decreasing buckets, +Inf == _count, _sum/_count
// presence, no duplicate samples, no negative counters.
//
// Usage:
//
//	promcheck [file]         validate a saved scrape (default: stdin)
//	promcheck -require NAMES also require the comma-separated metric families;
//	                         each entry matches exactly or as a name prefix, so
//	                         "rrmd_slo" requires the whole rrmd_slo_* group
//
// Exit status 0 on a valid exposition, 1 otherwise — CI's smoke scripts pipe
// a live scrape through it so a malformed /metrics fails the build, not the
// dashboard.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"github.com/rankregret/rankregret/internal/obs"
)

func main() {
	require := flag.String("require", "", "comma-separated metric family names (exact or prefix) that must be present")
	quiet := flag.Bool("q", false, "suppress the per-family summary on success")
	flag.Parse()

	var in io.Reader = os.Stdin
	src := "stdin"
	if flag.NArg() > 0 {
		f, err := os.Open(flag.Arg(0))
		if err != nil {
			fmt.Fprintf(os.Stderr, "promcheck: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		in, src = f, flag.Arg(0)
	}

	exp, err := obs.ParseExposition(in)
	if err != nil {
		fmt.Fprintf(os.Stderr, "promcheck: %s: INVALID: %v\n", src, err)
		os.Exit(1)
	}

	var missing []string
	for _, name := range strings.Split(*require, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		if _, ok := exp.Families[name]; ok {
			continue
		}
		// A prefix entry requires at least one family in the group.
		found := false
		for fam := range exp.Families {
			if strings.HasPrefix(fam, name) {
				found = true
				break
			}
		}
		if !found {
			missing = append(missing, name)
		}
	}
	if len(missing) > 0 {
		fmt.Fprintf(os.Stderr, "promcheck: %s: missing required families: %s\n", src, strings.Join(missing, ", "))
		os.Exit(1)
	}

	if !*quiet {
		names := make([]string, 0, len(exp.Families))
		for name := range exp.Families {
			names = append(names, name)
		}
		sort.Strings(names)
		fmt.Printf("promcheck: %s: OK (%d families, %d samples)\n", src, len(names), len(exp.Samples))
		for _, name := range names {
			fmt.Printf("  %-40s %s\n", name, exp.Families[name].Type)
		}
	}
}
