// Package cliutil holds the flag-parsing and dataset-loading helpers shared
// by the rrm, rrmbench, and rrmd commands: textual utility-space specs,
// negate-column lists, CSV loading with the standard preprocessing pipeline
// (negate, then min-max normalize), and small JSON output helpers.
package cliutil

import (
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"github.com/rankregret/rankregret"
	"github.com/rankregret/rankregret/internal/dataset"
	"github.com/rankregret/rankregret/internal/funcspace"
)

// ParseSpace parses a textual utility-space spec for a d-dimensional
// dataset. Supported forms:
//
//	weak:c            — weak-ranking cone u[0] >= u[1] >= ... >= u[c]
//	ball:r,c1,...,cd  — directions within L2 distance r of center (c1..cd)
//
// The empty spec is an error; callers treat "no spec" as the full space
// before calling.
func ParseSpace(spec string, d int) (funcspace.Space, error) {
	switch {
	case strings.HasPrefix(spec, "weak:"):
		c, err := strconv.Atoi(spec[len("weak:"):])
		if err != nil {
			return nil, fmt.Errorf("bad weak-ranking spec %q: %w", spec, err)
		}
		return funcspace.WeakRanking(d, c)
	case strings.HasPrefix(spec, "ball:"):
		fields := strings.Split(spec[len("ball:"):], ",")
		if len(fields) != d+1 {
			return nil, fmt.Errorf("ball spec needs radius plus %d center coordinates", d)
		}
		vals := make([]float64, len(fields))
		for i, f := range fields {
			v, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
			if err != nil {
				return nil, fmt.Errorf("bad ball spec field %q: %w", f, err)
			}
			vals[i] = v
		}
		return funcspace.NewBall(vals[1:], vals[0])
	default:
		return nil, fmt.Errorf("unknown space spec %q (want weak:c or ball:r,c1..cd)", spec)
	}
}

// ParseNegate parses a comma-separated list of 0-based column indices
// ("2,4") into a slice. The empty string parses to nil.
func ParseNegate(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	var out []int
	for _, f := range strings.Split(s, ",") {
		j, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil {
			return nil, fmt.Errorf("bad -negate entry %q: %w", f, err)
		}
		out = append(out, j)
	}
	return out, nil
}

// LoadCSV reads a dataset from r and applies the standard preprocessing
// pipeline: negate the listed smaller-is-better columns (via the public
// rankregret.ReadCSV, the single implementation of that step), then
// (optionally) min-max normalize every attribute to [0,1].
func LoadCSV(r io.Reader, header bool, negate []int, normalize bool) (*dataset.Dataset, error) {
	ds, err := rankregret.ReadCSV(r, header, negate)
	if err != nil {
		return nil, err
	}
	if normalize {
		ds.Normalize()
	}
	return ds, nil
}

// LoadCSVFile is LoadCSV over a file path; "-" reads from stdin.
func LoadCSVFile(path string, header bool, negate []int, normalize bool) (*dataset.Dataset, error) {
	src := os.Stdin
	if path != "-" {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		src = f
	}
	return LoadCSV(src, header, negate, normalize)
}
