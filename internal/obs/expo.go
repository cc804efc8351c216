package obs

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// ExpositionContentType is the Content-Type for the Prometheus text format.
const ExpositionContentType = "text/plain; version=0.0.4; charset=utf-8"

func fmtFloat(v float64) string {
	switch {
	case math.IsInf(v, +1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// escapeHelp escapes backslashes and newlines per the exposition format.
func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// escapeLabel escapes a label value per the exposition format.
func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, `"`, `\"`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// WritePrometheus renders every registered family in Prometheus text
// exposition format (version 0.0.4), families sorted by name and series by
// label value. Callback series (CounterFunc/GaugeFunc) are evaluated at
// write time, so the exposition reflects the owning subsystem's live state.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	names := append([]string(nil), r.order...)
	fams := make([]*family, 0, len(names))
	for _, n := range names {
		fams = append(fams, r.fams[n])
	}
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })

	bw := bufio.NewWriter(w)
	for _, f := range fams {
		f.mu.Lock()
		series := append([]series(nil), f.series...)
		f.mu.Unlock()
		sort.Slice(series, func(i, j int) bool { return series[i].labelValue < series[j].labelValue })
		// Metadata is written even for a vec family with no series yet, so
		// every registered family is discoverable from the first scrape.
		fmt.Fprintf(bw, "# HELP %s %s\n", f.name, escapeHelp(f.help))
		fmt.Fprintf(bw, "# TYPE %s %s\n", f.name, f.typ)
		for _, s := range series {
			lbl := "" // rendered {name="value"} pair, empty when unlabeled
			if f.labelName != "" {
				lbl = fmt.Sprintf(`%s="%s"`, f.labelName, escapeLabel(s.labelValue))
			}
			switch {
			case s.hist != nil:
				writeHistogram(bw, f.name, lbl, s.hist.Snapshot())
			case s.histFn != nil:
				writeHistogram(bw, f.name, lbl, s.histFn())
			case s.gauge != nil:
				fmt.Fprintf(bw, "%s%s %s\n", f.name, braced(lbl), fmtFloat(s.gauge.Value()))
			case s.fn != nil:
				fmt.Fprintf(bw, "%s%s %s\n", f.name, braced(lbl), fmtFloat(s.fn()))
			}
		}
	}
	return bw.Flush()
}

// writeHistogram renders one histogram series from its snapshot. The +Inf
// bucket is always Count, so the parser's +Inf == _count invariant holds for
// callback-produced snapshots too.
func writeHistogram(bw *bufio.Writer, name, lbl string, snap HistogramSnapshot) {
	for i, ub := range snap.Bounds {
		if i >= len(snap.Cumulative) {
			break
		}
		fmt.Fprintf(bw, "%s_bucket{%s} %d\n", name,
			joinLabels(lbl, `le="`+fmtFloat(ub)+`"`), snap.Cumulative[i])
	}
	fmt.Fprintf(bw, "%s_bucket{%s} %d\n", name, joinLabels(lbl, `le="+Inf"`), snap.Count)
	fmt.Fprintf(bw, "%s_sum%s %s\n", name, braced(lbl), fmtFloat(snap.Sum))
	fmt.Fprintf(bw, "%s_count%s %d\n", name, braced(lbl), snap.Count)
}

func joinLabels(a, b string) string {
	if a == "" {
		return b
	}
	return a + "," + b
}

func braced(lbl string) string {
	if lbl == "" {
		return ""
	}
	return "{" + lbl + "}"
}

// Exposition is a parsed Prometheus text exposition: per-family metadata and
// every sample keyed by its full series name (base name + sorted label set as
// written).
type Exposition struct {
	Families map[string]*ExpoFamily
	// Samples maps "name{labels}" (labels exactly as exposed, including le)
	// to the parsed value.
	Samples map[string]float64
}

// ExpoFamily is the parsed metadata and samples of one metric family.
type ExpoFamily struct {
	Name string
	Help string
	Type string
	// Series maps the rendered label portion ("" for unlabeled) to value.
	// For histograms this holds _bucket/_sum/_count samples under their
	// suffixed names in Exposition.Samples instead.
	Series map[string]float64
}

// Value returns the sample for a full series key, e.g.
// Value(`rrmd_queue_wait_seconds_count`) or
// Value(`rrmd_solve_stage_duration_seconds_count{stage="solve"}`).
func (e *Exposition) Value(key string) (float64, bool) {
	v, ok := e.Samples[key]
	return v, ok
}

// baseFamily strips histogram sample suffixes to recover the declared family
// name.
func baseFamily(name string) string {
	for _, suf := range []string{"_bucket", "_sum", "_count"} {
		if strings.HasSuffix(name, suf) {
			return strings.TrimSuffix(name, suf)
		}
	}
	return name
}

// ParseExposition parses and validates Prometheus text exposition format.
// Beyond syntax, it enforces the invariants the tests and the smoke scrape
// rely on:
//
//   - every sample belongs to a family with # TYPE (and # HELP) declared
//     before its first sample;
//   - histogram buckets are cumulative (non-decreasing in ascending le
//     order) and the +Inf bucket equals the _count sample;
//   - histogram families expose _sum and _count for every label set;
//   - counter and histogram _count/_bucket values are non-negative.
//
// It returns the parsed samples for value-level assertions.
func ParseExposition(rd io.Reader) (*Exposition, error) {
	exp := &Exposition{
		Families: make(map[string]*ExpoFamily),
		Samples:  make(map[string]float64),
	}
	// histogram bookkeeping: family -> labelset -> le -> value
	type histAcc struct {
		buckets map[string]map[string]float64
		sums    map[string]float64
		counts  map[string]float64
	}
	hists := make(map[string]*histAcc)

	sc := bufio.NewScanner(rd)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if strings.TrimSpace(line) == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.SplitN(line, " ", 4)
			if len(fields) < 3 || (fields[1] != "HELP" && fields[1] != "TYPE") {
				return nil, fmt.Errorf("line %d: malformed comment %q", lineNo, line)
			}
			name := fields[2]
			if !validName(name) {
				return nil, fmt.Errorf("line %d: invalid metric name %q", lineNo, name)
			}
			fam := exp.Families[name]
			if fam == nil {
				fam = &ExpoFamily{Name: name, Series: make(map[string]float64)}
				exp.Families[name] = fam
			}
			switch fields[1] {
			case "HELP":
				if len(fields) == 4 {
					fam.Help = fields[3]
				}
			case "TYPE":
				if len(fields) != 4 {
					return nil, fmt.Errorf("line %d: TYPE without value", lineNo)
				}
				switch fields[3] {
				case "counter", "gauge", "histogram", "summary", "untyped":
				default:
					return nil, fmt.Errorf("line %d: unknown TYPE %q", lineNo, fields[3])
				}
				if fam.Type != "" {
					return nil, fmt.Errorf("line %d: duplicate TYPE for %q", lineNo, name)
				}
				fam.Type = fields[3]
			}
			continue
		}

		name, labels, value, err := parseSample(line)
		if err != nil {
			return nil, fmt.Errorf("line %d: %v", lineNo, err)
		}
		base := baseFamily(name)
		fam := exp.Families[base]
		if fam == nil || fam.Type == "" {
			// _sum/_count could also be a plain metric that happens to end
			// with the suffix; accept it if declared under its full name.
			if f2 := exp.Families[name]; f2 != nil && f2.Type != "" {
				fam, base = f2, name
			} else {
				return nil, fmt.Errorf("line %d: sample %q before # TYPE declaration", lineNo, name)
			}
		}
		key := name
		if labels != "" {
			key = name + "{" + labels + "}"
		}
		if _, dup := exp.Samples[key]; dup {
			return nil, fmt.Errorf("line %d: duplicate sample %q", lineNo, key)
		}
		exp.Samples[key] = value
		if base == name && fam.Type != "histogram" {
			fam.Series[labels] = value
			if fam.Type == "counter" && value < 0 {
				return nil, fmt.Errorf("line %d: negative counter %q", lineNo, key)
			}
		}
		if fam.Type == "histogram" {
			acc := hists[base]
			if acc == nil {
				acc = &histAcc{
					buckets: make(map[string]map[string]float64),
					sums:    make(map[string]float64),
					counts:  make(map[string]float64),
				}
				hists[base] = acc
			}
			switch {
			case name == base+"_bucket":
				le, rest, err := extractLE(labels)
				if err != nil {
					return nil, fmt.Errorf("line %d: %v", lineNo, err)
				}
				if value < 0 {
					return nil, fmt.Errorf("line %d: negative bucket %q", lineNo, key)
				}
				if acc.buckets[rest] == nil {
					acc.buckets[rest] = make(map[string]float64)
				}
				acc.buckets[rest][le] = value
			case name == base+"_sum":
				acc.sums[labels] = value
			case name == base+"_count":
				if value < 0 {
					return nil, fmt.Errorf("line %d: negative count %q", lineNo, key)
				}
				acc.counts[labels] = value
			default:
				return nil, fmt.Errorf("line %d: histogram family %q has non-histogram sample %q", lineNo, base, name)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}

	// Cross-sample histogram invariants.
	for fam, acc := range hists {
		for lbls, buckets := range acc.buckets {
			type bound struct {
				f float64
				s string
			}
			les := make([]bound, 0, len(buckets))
			hasInf := false
			for le := range buckets {
				if le == "+Inf" {
					hasInf = true
					continue
				}
				v, err := strconv.ParseFloat(le, 64)
				if err != nil {
					return nil, fmt.Errorf("histogram %s{%s}: bad le %q", fam, lbls, le)
				}
				les = append(les, bound{v, le})
			}
			if !hasInf {
				return nil, fmt.Errorf("histogram %s{%s}: missing +Inf bucket", fam, lbls)
			}
			sort.Slice(les, func(i, j int) bool { return les[i].f < les[j].f })
			prev := 0.0
			for _, le := range les {
				v := buckets[le.s]
				if v < prev {
					return nil, fmt.Errorf("histogram %s{%s}: bucket le=%s decreases (%g < %g)",
						fam, lbls, le.s, v, prev)
				}
				prev = v
			}
			inf := buckets["+Inf"]
			if inf < prev {
				return nil, fmt.Errorf("histogram %s{%s}: +Inf bucket %g below last bound %g", fam, lbls, inf, prev)
			}
			count, ok := acc.counts[lbls]
			if !ok {
				return nil, fmt.Errorf("histogram %s{%s}: missing _count", fam, lbls)
			}
			if _, ok := acc.sums[lbls]; !ok {
				return nil, fmt.Errorf("histogram %s{%s}: missing _sum", fam, lbls)
			}
			if inf != count {
				return nil, fmt.Errorf("histogram %s{%s}: +Inf bucket %g != _count %g", fam, lbls, inf, count)
			}
		}
	}
	return exp, nil
}

// parseSample splits a sample line into name, rendered labels (without
// braces, may be ""), and value. Timestamps are not supported (the registry
// never writes them).
func parseSample(line string) (name, labels string, value float64, err error) {
	rest := line
	if i := strings.IndexByte(rest, '{'); i >= 0 {
		name = rest[:i]
		j := strings.LastIndexByte(rest, '}')
		if j < i {
			return "", "", 0, fmt.Errorf("unbalanced braces in %q", line)
		}
		labels = rest[i+1 : j]
		rest = strings.TrimSpace(rest[j+1:])
		if err := checkLabels(labels); err != nil {
			return "", "", 0, err
		}
	} else {
		fields := strings.Fields(rest)
		if len(fields) != 2 {
			return "", "", 0, fmt.Errorf("malformed sample %q", line)
		}
		name, rest = fields[0], fields[1]
	}
	if !validName(name) {
		return "", "", 0, fmt.Errorf("invalid sample name %q", name)
	}
	rest = strings.TrimSpace(rest)
	if rest == "" || len(strings.Fields(rest)) != 1 {
		return "", "", 0, fmt.Errorf("malformed value in %q", line)
	}
	v, err := parseValue(rest)
	if err != nil {
		return "", "", 0, fmt.Errorf("bad value %q: %v", rest, err)
	}
	return name, labels, v, nil
}

func parseValue(s string) (float64, error) {
	switch s {
	case "+Inf":
		return math.Inf(1), nil
	case "-Inf":
		return math.Inf(-1), nil
	case "NaN":
		return math.NaN(), nil
	}
	return strconv.ParseFloat(s, 64)
}

// checkLabels validates a rendered label set: comma-separated name="value"
// pairs with escaped quotes inside values.
func checkLabels(labels string) error {
	rest := labels
	for rest != "" {
		eq := strings.IndexByte(rest, '=')
		if eq <= 0 || !validName(strings.TrimSuffix(rest[:eq], " ")) {
			return fmt.Errorf("malformed label in %q", labels)
		}
		rest = rest[eq+1:]
		if len(rest) < 2 || rest[0] != '"' {
			return fmt.Errorf("unquoted label value in %q", labels)
		}
		rest = rest[1:]
		// scan for the closing quote, honoring backslash escapes
		end := -1
		for i := 0; i < len(rest); i++ {
			if rest[i] == '\\' {
				i++
				continue
			}
			if rest[i] == '"' {
				end = i
				break
			}
		}
		if end < 0 {
			return fmt.Errorf("unterminated label value in %q", labels)
		}
		rest = rest[end+1:]
		if rest == "" {
			break
		}
		if !strings.HasPrefix(rest, ",") {
			return fmt.Errorf("trailing garbage after label value in %q", labels)
		}
		rest = rest[1:]
	}
	return nil
}

// extractLE pulls the le label out of a rendered bucket label set, returning
// the le value and the remaining labels (sorted order preserved).
func extractLE(labels string) (le, rest string, err error) {
	parts := splitLabels(labels)
	kept := make([]string, 0, len(parts))
	for _, p := range parts {
		if strings.HasPrefix(p, `le="`) && strings.HasSuffix(p, `"`) {
			le = strings.TrimSuffix(strings.TrimPrefix(p, `le="`), `"`)
			continue
		}
		kept = append(kept, p)
	}
	if le == "" {
		return "", "", fmt.Errorf("bucket sample missing le label in %q", labels)
	}
	return le, strings.Join(kept, ","), nil
}

// splitLabels splits a rendered label set on commas outside quoted values.
func splitLabels(labels string) []string {
	var parts []string
	start, inQ := 0, false
	for i := 0; i < len(labels); i++ {
		switch labels[i] {
		case '\\':
			if inQ {
				i++
			}
		case '"':
			inQ = !inQ
		case ',':
			if !inQ {
				parts = append(parts, labels[start:i])
				start = i + 1
			}
		}
	}
	if start < len(labels) {
		parts = append(parts, labels[start:])
	}
	return parts
}
