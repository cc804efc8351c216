package dataset

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
)

// ReadCSV parses a dataset from CSV. If header is true the first record is
// taken as attribute names. Every field must parse as a finite float64 (NaN
// and ±Inf fail with a *NonFiniteError) and all rows must have the same
// width.
func ReadCSV(r io.Reader, header bool) (*Dataset, error) {
	cr := csv.NewReader(r)
	cr.TrimLeadingSpace = true
	var ds *Dataset
	var names []string
	line := 0
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("dataset: reading csv: %w", err)
		}
		line++
		if header && line == 1 {
			names = rec
			continue
		}
		if ds == nil {
			ds = New(len(rec))
			if names != nil {
				if err := ds.SetAttrs(names); err != nil {
					return nil, err
				}
			}
		}
		row := make([]float64, len(rec))
		if len(rec) != ds.Dim() {
			return nil, fmt.Errorf("dataset: csv line %d has %d fields, want %d", line, len(rec), ds.Dim())
		}
		for j, f := range rec {
			v, err := strconv.ParseFloat(f, 64)
			if err != nil {
				return nil, fmt.Errorf("dataset: csv line %d field %d: %w", line, j+1, err)
			}
			row[j] = v
		}
		if err := CheckFinite(ds.N(), row); err != nil {
			return nil, err
		}
		ds.Append(row)
	}
	if ds == nil || ds.N() == 0 {
		return nil, fmt.Errorf("dataset: csv contained no data rows")
	}
	return ds, nil
}

// WriteCSV writes the dataset as CSV. If header is true, attribute names are
// written first (empty names become A1..Ad).
func (ds *Dataset) WriteCSV(w io.Writer, header bool) error {
	cw := csv.NewWriter(w)
	if header {
		names := ds.Attrs()
		for j, s := range names {
			if s == "" {
				names[j] = fmt.Sprintf("A%d", j+1)
			}
		}
		if err := cw.Write(names); err != nil {
			return fmt.Errorf("dataset: writing csv header: %w", err)
		}
	}
	rec := make([]string, ds.Dim())
	for i := 0; i < ds.N(); i++ {
		row := ds.Row(i)
		for j, v := range row {
			rec[j] = strconv.FormatFloat(v, 'g', -1, 64)
		}
		if err := cw.Write(rec); err != nil {
			return fmt.Errorf("dataset: writing csv row %d: %w", i, err)
		}
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		return fmt.Errorf("dataset: flushing csv: %w", err)
	}
	return nil
}
