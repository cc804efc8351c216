package dataset

import (
	"errors"
	"math"
	"strings"
	"testing"
)

func TestFromRowsRejectsNonFinite(t *testing.T) {
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		_, err := FromRows([][]float64{{0.1, 0.2}, {0.3, 0.4}, {v, 0.5}})
		var nf *NonFiniteError
		if !errors.As(err, &nf) || nf.Row != 2 || nf.Col != 0 {
			t.Fatalf("value %v: err %v, want a NonFiniteError at row 2 attribute 0", v, err)
		}
	}
}

func TestReadCSVRejectsNonFinite(t *testing.T) {
	for _, in := range []string{"1,2\n3,NaN\n", "1,2\n3,inf\n", "1,2\n3,-Inf\n", "1,2\n3,+infinity\n"} {
		_, err := ReadCSV(strings.NewReader("a,b\n"+in), true)
		var nf *NonFiniteError
		if !errors.As(err, &nf) || nf.Row != 1 || nf.Col != 1 {
			t.Fatalf("%q: err %v, want a NonFiniteError at row 1 attribute 1", in, err)
		}
	}
	if _, err := ReadCSV(strings.NewReader("1e308,-1e308\n"), false); err != nil {
		t.Fatalf("finite extremes rejected: %v", err)
	}
}
