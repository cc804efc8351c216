package algohd

import (
	"reflect"
	"testing"

	"github.com/rankregret/rankregret/internal/dataset"
	"github.com/rankregret/rankregret/internal/funcspace"
	"github.com/rankregret/rankregret/internal/xrand"
)

// Parallelism is a latency knob, never a result knob: HDRRM, HDRRR, and the
// ablation variants must produce bit-identical results at every worker
// count. Run with -race this also exercises the tile hand-off in the
// scoring pass.
func TestParallelismBitIdentical(t *testing.T) {
	opts := DefaultOptions()
	opts.MaxM = 3000
	w3, err := funcspace.WeakRanking(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	sets := []struct {
		name string
		ds   *dataset.Dataset
	}{
		{"anti", dataset.Anticorrelated(xrand.New(11), 600, 3)},
		{"weather", dataset.SimWeather(xrand.New(1), 800)},
	}
	for _, s := range sets {
		type outcome struct {
			rrm, rrr, variant Result
		}
		var base *outcome
		for _, par := range []int{1, 4, 16} {
			o := opts
			o.Parallelism = par
			var got outcome
			var err error
			if got.rrm, err = HDRRMCtx(t.Context(), s.ds, 8, o); err != nil {
				t.Fatalf("%s par=%d HDRRM: %v", s.name, par, err)
			}
			if got.rrr, err = soloRRR(t.Context(), s.ds, 30, o); err != nil {
				t.Fatalf("%s par=%d HDRRR: %v", s.name, par, err)
			}
			ro := o
			if s.ds.Dim() == 3 {
				// Exercise the restricted-space (RRRM) path too.
				ro.Space = w3
			}
			if got.variant, err = soloVariant(t.Context(), s.ds, 8, ro, Variant{NoBasis: true}); err != nil {
				t.Fatalf("%s par=%d variant: %v", s.name, par, err)
			}
			if base == nil {
				base = &got
				continue
			}
			if !reflect.DeepEqual(got, *base) {
				t.Errorf("%s: parallelism %d result differs from parallelism 1:\n got %+v\nwant %+v",
					s.name, par, got, *base)
			}
		}
	}
}
