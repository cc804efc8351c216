package algohd

import (
	"fmt"
	"testing"

	"github.com/rankregret/rankregret/internal/dataset"
	"github.com/rankregret/rankregret/internal/xrand"
)

func benchOpts() Options {
	o := DefaultOptions()
	o.MaxM = 4000
	return o
}

func BenchmarkHDRRM(b *testing.B) {
	for _, wl := range []string{"indep", "anti"} {
		for _, n := range []int{1000, 5000} {
			ds, _ := dataset.Synthetic(wl, xrand.New(1), n, 4)
			b.Run(fmt.Sprintf("%s/n=%d", wl, n), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := HDRRMCtx(b.Context(), ds, 10, benchOpts()); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

func BenchmarkASMSOnce(b *testing.B) {
	ds := dataset.Anticorrelated(xrand.New(1), 5000, 4)
	vs, err := BuildVecSetCtx(b.Context(), ds, nil, 6, 4000, xrand.New(2))
	if err != nil {
		b.Fatal(err)
	}
	basis := uniqueInts(ds.Basis())
	ensureTopK(b, vs, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		asms(b, ds, 64, basis, vs)
	}
}

func BenchmarkBuildVecSet(b *testing.B) {
	ds := dataset.Independent(xrand.New(1), 5000, 4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := BuildVecSetCtx(b.Context(), ds, nil, 6, 4000, xrand.New(2)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEnsureTopK(b *testing.B) {
	ds := dataset.Independent(xrand.New(1), 5000, 4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		vs, err := BuildVecSetCtx(b.Context(), ds, nil, 6, 2000, xrand.New(2))
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		ensureTopK(b, vs, 128)
	}
}

func BenchmarkBaselines(b *testing.B) {
	ds := dataset.Anticorrelated(xrand.New(1), 2000, 4)
	b.Run("MDRC", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := MDRCCtx(b.Context(), ds, 10); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("MDRRRr", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := MDRRRrCtx(b.Context(), ds, 10, benchOpts()); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("MDRMS", func(b *testing.B) {
		o := benchOpts()
		o.M = 512 // MDRMS is slow; keep the bench affordable
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := MDRMSCtx(b.Context(), ds, 10, o); err != nil {
				b.Fatal(err)
			}
		}
	})
}
