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

// BenchmarkHDRRMColdCI is one cold HDRRM solve at CI scale on one worker:
// the shape of the benchmark's cold simweather and simnba solves.
func BenchmarkHDRRMColdCI(b *testing.B) {
	for _, c := range []struct {
		name string
		ds   *dataset.Dataset
		r    int
	}{
		{"simweather", dataset.SimWeather(xrand.New(1), 4000), 10},
		{"simnba", dataset.SimNBA(xrand.New(1), 2000), 8},
	} {
		b.Run(c.name, func(b *testing.B) {
			o := DefaultOptions()
			o.MaxM = 12000
			o.Parallelism = 1
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := HDRRMCtx(b.Context(), c.ds, c.r, o); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRepairAppendCI repairs simweather's depth-32 VecSet across an
// append of 16 random rows, the shape of the engine's repair acceptance
// test: the sample size follows the grown n, so the repair also scores the
// extended tail of the sample stream. Only the first repair can take over
// the source's sample rng; every later iteration replays the stream.
func BenchmarkRepairAppendCI(b *testing.B) {
	ctx := b.Context()
	o := DefaultOptions()
	base := dataset.SimWeather(xrand.New(1), 4000)
	old := NewSharedVecSet(base, nil, o.EffectiveGamma(), 1, nil)
	view, _, err := old.Acquire(ctx, o.SampleSize(base.N(), base.Dim(), 10))
	if err != nil {
		b.Fatal(err)
	}
	if err := view.EnsureTopKCtx(ctx, 32); err != nil {
		b.Fatal(err)
	}
	v1 := base.Snapshot()
	rng := xrand.New(4)
	row := make([]float64, v1.Dim())
	for i := 0; i < 16; i++ {
		for j := range row {
			row[j] = rng.Float64()
		}
		v1.Append(row)
	}
	deltas, ok := v1.Deltas(base.Version())
	if !ok {
		b.Fatal("history truncated")
	}
	m1 := o.SampleSize(v1.N(), v1.Dim(), 10)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		view, outcome, err := NewRepairedVecSet(old, v1, deltas).Acquire(ctx, m1)
		if err != nil || outcome != VecSetRepaired {
			b.Fatal(outcome, err)
		}
		if err := view.EnsureTopKCtx(ctx, 32); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRepairAppendNBA is the shape of a serve-mixed simnba write-read
// unit at CI scale: a SharedVecSet left at the depth an r = 8 solve needs,
// then, per op, a repair across an append of 8 rows near existing ones and
// the HDRRM solve on the repaired view. Such rows are usually beaten on
// every attribute by enough skyband rows that no list can admit them.
func BenchmarkRepairAppendNBA(b *testing.B) {
	const r, rows = 8, 8
	ctx := b.Context()
	o := DefaultOptions()
	o.MaxM = 12000
	base := dataset.SimNBA(xrand.New(1), 2000)
	m := o.SampleSize(base.N(), base.Dim(), r)
	old := NewSharedVecSet(base, nil, o.EffectiveGamma(), o.Seed, nil)
	view, _, err := old.Acquire(ctx, m)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := HDRRMWithVecSetCtx(ctx, base, r, o, view); err != nil {
		b.Fatal(err)
	}
	next := base.Snapshot()
	rng := xrand.New(4)
	for range rows {
		// A random row with each value moved by up to 1% and clamped to
		// [0, 1], as the serving benchmark's appends are drawn.
		src := base.Row(rng.Intn(base.N()))
		row := make([]float64, len(src))
		for j, v := range src {
			row[j] = min(max(v+0.02*(rng.Float64()-0.5), 0), 1)
		}
		next.Append(row)
	}
	deltas, ok := next.Deltas(base.Version())
	if !ok {
		b.Fatal("history truncated")
	}
	m1 := o.SampleSize(next.N(), next.Dim(), r)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		vs, outcome, err := NewRepairedVecSet(old, next, deltas).Acquire(ctx, m1)
		if err != nil || outcome != VecSetRepaired {
			b.Fatal(outcome, err)
		}
		if _, err := HDRRMWithVecSetCtx(ctx, next, r, o, vs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHDRRMSweepCI is the shape of the benchmark's sweep workload at
// CI scale on one worker: a prebuilt SharedVecSet per dataset and budgets
// cycling over base..base+4, so each op is HDRRM's k-search (ASMS probes,
// set cover) alone, with no scoring pass.
func BenchmarkHDRRMSweepCI(b *testing.B) {
	const steps = 5
	for _, c := range []struct {
		name string
		ds   *dataset.Dataset
		r    int
	}{
		{"simweather", dataset.SimWeather(xrand.New(1), 4000), 10},
		{"simnba", dataset.SimNBA(xrand.New(1), 2000), 8},
	} {
		b.Run(c.name, func(b *testing.B) {
			ctx := b.Context()
			o := DefaultOptions()
			o.MaxM = 12000
			o.Parallelism = 1
			shared := NewSharedVecSet(c.ds, nil, o.EffectiveGamma(), o.Seed, nil)
			views := make([]*VecSet, steps)
			for i := range views {
				r := c.r + i
				vs, _, err := shared.Acquire(ctx, o.SampleSize(c.ds.N(), c.ds.Dim(), r))
				if err != nil {
					b.Fatal(err)
				}
				if _, err := HDRRMWithVecSetCtx(ctx, c.ds, r, o, vs); err != nil {
					b.Fatal(err)
				}
				views[i] = vs
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				j := i % steps
				if _, err := HDRRMWithVecSetCtx(ctx, c.ds, c.r+j, o, views[j]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
