package par

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"github.com/rankregret/rankregret/internal/obs/obstest"
)

// TestTilesRunsEveryTileOnce: every tile runs exactly once at any worker
// count, including more workers than tiles and no tiles at all.
func TestTilesRunsEveryTileOnce(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 3, 64} {
		for _, numTiles := range []int{0, 1, 7, 100} {
			counts := make([]atomic.Int32, numTiles)
			var made atomic.Int32
			err := Tiles(context.Background(), workers, numTiles, func() func(int) {
				made.Add(1)
				return func(tile int) { counts[tile].Add(1) }
			})
			if err != nil {
				t.Fatalf("workers %d, tiles %d: %v", workers, numTiles, err)
			}
			for tile := range counts {
				if n := counts[tile].Load(); n != 1 {
					t.Errorf("workers %d, tiles %d: tile %d ran %d times", workers, numTiles, tile, n)
				}
			}
			if m := int(made.Load()); m > numTiles || (workers > 0 && m > workers) {
				t.Errorf("workers %d, tiles %d: made %d workers", workers, numTiles, m)
			}
		}
	}
}

// TestTilesCancelStopsHandOut: a cancel mid-run returns context.Canceled and
// no tile starts after it.
func TestTilesCancelStopsHandOut(t *testing.T) {
	const numTiles, cancelAt = 1000, 10
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		var ran, afterCancel atomic.Int32
		var cancelled atomic.Bool
		err := Tiles(ctx, workers, numTiles, func() func(int) {
			return func(tile int) {
				if cancelled.Load() {
					afterCancel.Add(1)
				}
				if ran.Add(1) == cancelAt {
					cancel()
					cancelled.Store(true)
				}
			}
		})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Errorf("workers %d: err = %v, want context.Canceled", workers, err)
		}
		// A worker may already be past its ctx check when the cancel lands,
		// so each worker can start at most one more tile.
		if n := int(afterCancel.Load()); n > workers {
			t.Errorf("workers %d: %d tiles started after the cancel", workers, n)
		}
		if n := int(ran.Load()); n >= numTiles {
			t.Errorf("workers %d: all %d tiles ran despite the cancel", workers, n)
		}
	}
}

// TestTilesRepanicsOnCaller: a panicking tile re-panics on the calling
// goroutine with the same value, after every worker has returned.
func TestTilesRepanicsOnCaller(t *testing.T) {
	obstest.ExpectNoGoroutineLeak(t, 0)
	type boom struct{ tile int }
	for _, workers := range []int{1, 4} {
		var ran atomic.Int32
		got := func() (v any) {
			defer func() { v = recover() }()
			Tiles(context.Background(), workers, 1000, func() func(int) {
				return func(tile int) {
					ran.Add(1)
					if tile == 3 {
						panic(boom{tile})
					}
				}
			})
			return nil
		}()
		if got != (boom{3}) {
			t.Errorf("workers %d: recovered %v, want %v", workers, got, boom{3})
		}
		if n := ran.Load(); n >= 1000 {
			t.Errorf("workers %d: all %d tiles ran despite the panic", workers, n)
		}
	}
}
