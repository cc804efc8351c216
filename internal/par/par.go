// Package par is the one CPU fan-out of the solver and estimator passes: a
// fixed number of tiles handed out to a bounded pool of workers. Callers
// make results depend on the tile index only, never on which worker ran a
// tile or how many there were, so a pass answers the same at every core
// count.
package par

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"

	"github.com/rankregret/rankregret/internal/ctxutil"
)

// Tiles runs tiles 0..numTiles-1, each at most once, on up to workers
// goroutines (the caller's among them) and returns once every worker has
// stopped. newWorker is called once per worker, on that worker's goroutine,
// and returns the function that runs one tile, so per-worker scratch
// buffers live in its closure.
//
// workers <= 0 means GOMAXPROCS. The count is capped at max(GOMAXPROCS, 16)
// — the passes are CPU-bound and each worker owns its buffers, while the
// floor keeps multi-worker interleavings exercisable on small machines —
// and at numTiles.
//
// Tiles checks ctx before handing out each tile and returns ctx's error if
// it is cancelled; every tile has run when it returns nil. A panic in a
// tile stops the hand-out and is re-raised on the calling goroutine with
// the same value once the other workers have returned.
func Tiles(ctx context.Context, workers, numTiles int, newWorker func() func(tile int)) error {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, max(runtime.GOMAXPROCS(0), 16), numTiles)
	var next atomic.Int64
	var fault atomic.Pointer[any] // the first tile panic's value
	var wg sync.WaitGroup
	run := func() {
		defer wg.Done()
		defer func() {
			if v := recover(); v != nil {
				fault.CompareAndSwap(nil, &v)
			}
		}()
		tile := newWorker()
		for fault.Load() == nil && ctxutil.Cancelled(ctx) == nil {
			t := int(next.Add(1)) - 1
			if t >= numTiles {
				return
			}
			tile(t)
		}
	}
	wg.Add(workers)
	for range workers - 1 {
		go run()
	}
	if workers > 0 {
		run()
	}
	wg.Wait()
	if v := fault.Load(); v != nil {
		panic(*v)
	}
	return ctxutil.Cancelled(ctx)
}
