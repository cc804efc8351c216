package store

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestRestartUnderLoad hammers one store with concurrent mutators while a
// "crash photographer" snapshots the data directory mid-write, then checks
// two things: (1) every crash image recovers to a clean prefix — each
// recovered version is one the live store actually published, never a
// half-applied hybrid — and (2) after a clean close, a reopen reproduces
// the final registry exactly. Run with -race this also exercises the
// store's locking under mutation/snapshot/prune concurrency.
func TestRestartUnderLoad(t *testing.T) {
	dir := t.TempDir()
	// Small snapshot cadence and segments so images catch rotations and
	// prunes in flight, not just appends.
	st := openTest(t, dir, Options{Sync: SyncNever, SnapshotEvery: 9, SegmentBytes: 1 << 10})

	const workers = 4
	const stepsPerWorker = 40
	// published records every (name, version) -> fingerprint the live store
	// ever made visible; crash images may only contain these.
	var published sync.Map
	record := func(name string, vv *Versions) {
		for _, ds := range vv.List() {
			published.Store(fmt.Sprintf("%s/v%d", name, ds.Version()), ds.Fingerprint())
		}
	}

	for w := 0; w < workers; w++ {
		name := fmt.Sprintf("ds%d", w)
		if err := st.RegisterCtx(t.Context(), name, makeDS(t, 2, 6, float64(w)/10), 4); err != nil {
			t.Fatal(err)
		}
		if vv, ok := st.Get(name); ok {
			record(name, vv)
		}
	}

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			name := fmt.Sprintf("ds%d", w)
			for i := 0; i < stepsPerWorker; i++ {
				var err error
				if i%5 == 4 {
					_, err = st.DeleteRowsCtx(t.Context(), name, []int{i % 3}, 4)
				} else {
					_, err = st.AppendRowsCtx(t.Context(), name, [][]float64{{float64(i) / stepsPerWorker, float64(w) / workers}}, 4)
				}
				if err != nil {
					t.Errorf("worker %d step %d: %v", w, i, err)
					return
				}
				if vv, ok := st.Get(name); ok {
					record(name, vv)
				}
			}
		}(w)
	}

	// Photograph the directory while the workers run.
	var images []string
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 12; i++ {
			images = append(images, copyDir(t, dir))
		}
	}()
	wg.Wait()
	<-done

	for i, img := range images {
		back, err := Open(Options{Dir: img, Sync: SyncNever, Retain: 4, SnapshotEvery: -1})
		if err != nil {
			t.Fatalf("image %d: open: %v", i, err)
		}
		for _, name := range back.Names() {
			vv, _ := back.Get(name)
			for _, ds := range vv.List() {
				key := fmt.Sprintf("%s/v%d", name, ds.Version())
				fp, ok := published.Load(key)
				if !ok {
					t.Fatalf("image %d: recovered %s which was never published", i, key)
				}
				if fp.(uint64) != ds.Fingerprint() {
					t.Fatalf("image %d: %s fingerprint %016x != published %016x", i, key, ds.Fingerprint(), fp)
				}
			}
		}
		back.Close()
	}

	want := digest(st)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	back := openTest(t, dir, Options{Sync: SyncNever, Retain: 4})
	if got := digest(back); got != want {
		t.Fatalf("final recovery diverged:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestConcurrentSnapshotPaths races the automatic snapshot path
// (SnapshotEvery 3) against a loop of forced ones (Compact) while four
// writers append to their own datasets: every cut and persist goes through
// one in-flight slot, so no snapshot may regress another or prune what a
// later one needs. The writers are paced so that several forced snapshots
// land while they run (a step cap bounds the run on a slow disk). After
// Close, a reopen must reproduce the registry Close saw.
func TestConcurrentSnapshotPaths(t *testing.T) {
	dir := t.TempDir()
	st := openTest(t, dir, Options{Sync: SyncNever, SnapshotEvery: 3})
	const writers, minSteps, maxSteps, minCompacts = 4, 30, 2000, 8
	for w := 0; w < writers; w++ {
		if err := st.RegisterCtx(t.Context(), fmt.Sprintf("ds%d", w), makeDS(t, 2, 4, float64(w)/10), 0); err != nil {
			t.Fatal(err)
		}
	}

	var compacts atomic.Int32
	stop := make(chan struct{})
	compacted := make(chan error, 1)
	go func() {
		for {
			select {
			case <-stop:
				compacted <- nil
				return
			default:
			}
			if err := st.Compact(); err != nil {
				compacted <- err
				return
			}
			compacts.Add(1)
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			name := fmt.Sprintf("ds%d", w)
			for i := 0; i < maxSteps && (i < minSteps || compacts.Load() < minCompacts); i++ {
				if _, err := st.AppendRowsCtx(t.Context(), name, [][]float64{{float64(i%100) / 100, float64(w) / writers}}, 0); err != nil {
					t.Errorf("writer %d step %d: %v", w, i, err)
					return
				}
				time.Sleep(100 * time.Microsecond)
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	if err := <-compacted; err != nil {
		t.Fatalf("compact: %v", err)
	}

	want := digest(st)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	back := openTest(t, dir, Options{Sync: SyncNever, SnapshotEvery: 3})
	if got := digest(back); got != want {
		t.Fatalf("recovery after racing snapshots diverged:\ngot:\n%s\nwant:\n%s", got, want)
	}
}
