package engine

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"github.com/rankregret/rankregret/internal/dataset"
	"github.com/rankregret/rankregret/internal/xrand"
)

// TestRunBudgetAnchoredAtDequeue is the regression test for the queue-wait
// starvation bug: a job whose run budget is shorter than the time it spends
// queued behind other work must still run with its full budget once a worker
// picks it up, not start dead.
func TestRunBudgetAnchoredAtDequeue(t *testing.T) {
	s, b := newBlockingScheduler(t, 1, 8)
	testBlock.cur.Store(&b)
	ds := dataset.Independent(xrand.New(1), 50, 3)

	blocker, err := s.Submit(blockReq(ds, b, 3))
	if err != nil {
		t.Fatal(err)
	}
	<-b.started
	// Run budget 200ms, then a 450ms queue wait behind the blocker: if the
	// budget were counted from submission, the job would be expired before
	// it ever started.
	req := blockReq(ds, b, 4)
	req.Timeout = 200 * time.Millisecond
	victim, err := s.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(450 * time.Millisecond)
	// Swap to the instant solver (which still fails on an expired context)
	// before releasing, so the victim's outcome depends only on its budget.
	testBlock.cur.Store(nil)
	close(b.release)

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if st, err := s.Wait(ctx, blocker.ID); err != nil || st.State != JobDone {
		t.Fatalf("blocker = %+v (err %v), want done", st, err)
	}
	st, err := s.Wait(ctx, victim.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != JobDone {
		t.Fatalf("job queued past its run budget = %s (%q), want done: the budget must anchor at dequeue", st.State, st.Error)
	}
}

// TestQueueTimeoutRejectsAtDequeue covers the other half of the split
// budget: a job whose queue-wait budget expires before a worker frees up is
// rejected with ErrQueueTimeout instead of running late.
func TestQueueTimeoutRejectsAtDequeue(t *testing.T) {
	s, b := newBlockingScheduler(t, 1, 8)
	testBlock.cur.Store(&b)
	ds := dataset.Independent(xrand.New(1), 50, 3)

	if _, err := s.Submit(blockReq(ds, b, 3)); err != nil {
		t.Fatal(err)
	}
	<-b.started
	req := blockReq(ds, b, 4)
	req.QueueTimeout = 30 * time.Millisecond
	stale, err := s.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(80 * time.Millisecond) // let the queue-wait budget lapse
	testBlock.cur.Store(nil)
	close(b.release)

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	st, err := s.Wait(ctx, stale.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != JobFailed || st.Error != ErrQueueTimeout.Error() {
		t.Fatalf("expired-queue-wait job = %s (%q), want failed with %v", st.State, st.Error, ErrQueueTimeout)
	}
	if !st.StartedAt.IsZero() {
		t.Errorf("rejected job has a start time %v; it must never run", st.StartedAt)
	}
}

// TestDoQueueTimeout exercises the synchronous path: Do with a queue-wait
// budget returns ErrQueueTimeout when the queue stays saturated past it.
func TestDoQueueTimeout(t *testing.T) {
	s, b := newBlockingScheduler(t, 1, 8)
	testBlock.cur.Store(&b)
	ds := dataset.Independent(xrand.New(1), 50, 3)

	if _, err := s.Submit(blockReq(ds, b, 3)); err != nil {
		t.Fatal(err)
	}
	<-b.started
	go func() {
		time.Sleep(150 * time.Millisecond)
		testBlock.cur.Store(nil)
		close(b.release)
	}()
	req := blockReq(ds, b, 4)
	req.QueueTimeout = 30 * time.Millisecond
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := s.Do(ctx, req); !errors.Is(err, ErrQueueTimeout) {
		t.Fatalf("Do on a saturated queue = %v, want ErrQueueTimeout", err)
	}
}

// warmJobStartsFirst queues a cold job and then a warm one behind a blocked
// worker, lets them wait for hold, releases the worker, and reports whether
// the warm job started first. cacheSize configures the engine (negative =
// caches off) and maxColdWait the scheduler's starvation bound.
func warmJobStartsFirst(t *testing.T, cacheSize int, maxColdWait, hold time.Duration) bool {
	t.Helper()
	e := New(cacheSize)
	s := NewScheduler(e, 1, 8)
	defer s.Close()
	s.maxColdWait = maxColdWait
	b := blockingSolver{started: make(chan string, 4), release: make(chan struct{})}
	testBlock.cur.Store(&b)
	defer testBlock.cur.Store(nil)

	cold := dataset.SimIsland(xrand.New(2), 150)
	warm := dataset.SimNBA(xrand.New(3), 150)
	opts := Options{Seed: 1, MaxSamples: 400}
	// Warm the VecSet tier for one dataset with a direct solve (r=5 covers
	// SimNBA's basis; the tier's key ignores r, so the later r=5 job probes
	// warm either way).
	if _, err := e.Solve(t.Context(), warm, 5, "", opts); err != nil {
		t.Fatal(err)
	}

	blocker, err := s.Submit(blockReq(cold, b, 3))
	if err != nil {
		t.Fatal(err)
	}
	<-b.started
	coldSt, err := s.Submit(Request{Dataset: cold, Mode: ModeRRM, RK: 5, Opts: opts})
	if err != nil {
		t.Fatal(err)
	}
	warmSt, err := s.Submit(Request{Dataset: warm, Mode: ModeRRM, RK: 5, Opts: opts})
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(hold)
	close(b.release)

	ctx, cancel := context.WithTimeout(t.Context(), 30*time.Second)
	defer cancel()
	for _, id := range []string{blocker.ID, coldSt.ID, warmSt.ID} {
		if st, err := s.Wait(ctx, id); err != nil || st.State != JobDone {
			t.Fatalf("job %s = %+v (err %v), want done", id, st, err)
		}
	}
	gotCold, _ := s.Get(coldSt.ID)
	gotWarm, _ := s.Get(warmSt.ID)
	return gotWarm.StartedAt.Before(gotCold.StartedAt)
}

// TestAffinityRunsWarmJobsFirst pins the dequeue order: under pressure, a
// pending job whose dataset is warm in the engine's cache tiers starts
// before an earlier-arrived cold job. With the caches off nothing probes
// warm, so arrival order wins.
func TestAffinityRunsWarmJobsFirst(t *testing.T) {
	for _, tc := range []struct {
		name      string
		cacheSize int
		warmFirst bool
	}{
		{"affinity", 0, true},
		{"fifo", -1, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := warmJobStartsFirst(t, tc.cacheSize, time.Minute, 0); got != tc.warmFirst {
				t.Fatalf("warm job started first = %v, want %v", got, tc.warmFirst)
			}
		})
	}
}

// TestAffinityAntiStarvation: once the oldest pending job has waited past
// maxColdWait, dequeue takes it in arrival order so cold jobs cannot starve
// behind a stream of warm ones.
func TestAffinityAntiStarvation(t *testing.T) {
	if warmJobStartsFirst(t, 0, 50*time.Millisecond, 150*time.Millisecond) {
		t.Fatal("starving cold job skipped: the warm job started first")
	}
}

// TestStatsCoherentUnderLoad hammers the scheduler from many goroutines
// while a reader snapshots Stats, asserting the invariants a coherent
// snapshot guarantees (done+failed never exceeds submitted, gauges stay in
// range). Run with -race this also proves the counters share one lock.
func TestStatsCoherentUnderLoad(t *testing.T) {
	e := New(0)
	s := NewScheduler(e, 4, 16)
	defer s.Close()
	ds := dataset.Independent(xrand.New(5), 60, 3)
	opts := Options{Seed: 1, MaxSamples: 200}

	stop := make(chan struct{})
	var readerWG sync.WaitGroup
	readerWG.Add(1)
	go func() {
		defer readerWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			st := s.Stats()
			if st.Done+st.Failed > st.Submitted {
				t.Errorf("torn snapshot: done %d + failed %d > submitted %d", st.Done, st.Failed, st.Submitted)
				return
			}
			if st.QueueDepth < 0 || st.QueueDepth > st.QueueCap {
				t.Errorf("queue depth %d outside [0, %d]", st.QueueDepth, st.QueueCap)
				return
			}
			if st.Running < 0 || st.Running > int64(st.Workers) {
				t.Errorf("running %d outside [0, %d]", st.Running, st.Workers)
				return
			}
		}
	}()

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				req := Request{Dataset: ds, Mode: ModeRRM, RK: 3 + (g+i)%3, Opts: opts}
				if g%2 == 0 {
					// Sync path; overload rejections are expected and fine.
					ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
					_, err := s.Do(ctx, req)
					cancel()
					if err != nil && !errors.Is(err, ErrQueueFull) {
						t.Errorf("Do: %v", err)
						return
					}
				} else {
					if _, err := s.Submit(req); err != nil && !errors.Is(err, ErrQueueFull) {
						t.Errorf("Submit: %v", err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	close(stop)
	readerWG.Wait()
	st := s.Stats()
	if st.Done+st.Failed != st.Submitted {
		t.Fatalf("after drain: done %d + failed %d != submitted %d", st.Done, st.Failed, st.Submitted)
	}
	if st.QueueDepth != 0 || st.Running != 0 {
		t.Fatalf("after drain: depth %d running %d, want 0/0", st.QueueDepth, st.Running)
	}
}

// TestEphemeralJobsInvisible: synchronous Do solves share the pool but never
// appear in the async job listing or retention.
func TestEphemeralJobsInvisible(t *testing.T) {
	e := New(-1)
	s := NewScheduler(e, 2, 8)
	defer s.Close()
	ds := dataset.Independent(xrand.New(1), 50, 3)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, err := s.Do(ctx, Request{Dataset: ds, Mode: ModeRRM, RK: 3, Opts: Options{Seed: 1, MaxSamples: 200}}); err != nil {
		t.Fatal(err)
	}
	if jobs := s.Jobs(); len(jobs) != 0 {
		t.Fatalf("ephemeral solve leaked into Jobs(): %+v", jobs)
	}
	if st := s.Stats(); st.Retained != 0 || st.Done != 1 {
		t.Fatalf("stats after ephemeral solve = %+v, want retained 0 / done 1", st)
	}
}
