package engine

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/rankregret/rankregret/internal/ctxutil"
	"github.com/rankregret/rankregret/internal/dataset"
	"github.com/rankregret/rankregret/internal/xrand"
)

// blockingSolver parks until released (or its context dies), giving the
// scheduler tests deterministic control over worker occupancy.
type blockingSolver struct {
	started chan string   // receives the blocked solve's marker
	release chan struct{} // close to let every blocked solve finish
}

func (blockingSolver) Name() string { return "test-block" }

func (b blockingSolver) Solve(ctx context.Context, ds *dataset.Dataset, r int, opts Options) (*Solution, error) {
	select {
	case b.started <- "":
	default:
	}
	select {
	case <-b.release:
		return &Solution{IDs: []int{0}, Algorithm: "test-block"}, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

func newBlockingScheduler(t *testing.T, workers, queueCap int) (*Scheduler, blockingSolver) {
	t.Helper()
	// The engine cache is disabled so every blocking solve really blocks
	// instead of being answered from the cache or coalesced in flight.
	e := New(-1)
	s := NewScheduler(e, workers, queueCap)
	t.Cleanup(s.Close)
	b := blockingSolver{started: make(chan string, 64), release: make(chan struct{})}
	return s, b
}

func blockReq(ds *dataset.Dataset, b blockingSolver, r int) Request {
	// SolveWith is not reachable through Request (it dispatches by name),
	// so the blocking solver registers once under its own name.
	return Request{Dataset: ds, Mode: ModeRRM, RK: r, Algorithm: "test-block"}
}

func init() {
	// A single registry-wide instance shared by every test in the package;
	// individual tests swap its channels via the atomic pointer.
	Register(testBlock)
}

var testBlock = &sharedBlockingSolver{}

// sharedBlockingSolver adapts blockingSolver to the one-registration-only
// registry: tests point it at their own channels.
type sharedBlockingSolver struct {
	cur atomic.Pointer[blockingSolver]
}

func (s *sharedBlockingSolver) Name() string { return "test-block" }

func (s *sharedBlockingSolver) Solve(ctx context.Context, ds *dataset.Dataset, r int, opts Options) (*Solution, error) {
	b := s.cur.Load()
	if b == nil {
		if err := ctxutil.Cancelled(ctx); err != nil {
			return nil, err
		}
		return &Solution{IDs: []int{0}, Algorithm: "test-block"}, nil
	}
	return b.Solve(ctx, ds, r, opts)
}

// TestSchedulerBatchMatchesSequential is the engine-level golden
// equivalence: a batch over mixed primal/dual requests returns exactly the
// solutions of the corresponding sequential engine calls.
func TestSchedulerBatchMatchesSequential(t *testing.T) {
	e := New(0)
	s := NewScheduler(e, 4, 16)
	defer s.Close()
	island := dataset.SimIsland(xrand.New(7), 300)
	nba := dataset.SimNBA(xrand.New(7), 400)
	opts := Options{Seed: 1, MaxSamples: 1000}

	reqs := []Request{
		{Dataset: island, Mode: ModeRRM, RK: 5, Opts: opts},
		{Dataset: nba, Mode: ModeRRM, RK: 7, Algorithm: "hdrrm", Opts: opts},
		{Dataset: nba, Mode: ModeRRM, RK: 9, Algorithm: "hdrrm", Opts: opts},
		{Dataset: island, Mode: ModeRRR, RK: 3, Opts: opts},
		{Dataset: nba, Mode: ModeRRR, RK: 30, Algorithm: "hdrrm", Opts: opts},
	}
	// Sequential golden results on a fresh engine so neither path sees the
	// other's cache.
	seq := New(0)
	want := make([]*Solution, len(reqs))
	for i, r := range reqs {
		var err error
		want[i], err = r.Run(context.Background(), seq)
		if err != nil {
			t.Fatal(err)
		}
	}

	statuses := s.BatchPartial(context.Background(), reqs)
	for i, st := range statuses {
		if st.State != JobDone {
			t.Fatalf("job %d state %s: %s", i, st.State, st.Error)
		}
		if !reflect.DeepEqual(st.Solution, want[i]) {
			t.Errorf("job %d solution %+v, want %+v", i, st.Solution, want[i])
		}
	}
}

// TestJobLifecycle walks one async job queued -> running -> done and checks
// the status snapshots along the way.
func TestJobLifecycle(t *testing.T) {
	s, b := newBlockingScheduler(t, 1, 8)
	testBlock.cur.Store(&b)
	defer testBlock.cur.Store(nil)
	ds := dataset.Independent(xrand.New(1), 50, 3)

	st, err := s.Submit(blockReq(ds, b, 3))
	if err != nil {
		t.Fatal(err)
	}
	if st.State != JobQueued {
		t.Errorf("submitted state = %s, want queued", st.State)
	}
	<-b.started // the worker picked it up
	if got, _ := s.Get(st.ID); got.State != JobRunning {
		t.Errorf("state after start = %s, want running", got.State)
	}
	close(b.release)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	final, err := s.Wait(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != JobDone || final.Solution == nil || final.Error != "" {
		t.Errorf("final status = %+v, want done with a solution", final)
	}
	if final.StartedAt.IsZero() || final.FinishedAt.IsZero() {
		t.Errorf("finished job missing timestamps: %+v", final)
	}
	stats := s.Stats()
	if stats.Submitted != 1 || stats.Done != 1 || stats.Failed != 0 {
		t.Errorf("stats = %+v, want 1 submitted / 1 done", stats)
	}
}

// TestJobCancelQueuedAndRunning cancels one running and one still-queued
// job; both must fail with a cancellation error.
func TestJobCancelQueuedAndRunning(t *testing.T) {
	s, b := newBlockingScheduler(t, 1, 8)
	testBlock.cur.Store(&b)
	defer testBlock.cur.Store(nil)
	ds := dataset.Independent(xrand.New(1), 50, 3)

	running, err := s.Submit(blockReq(ds, b, 3))
	if err != nil {
		t.Fatal(err)
	}
	<-b.started
	queued, err := s.Submit(blockReq(ds, b, 4))
	if err != nil {
		t.Fatal(err)
	}

	for _, id := range []string{queued.ID, running.ID} {
		if _, ok := s.Cancel(id); !ok {
			t.Fatalf("Cancel(%s) found no job", id)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for _, id := range []string{running.ID, queued.ID} {
		st, err := s.Wait(ctx, id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State != JobFailed || !strings.Contains(st.Error, "cancel") {
			t.Errorf("cancelled job %s = %+v, want failed with a cancellation error", id, st)
		}
	}
	if stats := s.Stats(); stats.Failed != 2 {
		t.Errorf("stats = %+v, want 2 failed", stats)
	}
}

// TestStatsCountJobBeforeWaking: a job is counted before its waiters wake,
// so Stats read right after Wait or Do always includes it.
func TestStatsCountJobBeforeWaking(t *testing.T) {
	testBlock.cur.Store(nil) // test-block solves return at once
	s := NewScheduler(New(-1), 2, 8)
	t.Cleanup(s.Close)
	ds := dataset.Independent(xrand.New(1), 50, 3)
	ctx := context.Background()
	for i := 0; i < 300; i++ {
		if i%2 == 0 {
			st, err := s.Submit(blockReq(ds, blockingSolver{}, 3))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := s.Wait(ctx, st.ID); err != nil {
				t.Fatal(err)
			}
		} else if _, err := s.Do(ctx, blockReq(ds, blockingSolver{}, 3)); err != nil {
			t.Fatal(err)
		}
		if st := s.Stats(); st.Done+st.Failed != st.Submitted {
			t.Fatalf("iteration %d: stats %+v, want done + failed == submitted", i, st)
		}
	}
}

// TestSubmitQueueFull checks the fail-fast path: with the single worker
// parked and the queue full, Submit refuses instead of blocking.
func TestSubmitQueueFull(t *testing.T) {
	s, b := newBlockingScheduler(t, 1, 1)
	testBlock.cur.Store(&b)
	defer testBlock.cur.Store(nil)
	ds := dataset.Independent(xrand.New(1), 50, 3)

	if _, err := s.Submit(blockReq(ds, b, 3)); err != nil { // runs
		t.Fatal(err)
	}
	<-b.started
	if _, err := s.Submit(blockReq(ds, b, 4)); err != nil { // queues
		t.Fatal(err)
	}
	if _, err := s.Submit(blockReq(ds, b, 5)); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("overflow submit err = %v, want ErrQueueFull", err)
	}
	close(b.release)
}

// TestSchedulerClose checks shutdown: running jobs are cancelled, queued
// jobs fail with ErrSchedulerClosed, and later submissions are refused.
func TestSchedulerClose(t *testing.T) {
	e := New(-1)
	s := NewScheduler(e, 1, 4)
	b := blockingSolver{started: make(chan string, 4), release: make(chan struct{})}
	testBlock.cur.Store(&b)
	defer testBlock.cur.Store(nil)
	ds := dataset.Independent(xrand.New(1), 50, 3)

	running, err := s.Submit(blockReq(ds, b, 3))
	if err != nil {
		t.Fatal(err)
	}
	<-b.started
	queued, err := s.Submit(blockReq(ds, b, 4))
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	if st, _ := s.Get(running.ID); st.State != JobFailed {
		t.Errorf("running job after Close = %+v, want failed", st)
	}
	if st, _ := s.Get(queued.ID); st.State != JobFailed || !strings.Contains(st.Error, "scheduler closed") {
		t.Errorf("queued job after Close = %+v, want failed with ErrSchedulerClosed", st)
	}
	if _, err := s.Submit(blockReq(ds, b, 5)); !errors.Is(err, ErrSchedulerClosed) {
		t.Errorf("submit after Close err = %v, want ErrSchedulerClosed", err)
	}
}

// TestBatchContextCancel checks that an expiring batch context returns the
// call and cancels its outstanding jobs, the running and the queued one.
func TestBatchContextCancel(t *testing.T) {
	s, b := newBlockingScheduler(t, 1, 8)
	testBlock.cur.Store(&b)
	defer testBlock.cur.Store(nil)
	ds := dataset.Independent(xrand.New(1), 50, 3)

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan []JobStatus, 1)
	go func() {
		done <- s.BatchPartial(ctx, []Request{blockReq(ds, b, 3), blockReq(ds, b, 4)})
	}()
	<-b.started
	cancel()
	select {
	case statuses := <-done:
		for i, st := range statuses {
			if st.State != JobFailed || st.Error != context.Canceled.Error() {
				t.Fatalf("item %d: state %s error %q, want failed with context.Canceled", i, st.State, st.Error)
			}
		}
	case <-time.After(5 * time.Second):
		t.Fatal("batch did not return after ctx cancellation")
	}
}

// TestDrainFinishesInFlightJobs is the graceful-shutdown contract: Drain
// stops accepting new work but lets queued AND running jobs finish rather
// than cancelling them, then closes the scheduler.
func TestDrainFinishesInFlightJobs(t *testing.T) {
	s, b := newBlockingScheduler(t, 2, 8)
	testBlock.cur.Store(&b)
	defer testBlock.cur.Store(nil)
	ds := dataset.SimIsland(xrand.New(1), 50)

	var ids []string
	for r := 1; r <= 5; r++ {
		st, err := s.Submit(blockReq(ds, b, r))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, st.ID)
	}
	// Release the solves once the drain is underway, so Drain demonstrably
	// waited instead of finding everything already done.
	go func() {
		time.Sleep(20 * time.Millisecond)
		close(b.release)
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	for _, id := range ids {
		st, ok := s.Get(id)
		if !ok {
			t.Fatalf("job %s lost", id)
		}
		if st.State != JobDone {
			t.Fatalf("job %s drained to state %s (err %q), want done", id, st.State, st.Error)
		}
	}
	if _, err := s.Submit(blockReq(ds, b, 9)); !errors.Is(err, ErrSchedulerClosed) {
		t.Fatalf("submit during/after drain: %v, want ErrSchedulerClosed", err)
	}
	// Close after Drain stays a no-op.
	s.Close()
}

// TestDrainTimeoutCancelsRemainder checks an expired drain context falls
// back to Close semantics: stragglers are cancelled, the call reports the
// context error, and the scheduler still ends up closed.
func TestDrainTimeoutCancelsRemainder(t *testing.T) {
	s, b := newBlockingScheduler(t, 1, 8)
	testBlock.cur.Store(&b)
	defer testBlock.cur.Store(nil)
	ds := dataset.SimIsland(xrand.New(1), 50)
	st, err := s.Submit(blockReq(ds, b, 1))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Millisecond)
	defer cancel()
	if err := s.Drain(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("drain on a stuck job: %v, want deadline exceeded", err)
	}
	got, ok := s.Get(st.ID)
	if !ok || got.State != JobFailed {
		t.Fatalf("stuck job after timed-out drain: %+v", got)
	}
}

// panicSolver is a registered solver with a bug: every solve panics.
type panicSolver struct{}

func (panicSolver) Name() string { return "test-panic" }

func (panicSolver) Solve(context.Context, *dataset.Dataset, int, Options) (*Solution, error) {
	panic("test-panic: solver bug")
}

func init() { Register(panicSolver{}) }

// TestSchedulerRecoversSolverPanic pins panic containment: a panicking
// solve fails its own job with a *PanicError carrying the value and the
// stack, is counted, and the one worker goes on to run the next job.
func TestSchedulerRecoversSolverPanic(t *testing.T) {
	s := NewScheduler(New(-1), 1, 4)
	t.Cleanup(s.Close)
	ds := dataset.Independent(xrand.New(1), 50, 2)
	_, err := s.Do(t.Context(), Request{Dataset: ds, RK: 3, Algorithm: "test-panic"})
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("panicking solve returned %v, want a *PanicError", err)
	}
	if pe.Value != "test-panic: solver bug" || !strings.Contains(string(pe.Stack), "panicSolver.Solve") {
		t.Fatalf("PanicError value %v, stack:\n%s", pe.Value, pe.Stack)
	}
	if _, err := s.Do(t.Context(), Request{Dataset: ds, RK: 3}); err != nil {
		t.Fatalf("solve after the panic: %v", err)
	}
	if st := s.Stats(); st.Panicked != 1 || st.Failed != 1 || st.Done != 1 {
		t.Fatalf("stats %+v, want 1 panicked of 1 failed, 1 done", st)
	}
}
