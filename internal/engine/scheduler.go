package engine

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/rankregret/rankregret/internal/dataset"
	"github.com/rankregret/rankregret/internal/obs"
)

// Scheduler errors.
var (
	// ErrQueueFull is returned by Submit and Do when the pending queue is at
	// capacity: the overload signal serving layers map to 429.
	ErrQueueFull = errors.New("engine: job queue full")
	// ErrSchedulerClosed is returned for submissions after Close or during
	// Drain, and set as the failure of jobs still queued when the scheduler
	// shut down: the drain signal serving layers map to 503.
	ErrSchedulerClosed = errors.New("engine: scheduler closed")
	// ErrQueueTimeout fails a job whose queue-wait budget expired before a
	// worker picked it up. The check runs at dequeue, so a dead-on-arrival
	// job is rejected cheaply instead of burning a worker on a solve whose
	// run budget it never got to use.
	ErrQueueTimeout = errors.New("engine: timed out waiting in queue")
)

// PanicError is the failure of a job whose solve panicked. The scheduler
// recovers the panic, so a solver bug fails its one job and the workers
// keep serving. Solves that fan out over par.Tiles re-raise a tile's panic
// on the job's goroutine, so those arrive here too, with the stack of the
// re-raise.
type PanicError struct {
	// Value is the value passed to panic.
	Value any
	// Stack is the panicking goroutine's stack where the scheduler
	// recovered it.
	Stack []byte
}

func (e *PanicError) Error() string { return fmt.Sprintf("engine: solve panicked: %v", e.Value) }

// Mode selects which problem a Request solves.
type Mode string

const (
	// ModeRRM is the primal problem: at most RK tuples, minimum rank-regret.
	ModeRRM Mode = "rrm"
	// ModeRRR is the dual problem: minimum tuples, rank-regret at most RK.
	ModeRRR Mode = "rrr"
)

// Request is one unit of schedulable work: a single engine solve. Requests
// over the same dataset share both cache tiers, which is what makes
// batching them through the scheduler cheap.
type Request struct {
	// Dataset is the dataset to solve over.
	Dataset *dataset.Dataset
	// Label is echoed in job statuses; daemons set it to the dataset's
	// registry name.
	Label string
	// Mode selects primal (RRM) or dual (RRR); empty means ModeRRM.
	Mode Mode
	// RK is the output budget r (ModeRRM) or the threshold k (ModeRRR).
	RK int
	// Algorithm names a registered solver ("" = auto by dimensionality).
	Algorithm string
	// Opts carries the solve parameters.
	Opts Options
	// Timeout is the run budget: it bounds the solve from the moment a
	// worker dequeues the job (0 = none). Queue wait time never counts
	// against it — a job that sat in a saturated queue still gets its full
	// budget once it starts.
	Timeout time.Duration
	// QueueTimeout is the queue-wait budget: how long the job may wait for
	// a worker, counted from submission (0 = unbounded). A job still queued
	// when it expires fails with ErrQueueTimeout at dequeue instead of
	// starting late.
	QueueTimeout time.Duration
}

// Run executes the request synchronously on eng, dispatching by Mode. The
// scheduler's workers and direct callers (e.g. rrmd's /v1/solve handler)
// share this one conversion point so the two paths cannot drift.
func (r Request) Run(ctx context.Context, eng *Engine) (*Solution, error) {
	if r.Mode == ModeRRR {
		return eng.SolveRRR(ctx, r.Dataset, r.RK, r.Algorithm, r.Opts)
	}
	return eng.Solve(ctx, r.Dataset, r.RK, r.Algorithm, r.Opts)
}

// JobState is the lifecycle position of a scheduled job.
type JobState string

const (
	JobQueued  JobState = "queued"
	JobRunning JobState = "running"
	JobDone    JobState = "done"
	JobFailed  JobState = "failed" // includes cancellations and timeouts
	// JobRejected marks a batch item that was never admitted to the queue
	// (scheduler draining, or the batch budget expired first). Rejected
	// items have no job id — nothing ever ran.
	JobRejected JobState = "rejected"
)

// JobStatus is an immutable snapshot of one job.
type JobStatus struct {
	ID         string    `json:"id"`
	State      JobState  `json:"state"`
	Label      string    `json:"label,omitempty"`
	Mode       Mode      `json:"mode"`
	RK         int       `json:"rk"`
	Algorithm  string    `json:"algorithm,omitempty"`
	Solution   *Solution `json:"solution,omitempty"`
	Error      string    `json:"error,omitempty"`
	EnqueuedAt time.Time `json:"enqueued_at"`
	StartedAt  time.Time `json:"started_at,omitzero"`
	FinishedAt time.Time `json:"finished_at,omitzero"`
	// ElapsedMS is the run time (started to finished) of a finished job.
	ElapsedMS float64 `json:"elapsed_ms,omitempty"`
}

type job struct {
	id     string
	req    Request
	ctx    context.Context
	cancel context.CancelFunc
	done   chan struct{} // closed exactly once, when the job finishes
	// ephemeral jobs (synchronous Do solves) share the pool, counters, and
	// queue order but are dropped from the registry as soon as they finish:
	// they never appear in Jobs() or consume retention slots.
	ephemeral bool
	// solKey/vsKey are the engine cache keys precomputed at submission so
	// dequeue's warm probe is two map lookups per pending job.
	solKey, vsKey string
	// trace is the request trace carried across the admit→dequeue handoff
	// (job ctx is parented to the scheduler, not the request, so context
	// values do not survive the hop). Set at creation, before the job is
	// visible to workers; nil for untraced work.
	trace *obs.Trace

	mu       sync.Mutex
	state    JobState
	sol      *Solution
	err      error
	enqueued time.Time
	started  time.Time
	finished time.Time
}

func (j *job) status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := JobStatus{
		ID:         j.id,
		State:      j.state,
		Label:      j.req.Label,
		Mode:       j.req.Mode,
		RK:         j.req.RK,
		Algorithm:  j.req.Algorithm,
		Solution:   j.sol,
		EnqueuedAt: j.enqueued,
		StartedAt:  j.started,
		FinishedAt: j.finished,
	}
	if st.Mode == "" {
		st.Mode = ModeRRM
	}
	if j.err != nil {
		st.Error = j.err.Error()
	}
	if !j.finished.IsZero() && !j.started.IsZero() {
		st.ElapsedMS = float64(j.finished.Sub(j.started).Microseconds()) / 1000
	}
	return st
}

// result returns the terminal outcome of a finished job.
func (j *job) result() (*Solution, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.sol, j.err
}

// finish transitions to done/failed. It reports false, changing nothing, if
// the job already finished. It does not wake waiters: finishJob closes done
// once the scheduler has counted the job.
func (j *job) finish(sol *Solution, err error) bool {
	j.mu.Lock()
	if j.state == JobDone || j.state == JobFailed {
		j.mu.Unlock()
		return false
	}
	j.finished = time.Now()
	if err != nil {
		j.state = JobFailed
		j.err = err
	} else {
		j.state = JobDone
		j.sol = sol
	}
	j.mu.Unlock()
	return true
}

// SchedulerStats is a snapshot of the scheduler counters for GET
// /v1/metrics: queue pressure plus lifetime totals. Every field is read
// under one lock, so a single snapshot is internally coherent: done + failed
// never exceeds submitted, and queue_depth is the exact pending count at the
// snapshot instant.
type SchedulerStats struct {
	Workers    int    `json:"workers"`
	QueueDepth int    `json:"queue_depth"`
	QueueCap   int    `json:"queue_cap"`
	Running    int64  `json:"running"`
	Submitted  uint64 `json:"submitted"`
	Done       uint64 `json:"done"`
	Failed     uint64 `json:"failed"`
	Rejected   uint64 `json:"rejected"`
	// Panicked counts the failed jobs whose solve panicked (a *PanicError).
	Panicked uint64 `json:"panicked"`
	Retained int    `json:"retained_jobs"`
	// Draining is true once Close or Drain has begun: no new jobs are
	// admitted (submissions get ErrSchedulerClosed), and health probes
	// report the server as draining.
	Draining bool `json:"draining"`
}

// maxRetainedJobs bounds the finished-job history kept for GET
// /v1/jobs/{id}; the oldest finished jobs are forgotten first.
const maxRetainedJobs = 2048

// Scheduler runs engine solves on a bounded worker pool fed by a
// cache-affinity-ordered pending queue (see dequeue), with per-job
// cancellation and queryable job states — the throughput layer that turns
// one engine into a multi-request server. The queue is bounded: admission
// fails fast with ErrQueueFull so serving layers can shed load instead of
// buffering it. All methods are safe for concurrent use.
type Scheduler struct {
	eng     *Engine
	workers int
	baseCtx context.Context
	cancel  context.CancelFunc
	wg      sync.WaitGroup

	// space holds one token per free queue slot (admission = take a token;
	// dequeue returns it). slots holds one token per job sitting in pending
	// and is what wakes workers; its capacity equals the queue capacity so
	// the post-admission send can never block.
	space chan struct{}
	slots chan struct{}

	mu       sync.Mutex
	pending  []*job // admitted, not yet dequeued; arrival order
	jobs     map[string]*job
	finished []string // retention FIFO of finished job ids
	retain   int      // finished-job history cap (maxRetainedJobs by default)
	seq      uint64
	closed   bool
	shutDown sync.Once // cancel + worker-wait + queue sweep, shared by Close and Drain

	// Lifetime counters, guarded by mu (not atomics) so Stats can read them
	// together with the queue state as one coherent snapshot.
	running   int64
	submitted uint64
	nDone     uint64
	nFailed   uint64
	nRejected uint64
	nPanicked uint64

	// maxColdWait bounds starvation under the warm-first dequeue order:
	// once the oldest pending job has waited this long it runs next
	// regardless of warmth (DefaultMaxColdWait).
	maxColdWait time.Duration

	// obs holds the queue-wait and run-duration histograms. Wired by
	// Instrument before the scheduler serves traffic; nil = uninstrumented.
	obs *schedObs

	// logger receives job-failure records; swapped in atomically (like obs)
	// because the daemon wires logging after construction. nil = silent.
	logger atomic.Pointer[slog.Logger]
}

// SetLogger installs the structured logger job failures are reported to.
// Every record carries the job id, dataset label, and — when the job was
// submitted with a trace — the originating request id, so a failure seen in
// logs is joinable to its trace and incident bundle.
func (s *Scheduler) SetLogger(l *slog.Logger) {
	if l != nil {
		s.logger.Store(l)
	}
}

// logFailure reports one finished-with-error job. Shutdown sweeps and
// submitter cancellations are demoted to debug: they describe the caller or
// the lifecycle, not a fault in the solve.
func (s *Scheduler) logFailure(j *job, err error) {
	l := s.logger.Load()
	if l == nil {
		return
	}
	reqID := ""
	if j.trace != nil {
		reqID = j.trace.ID()
	}
	args := []any{"job", j.id, "dataset", j.req.Label, "request_id", reqID, "err", err}
	if errors.Is(err, ErrSchedulerClosed) || errors.Is(err, context.Canceled) {
		l.Debug("scheduler: job cancelled", args...)
		return
	}
	var pe *PanicError
	if errors.As(err, &pe) {
		l.Error("scheduler: solve panicked", append(args, "stack", string(pe.Stack))...)
		return
	}
	l.Warn("scheduler: job failed", args...)
}

// schedObs is the scheduler's latency instrumentation.
type schedObs struct {
	queueWait *obs.Histogram
	runDur    *obs.Histogram
}

// Instrument registers the scheduler's queue-wait and run-duration
// histograms with reg. Call before the scheduler serves traffic.
func (s *Scheduler) Instrument(reg *obs.Registry) {
	so := &schedObs{
		queueWait: reg.Histogram("rrmd_queue_wait_seconds",
			"Time a job spent queued between admission and dequeue.", nil),
		runDur: reg.Histogram("rrmd_run_duration_seconds",
			"Time a job spent running (dequeue to finish).", nil),
	}
	s.mu.Lock()
	s.obs = so
	s.mu.Unlock()
}

// observeRun records one job's queue wait and run duration.
func (s *Scheduler) observeRun(wait, run time.Duration) {
	s.mu.Lock()
	so := s.obs
	s.mu.Unlock()
	if so == nil {
		return
	}
	so.queueWait.Observe(wait.Seconds())
	so.runDur.Observe(run.Seconds())
}

// NewScheduler starts a scheduler over eng with the given worker count
// (0 = GOMAXPROCS) and queue capacity (0 = 256), running jobs in the
// warm-first order dequeue describes. Call Close to stop it.
func NewScheduler(eng *Engine, workers, queueCap int) *Scheduler {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if queueCap <= 0 {
		queueCap = 256
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Scheduler{
		eng:     eng,
		workers: workers,
		baseCtx: ctx,
		cancel:  cancel,
		space:   make(chan struct{}, queueCap),
		slots:   make(chan struct{}, queueCap),
		jobs:    make(map[string]*job),
		retain:  maxRetainedJobs,

		maxColdWait: DefaultMaxColdWait,
	}
	for i := 0; i < queueCap; i++ {
		s.space <- struct{}{}
	}
	for i := 0; i < workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

func (s *Scheduler) worker() {
	defer s.wg.Done()
	for {
		select {
		case <-s.baseCtx.Done():
			return
		case <-s.slots:
			if j := s.dequeue(); j != nil {
				s.runJob(j)
			}
		}
	}
}

// DefaultMaxColdWait is the dequeue order's starvation bound: once the
// oldest pending job has waited this long it runs next regardless of warmth.
const DefaultMaxColdWait = 2 * time.Second

// dequeue pops the next job from the pending queue and frees its admission
// slot. The order is cache-affinity-aware: under pressure, the oldest job
// whose state is already warm in the engine (cached solution or resident
// VecSet) runs before jobs that would trigger a cold build, so the queue
// drains at warm-hit speed instead of stalling every worker on cold builds.
// Within each class arrival order is kept, so answers are the same as in
// arrival order — only latency ordering moves — and once the oldest job has
// waited maxColdWait it runs next regardless. Every slots token corresponds
// to one pending append, so pending is non-empty here; the nil return is
// defense in depth only.
func (s *Scheduler) dequeue() *job {
	s.mu.Lock()
	if len(s.pending) == 0 {
		s.mu.Unlock()
		return nil
	}
	idx := 0
	if len(s.pending) > 1 && !s.starvingLocked() {
		for i, j := range s.pending {
			if s.eng.warmKeys(j.solKey, j.vsKey) {
				idx = i
				break
			}
		}
	}
	j := s.pending[idx]
	s.pending = append(s.pending[:idx], s.pending[idx+1:]...)
	s.mu.Unlock()
	s.space <- struct{}{}
	return j
}

// starvingLocked reports whether the oldest pending job has waited
// maxColdWait. Called with s.mu held and pending non-empty.
func (s *Scheduler) starvingLocked() bool {
	j := s.pending[0]
	j.mu.Lock()
	enq := j.enqueued
	j.mu.Unlock()
	return time.Since(enq) >= s.maxColdWait
}

func (s *Scheduler) runJob(j *job) {
	j.mu.Lock()
	if err := j.ctx.Err(); err != nil {
		// Cancelled while still queued. A worker may drain the queue during
		// shutdown before exiting; report those jobs as closed, not merely
		// cancelled, so the two paths a queued job can take through Close
		// are indistinguishable to callers.
		if s.baseCtx.Err() != nil {
			err = ErrSchedulerClosed
		}
		j.mu.Unlock()
		s.finishJob(j, nil, err)
		return
	}
	if j.req.QueueTimeout > 0 && time.Since(j.enqueued) > j.req.QueueTimeout {
		// Dead on arrival: the queue-wait budget expired before a worker got
		// here. Reject instead of starting a solve the submitter gave up on.
		j.mu.Unlock()
		s.finishJob(j, nil, ErrQueueTimeout)
		return
	}
	j.state = JobRunning
	j.started = time.Now()
	started := j.started
	wait := started.Sub(j.enqueued)
	j.mu.Unlock()
	s.addRunning(1)
	defer s.addRunning(-1)

	ctx := j.ctx
	if j.trace != nil {
		// Re-attach the trace: j.ctx is parented to the scheduler's base
		// context, so the submitter's context values did not cross the hop.
		j.trace.Add("queue", j.enqueued, wait)
		ctx = obs.WithTrace(ctx, j.trace)
	}
	if j.req.Timeout > 0 {
		// The run budget is anchored here, at dequeue — queue wait never
		// eats into it.
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, j.req.Timeout)
		defer cancel()
	}
	sol, err := runRecovered(ctx, j.req, s.eng)
	s.observeRun(wait, time.Since(started))
	s.finishJob(j, sol, err)
}

// runRecovered runs req on eng, turning a panic into a *PanicError.
func runRecovered(ctx context.Context, req Request, eng *Engine) (sol *Solution, err error) {
	defer func() {
		if v := recover(); v != nil {
			sol, err = nil, &PanicError{Value: v, Stack: debug.Stack()}
		}
	}()
	return req.Run(ctx, eng)
}

func (s *Scheduler) addRunning(d int64) {
	s.mu.Lock()
	s.running += d
	s.mu.Unlock()
}

// finishJob finalizes a job, updates the counters, trims the retained
// history, and only then wakes the job's waiters, so a Stats read right
// after Wait or Do always counts the job. Ephemeral jobs leave the registry
// immediately.
func (s *Scheduler) finishJob(j *job, sol *Solution, err error) {
	if !j.finish(sol, err) {
		return
	}
	if err != nil {
		s.logFailure(j, err)
	}
	var pe *PanicError
	panicked := errors.As(err, &pe)
	s.mu.Lock()
	if err != nil {
		s.nFailed++
	} else {
		s.nDone++
	}
	if panicked {
		s.nPanicked++
	}
	if j.ephemeral {
		delete(s.jobs, j.id)
	} else {
		s.finished = append(s.finished, j.id)
		for len(s.finished) > s.retain {
			delete(s.jobs, s.finished[0])
			s.finished = s.finished[1:]
		}
	}
	s.mu.Unlock()
	close(j.done)
}

// newJob registers a queued job. The job's context is parented to the
// scheduler, not the submitter: async jobs outlive the HTTP request that
// created them.
func (s *Scheduler) newJob(req Request, ephemeral bool, tr *obs.Trace) (*job, error) {
	solKey, vsKey := s.eng.keysFor(req)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrSchedulerClosed
	}
	s.seq++
	ctx, cancel := context.WithCancel(s.baseCtx)
	j := &job{
		id:        fmt.Sprintf("job-%06d", s.seq),
		req:       req,
		ctx:       ctx,
		cancel:    cancel,
		done:      make(chan struct{}),
		ephemeral: ephemeral,
		solKey:    solKey,
		vsKey:     vsKey,
		trace:     tr,
		state:     JobQueued,
		enqueued:  time.Now(),
	}
	s.jobs[j.id] = j
	s.submitted++
	return j, nil
}

// unregister backs out a job that never made it into the queue.
func (s *Scheduler) unregister(j *job, rejected bool) {
	j.cancel()
	s.mu.Lock()
	delete(s.jobs, j.id)
	s.submitted--
	if rejected {
		s.nRejected++
	}
	s.mu.Unlock()
}

// enqueue appends an admitted job (its space token already taken) to the
// pending queue and wakes a worker.
func (s *Scheduler) enqueue(j *job) {
	s.mu.Lock()
	s.pending = append(s.pending, j)
	s.mu.Unlock()
	s.slots <- struct{}{}
	s.reapIfClosed(j)
}

// admit takes an admission token for j without blocking and enqueues it,
// failing fast with ErrQueueFull (and backing j out) when the queue is at
// capacity.
func (s *Scheduler) admit(j *job) error {
	select {
	case <-s.space:
		s.enqueue(j)
		return nil
	default:
		s.unregister(j, true)
		return ErrQueueFull
	}
}

// Submit enqueues an asynchronous solve and returns its queued status
// immediately. It fails fast with ErrQueueFull instead of blocking.
func (s *Scheduler) Submit(req Request) (JobStatus, error) {
	j, err := s.newJob(req, false, nil)
	if err != nil {
		return JobStatus{}, err
	}
	// Snapshot before enqueueing: once queued, a worker may finish the job
	// (a cache hit takes microseconds) before Submit could read it.
	st := j.status()
	if err := s.admit(j); err != nil {
		return JobStatus{}, err
	}
	return st, nil
}

// Do admits req and waits for its result: the synchronous serving path.
// Admission shares the async queue — it fails fast with ErrQueueFull under
// overload — and the job flows through the same policy and worker pool, but
// it is ephemeral: it never appears in Jobs() or consumes retention slots.
// When ctx ends first the job is cancelled and ctx's error is returned.
func (s *Scheduler) Do(ctx context.Context, req Request) (*Solution, error) {
	j, err := s.newJob(req, true, obs.TraceFrom(ctx))
	if err != nil {
		return nil, err
	}
	if err := s.admit(j); err != nil {
		return nil, err
	}
	select {
	case <-j.done:
		return j.result()
	case <-ctx.Done():
		s.abandon(j)
		return nil, ctx.Err()
	}
}

// abandon cancels a job whose submitter stopped waiting, finishing it
// immediately when it is still queued (the carcass a worker later pops is a
// no-op).
func (s *Scheduler) abandon(j *job) {
	j.cancel()
	j.mu.Lock()
	queued := j.state == JobQueued
	j.mu.Unlock()
	if queued {
		s.finishJob(j, nil, context.Canceled)
	}
}

// reapIfClosed fails a just-enqueued job when the scheduler shut down
// concurrently with the send: the workers (and Close's drain) may already
// be gone, so nothing else would ever transition it out of 'queued'.
// finishJob is idempotent, so racing with a worker or the drain is safe.
func (s *Scheduler) reapIfClosed(j *job) {
	if s.baseCtx.Err() != nil {
		s.finishJob(j, nil, ErrSchedulerClosed)
	}
}

// submitWait enqueues like Submit but blocks for queue space until ctx is
// done; BatchPartial uses it so a large batch streams through a small queue.
func (s *Scheduler) submitWait(ctx context.Context, req Request) (*job, error) {
	j, err := s.newJob(req, false, nil)
	if err != nil {
		return nil, err
	}
	select {
	case <-s.space:
		s.enqueue(j)
		return j, nil
	case <-ctx.Done():
		s.unregister(j, true)
		return nil, ctx.Err()
	case <-s.baseCtx.Done():
		s.unregister(j, true)
		return nil, ErrSchedulerClosed
	}
}

// Get returns the status of a known job.
func (s *Scheduler) Get(id string) (JobStatus, bool) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return JobStatus{}, false
	}
	return j.status(), true
}

// Cancel requests cancellation of a queued or running job and returns its
// resulting status. Queued jobs fail immediately (their queue slot is
// reclaimed when a worker pops the carcass); running jobs abort from
// inside the solver hot loops.
func (s *Scheduler) Cancel(id string) (JobStatus, bool) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return JobStatus{}, false
	}
	// Finishing a queued job now instead of when a worker drains it makes
	// the status immediately observable. finish is idempotent, so the worker
	// that eventually pops the job is a no-op, and the rare race with a
	// worker that just started it only fails a solve whose context is
	// already cancelled.
	s.abandon(j)
	return j.status(), true
}

// Wait blocks until the job finishes or ctx is done and returns its final
// (or, on ctx expiry, current) status.
func (s *Scheduler) Wait(ctx context.Context, id string) (JobStatus, error) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return JobStatus{}, fmt.Errorf("engine: unknown job %q", id)
	}
	select {
	case <-j.done:
		return j.status(), nil
	case <-ctx.Done():
		return j.status(), ctx.Err()
	}
}

// Jobs returns the status of every retained job, oldest first.
func (s *Scheduler) Jobs() []JobStatus {
	s.mu.Lock()
	all := make([]*job, 0, len(s.jobs))
	for _, j := range s.jobs {
		all = append(all, j)
	}
	s.mu.Unlock()
	out := make([]JobStatus, len(all))
	for i, j := range all {
		out[i] = j.status()
	}
	// Ids are zero-padded sequence numbers; comparing length first keeps
	// submission order even after the sequence outgrows the padding.
	sort.Slice(out, func(i, j int) bool {
		if len(out[i].ID) != len(out[j].ID) {
			return len(out[i].ID) < len(out[j].ID)
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// rejectedStatus synthesizes the status of a batch item that was never
// admitted: nothing ran, so there is no job id.
func rejectedStatus(req Request, err error) JobStatus {
	st := JobStatus{
		State:     JobRejected,
		Label:     req.Label,
		Mode:      req.Mode,
		RK:        req.RK,
		Algorithm: req.Algorithm,
		Error:     err.Error(),
	}
	if st.Mode == "" {
		st.Mode = ModeRRM
	}
	return st
}

// BatchPartial fans a list of requests through the worker pool and waits
// for all of them, returning one final status per request in order, never a
// wholesale error. Individual solver failures are reported in their item's
// status. Items the scheduler could not admit before ctx expired (or because
// it is draining) come back in state "rejected"; items admitted but
// unfinished when ctx expires are cancelled and report their cancellation.
// Completed items keep their results either way — a batch that ran out of
// budget still returns everything it finished.
func (s *Scheduler) BatchPartial(ctx context.Context, reqs []Request) []JobStatus {
	out := make([]JobStatus, len(reqs))
	jobs := make([]*job, len(reqs))
	for i, req := range reqs {
		j, err := s.submitWait(ctx, req)
		if err != nil {
			// Admission stopped (batch budget gone or scheduler draining):
			// everything not yet submitted is rejected for the same reason.
			for k := i; k < len(reqs); k++ {
				out[k] = rejectedStatus(reqs[k], err)
			}
			break
		}
		jobs[i] = j
	}
	for i, j := range jobs {
		if j == nil {
			continue
		}
		select {
		case <-j.done:
		case <-ctx.Done():
			// Cancel this and every later outstanding item; abandon
			// force-finishes queued carcasses so the statuses below are
			// terminal, not point-in-time.
			for _, jj := range jobs[i:] {
				if jj != nil {
					s.abandon(jj)
				}
			}
			<-j.done
		}
		out[i] = j.status()
	}
	return out
}

// Stats snapshots the scheduler counters. The snapshot is taken under one
// lock, so it is internally coherent: done+failed can never exceed
// submitted, and queue_depth is exact.
func (s *Scheduler) Stats() SchedulerStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return SchedulerStats{
		Workers:    s.workers,
		QueueDepth: len(s.pending),
		QueueCap:   cap(s.space),
		Running:    s.running,
		Submitted:  s.submitted,
		Done:       s.nDone,
		Failed:     s.nFailed,
		Rejected:   s.nRejected,
		Panicked:   s.nPanicked,
		Retained:   len(s.jobs),
		Draining:   s.closed,
	}
}

// lifetime reports the settled/submitted counters for Drain's convergence
// check, coherently.
func (s *Scheduler) lifetime() (settled, submitted uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.nDone + s.nFailed, s.submitted
}

// markClosed flips the scheduler into its no-new-submissions state.
func (s *Scheduler) markClosed() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
}

// shutdown cancels running jobs, waits for the workers to exit, and fails
// everything still queued with ErrSchedulerClosed. Idempotent; concurrent
// callers block until the first finishes.
func (s *Scheduler) shutdown() {
	s.shutDown.Do(func() {
		s.cancel()
		s.wg.Wait()
		for {
			select {
			case <-s.slots:
				if j := s.dequeue(); j != nil {
					s.finishJob(j, nil, ErrSchedulerClosed)
				}
			default:
				return
			}
		}
	})
}

// Close stops the workers, cancels running jobs, and fails everything still
// queued with ErrSchedulerClosed. It blocks until the workers exit.
func (s *Scheduler) Close() {
	s.markClosed()
	s.shutdown()
}

// Drain is the graceful shutdown: it stops accepting submissions, lets the
// workers finish every queued and running job, and only then closes. When
// ctx expires first the remaining jobs are cancelled Close-style and the
// context error is returned. Either way the scheduler is closed when Drain
// returns.
func (s *Scheduler) Drain(ctx context.Context) error {
	s.markClosed()
	defer s.shutdown()
	tick := time.NewTicker(2 * time.Millisecond)
	defer tick.Stop()
	for {
		// Every registered submission has finished when the lifetime
		// counters meet; unregistered (never-enqueued) submissions are
		// backed out of submitted, so the comparison is exact.
		if settled, submitted := s.lifetime(); settled >= submitted {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-tick.C:
		}
	}
}
