// Package engine is the solver layer of the repository: a pluggable
// algorithm registry, context-aware cancellable solves, and a
// concurrency-safe LRU solution cache.
//
// The public rankregret package, the CLIs, and the rrmd serving daemon all
// dispatch through an Engine instead of hard-coding algorithm switches: an
// Algorithm is a named Solver registered at init time (see Register), a
// solve call carries a context.Context that the hot loops of the underlying
// algorithms check periodically, and identical (dataset, algorithm,
// parameters) requests are answered from the cache without recomputation.
package engine

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"github.com/rankregret/rankregret/internal/algohd"
	"github.com/rankregret/rankregret/internal/dataset"
	"github.com/rankregret/rankregret/internal/funcspace"
	"github.com/rankregret/rankregret/internal/obs"
)

// ErrDimension is returned when a 2D-only solver is applied to d != 2.
var ErrDimension = errors.New("engine: algorithm requires a 2-dimensional dataset")

// Options carries the solver parameters shared by every algorithm. The zero
// value means: full utility space, the paper's default parameters, seed 1.
type Options struct {
	// Space restricts the utility space (nil = full orthant = RRM).
	Space funcspace.Space
	// CacheSalt is an extra cache-key component. Multi-tenant callers (e.g.
	// a daemon with a named-dataset registry) should set it to the dataset's
	// registry name so entries stay distinct even if two datasets' 64-bit
	// fingerprints collide.
	CacheSalt string
	// Gamma is HDRRM's polar-grid resolution (0 = paper default 6).
	Gamma int
	// Delta is HDRRM's error probability (0 = paper default 0.03).
	Delta float64
	// Samples overrides HDRRM's sample count m (0 = Theorem 10 formula).
	Samples int
	// MaxSamples caps the Theorem 10 formula (0 = library default 50 000;
	// negative = uncapped).
	MaxSamples int
	// Seed drives all randomness (0 is normalized to 1 by callers).
	Seed int64
	// Sampler overrides the preference distribution Da is drawn from. A
	// non-nil Sampler disables caching: function values have no stable
	// identity to key on.
	Sampler algohd.Sampler
	// VecSets is the first-tier cache HDRRM-family solvers draw their
	// shared vector sets from, and 2drrm its sweep plans; it is not part
	// of any cache key. Engine methods fill a nil value with the engine's
	// own tier (nil only when the engine's caching is disabled). A Solver
	// called directly with nil builds a one-off vector set or plan for the
	// solve.
	VecSets *VecSetCache
	// Parallelism bounds the worker goroutines of the HDRRM-family top-K
	// scoring passes (0 = GOMAXPROCS). Results are bit-identical at every
	// setting, which is why it is not part of any cache key.
	Parallelism int
}

// hd converts Options to the algohd option struct, applying the paper
// defaults exactly as the pre-engine rankregret.Solve did.
func (o Options) hd() algohd.Options {
	ho := algohd.DefaultOptions()
	if o.Gamma > 0 {
		ho.Gamma = o.Gamma
	}
	if o.Delta > 0 {
		ho.Delta = o.Delta
	}
	if o.Samples > 0 {
		ho.M = o.Samples
	}
	switch {
	case o.MaxSamples > 0:
		ho.MaxM = o.MaxSamples
	case o.MaxSamples < 0:
		ho.MaxM = 0
	}
	ho.Seed = o.Seed
	ho.Space = o.Space
	ho.Sampler = o.Sampler
	ho.Parallelism = o.Parallelism
	return ho
}

// spaceKey returns the cache-key component identifying the utility space.
func (o Options) spaceKey() string {
	if o.Space == nil {
		return "full"
	}
	// %+v over the concrete value is deterministic and exact: every space
	// holds only value fields, and %v prints floats in their shortest exact
	// form, so two separately parsed equal specs share one key while
	// structurally different spaces key differently.
	return fmt.Sprintf("%T%+v", o.Space, o.Space)
}

// Solution is the output of an engine solve.
type Solution struct {
	// IDs are the chosen tuple indices into the dataset, ascending.
	IDs []int
	// RankRegret is the solver's reported rank-regret (see the Solver's
	// documentation for its exact semantics; 0 when the solver reports none).
	RankRegret int
	// Exact records whether RankRegret is exact over the full space.
	Exact bool
	// Algorithm is the registered name of the solver that produced this.
	Algorithm string
}

// clone returns a deep copy so cached solutions are never aliased by
// callers.
func (s *Solution) clone() *Solution {
	out := *s
	out.IDs = append([]int(nil), s.IDs...)
	return &out
}

// Solver is one algorithm. Implementations must be safe for concurrent use
// and honor ctx cancellation in their long-running loops (a nil ctx
// disables the checks).
type Solver interface {
	// Name is the registry identifier, e.g. "hdrrm".
	Name() string
	// Solve computes a size-r rank-regret minimizing subset of ds.
	Solve(ctx context.Context, ds *dataset.Dataset, r int, opts Options) (*Solution, error)
}

// DualSolver is implemented by solvers that also answer the dual
// rank-regret representative (RRR) problem: the minimum-size set with
// rank-regret at most k.
type DualSolver interface {
	Solver
	SolveRRR(ctx context.Context, ds *dataset.Dataset, k int, opts Options) (*Solution, error)
}

// Engine dispatches solves through the registry and answers repeated
// requests from its two-tier cache: an LRU of full solutions keyed by every
// solve parameter, over an LRU of shared vector sets (VecSetCache) keyed
// only by what the expensive precomputation depends on, so solves that
// differ in r, k, or algorithm still share it. The zero value is not
// usable; call New.
type Engine struct {
	cache   *Cache
	vecsets *VecSetCache

	// obs is the per-stage latency instrumentation, wired by Instrument
	// before the engine serves traffic; nil = uninstrumented.
	obs *engineObs

	// flight coalesces concurrent identical cold requests so a dogpile of
	// cache misses computes the solve once.
	flightMu sync.Mutex
	flight   map[string]*flightCall
}

type flightCall struct {
	done chan struct{} // closed when the leader finishes (or panics)
	sol  *Solution     // private clone, set on success
	err  error
}

// DefaultCacheSize is the solution-cache capacity of New(0) and of the
// package-level Default engine.
const DefaultCacheSize = 256

// New returns an Engine with an LRU solution cache of the given capacity
// (0 = DefaultCacheSize, negative = caching disabled) and a VecSet tier of
// DefaultVecSetCacheSize (disabled together with the solution cache).
func New(cacheSize int) *Engine {
	if cacheSize == 0 {
		cacheSize = DefaultCacheSize
	}
	e := &Engine{flight: make(map[string]*flightCall)}
	if cacheSize > 0 {
		e.cache = NewCache(cacheSize)
		e.vecsets = NewVecSetCache(DefaultVecSetCacheSize)
	}
	return e
}

// Default is the shared engine the rankregret package-level API uses.
var Default = New(0)

// CacheStats reports the default-visible counters of the engine's cache
// (zero value when caching is disabled).
func (e *Engine) CacheStats() CacheStats {
	if e.cache == nil {
		return CacheStats{}
	}
	return e.cache.Stats()
}

// VecSetStats reports the counters of the engine's VecSet tier (zero value
// when caching is disabled).
func (e *Engine) VecSetStats() VecSetStats {
	if e.vecsets == nil {
		return VecSetStats{}
	}
	return e.vecsets.Stats()
}

// Metrics is the aggregate cache health of an engine, the machine-readable
// shape behind rrmd's GET /v1/metrics.
type Metrics struct {
	Solutions CacheStats  `json:"solutions"`
	VecSets   VecSetStats `json:"vecsets"`
}

// Metrics snapshots both cache tiers.
func (e *Engine) Metrics() Metrics {
	return Metrics{Solutions: e.CacheStats(), VecSets: e.VecSetStats()}
}

// keysFor precomputes the cache keys a scheduled request would hit: the
// solution-cache key (empty when the request is uncacheable or would not
// resolve) and the VecSet-tier key (empty when the tier is unavailable).
// The scheduler stores them on the job at submission so the
// dequeue order's warm probe is two map lookups per pending job.
func (e *Engine) keysFor(req Request) (solKey, vsKey string) {
	if req.Dataset == nil || req.Opts.Sampler != nil {
		return "", ""
	}
	mode := "rrm"
	if req.Mode == ModeRRR {
		mode = "rrr"
	}
	if e.cache != nil {
		if s, err := Resolve(req.Algorithm, req.Dataset.Dim()); err == nil {
			solKey = solutionKey(req.Dataset, mode, req.RK, s.Name(), req.Opts)
		}
	}
	if e.vecsets != nil {
		vsKey = vecsetKey(req.Dataset, req.Opts)
	}
	return solKey, vsKey
}

// warmKeys reports whether either cache tier already holds one of the
// precomputed keys: the dequeue order's warm probe. Probing is passive —
// no hit/miss counters move and no LRU order changes.
func (e *Engine) warmKeys(solKey, vsKey string) bool {
	if solKey != "" && e.cache != nil && e.cache.Contains(solKey) {
		return true
	}
	return vsKey != "" && e.vecsets != nil && e.vecsets.Contains(vsKey)
}

// SolveCached answers a request purely from the solution cache, reporting
// false when it is not resident. It is the serving fast path: warm-hit
// requests are answered inline at cache-hit speed and never contend for
// scheduler admission, so overload shedding only ever rejects work that
// would actually cost something. A present entry counts as a cache hit; an
// absent one counts nothing — the scheduled solve that follows records the
// authoritative miss.
func (e *Engine) SolveCached(ctx context.Context, req Request) (*Solution, bool) {
	if e.cache == nil {
		return nil, false
	}
	start := time.Now()
	end := obs.StartSpan(ctx, "cache")
	defer end()
	solKey, _ := e.keysFor(req)
	if solKey == "" {
		return nil, false
	}
	sol, ok := e.cache.Lookup(solKey)
	if !ok {
		return nil, false
	}
	e.obs.cacheProbe(start)
	return sol.clone(), true
}

// withVecSets fills in the engine's VecSet tier when the caller did not
// bring their own.
func (e *Engine) withVecSets(opts Options) Options {
	if opts.VecSets == nil {
		opts.VecSets = e.vecsets
	}
	return opts
}

func validate(ds *dataset.Dataset, rk int, what string) error {
	if ds == nil || ds.N() == 0 {
		return errors.New("engine: empty dataset")
	}
	if rk < 1 {
		return fmt.Errorf("engine: %s = %d, need >= 1", what, rk)
	}
	return nil
}

// Solve dispatches a size-r RRM/RRRM solve to the named algorithm ("" =
// auto: 2drrm for d = 2, hdrrm otherwise), consulting the cache first.
func (e *Engine) Solve(ctx context.Context, ds *dataset.Dataset, r int, algo string, opts Options) (*Solution, error) {
	if err := validate(ds, r, "output size r"); err != nil {
		return nil, err
	}
	s, err := Resolve(algo, ds.Dim())
	if err != nil {
		return nil, err
	}
	return e.SolveWith(ctx, ds, r, s, opts)
}

// SolveWith runs a specific Solver instance through the engine's caching
// layer. It is the entry point for solvers that are parameterized beyond
// Options (e.g. HDRRM ablation variants) and therefore not in the registry.
func (e *Engine) SolveWith(ctx context.Context, ds *dataset.Dataset, r int, s Solver, opts Options) (*Solution, error) {
	if err := validate(ds, r, "output size r"); err != nil {
		return nil, err
	}
	opts = e.withVecSets(opts)
	return e.cached(ctx, ds, "rrm", r, s.Name(), opts, func() (*Solution, error) {
		return s.Solve(ctx, ds, r, opts)
	})
}

// SolveRRR dispatches the dual problem (minimum set with rank-regret <= k)
// to the named algorithm ("" = auto). Only solvers implementing DualSolver
// qualify; auto picks 2drrm for d = 2 and hdrrm otherwise, matching the
// paper's exact-vs-approximate split.
func (e *Engine) SolveRRR(ctx context.Context, ds *dataset.Dataset, k int, algo string, opts Options) (*Solution, error) {
	if err := validate(ds, k, "threshold k"); err != nil {
		return nil, err
	}
	if k > ds.N() {
		return nil, fmt.Errorf("engine: threshold k = %d out of range [1, %d]", k, ds.N())
	}
	s, err := Resolve(algo, ds.Dim())
	if err != nil {
		return nil, err
	}
	dual, ok := s.(DualSolver)
	if !ok {
		return nil, fmt.Errorf("engine: algorithm %q cannot solve the dual RRR problem", s.Name())
	}
	opts = e.withVecSets(opts)
	return e.cached(ctx, ds, "rrr", k, s.Name(), opts, func() (*Solution, error) {
		return dual.SolveRRR(ctx, ds, k, opts)
	})
}

// DefaultWarmBudget is the output budget r Warm solves with: a typical
// interactive query size, so the per-vector top-K lists it materializes are
// about as deep as real traffic needs.
const DefaultWarmBudget = 5

// Warm primes the engine's cache tiers for ds by running the auto-resolved
// solver with a representative output budget (r <= 0 means
// DefaultWarmBudget, clamped to the dataset size). It is the warm-start
// hook of the durability layer: after a daemon restart the caches are
// empty, so a serving layer that calls Warm in the background for every
// recovered dataset pays the cold-solve cliff proactively — the first
// client solve then finds the VecSet tier populated and takes the reuse
// (or cheap extension) path instead of a cold build: a vector set for an
// HDRRM dataset, the sweep plan for a 2D one, whose auto-resolved solver is
// 2drrm. Results are identical either way; only latency moves. Callers must
// pass the same CacheSalt, seed, and parallelism their live solves use, or
// the warmed entries will not be the ones those solves look up.
func (e *Engine) Warm(ctx context.Context, ds *dataset.Dataset, r int, opts Options) error {
	if r <= 0 {
		r = DefaultWarmBudget
	}
	if ds != nil && r > ds.N() {
		r = ds.N()
	}
	_, err := e.Solve(ctx, ds, r, "", opts)
	return err
}

// solutionKey builds the solution-cache key from every parameter a solve
// depends on; cached and the scheduler's warm probe share it so the two
// cannot drift.
func solutionKey(ds *dataset.Dataset, mode string, rk int, algo string, opts Options) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s|%016x|%s|%s|%d|%s|%d|%g|%d|%d|%d",
		opts.CacheSalt, ds.Fingerprint(), mode, algo, rk, opts.spaceKey(),
		opts.Gamma, opts.Delta, opts.Samples, opts.MaxSamples, opts.Seed)
	return b.String()
}

// cached answers from the LRU when possible, otherwise computes and stores.
// Cached solutions are cloned on the way in and out so callers can mutate
// their copy freely. Concurrent identical cold requests are coalesced: the
// first caller computes, the rest wait and share its result. A follower
// stops waiting when its own ctx is done, and a follower whose leader
// failed (cancelled, errored, or panicked) computes independently under its
// own context.
func (e *Engine) cached(ctx context.Context, ds *dataset.Dataset, mode string, rk int, algo string, opts Options, compute func() (*Solution, error)) (*Solution, error) {
	// run wraps compute with the "solve" span and stage histogram; the
	// wrapping never touches solver inputs or outputs, so results are
	// bit-identical with tracing on or off.
	run := func() (*Solution, error) {
		start := time.Now()
		end := obs.StartSpan(ctx, "solve")
		sol, err := compute()
		end()
		e.obs.solveStage(start)
		return sol, err
	}
	cacheable := e.cache != nil && opts.Sampler == nil
	if !cacheable {
		return run()
	}
	key := solutionKey(ds, mode, rk, algo, opts)
	probeStart := time.Now()
	endProbe := obs.StartSpan(ctx, "cache")
	sol, ok := e.cache.Get(key)
	endProbe()
	e.obs.cacheProbe(probeStart)
	if ok {
		return sol.clone(), nil
	}
	e.flightMu.Lock()
	if c, ok := e.flight[key]; ok {
		e.flightMu.Unlock()
		if ctx == nil {
			<-c.done
		} else {
			select {
			case <-c.done:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		if c.err == nil {
			return c.sol.clone(), nil
		}
		sol, err := run()
		if err != nil {
			return nil, err
		}
		e.cache.Add(key, sol.clone())
		return sol, nil
	}
	c := &flightCall{done: make(chan struct{})}
	// If compute panics, the deferred cleanup still unregisters the flight
	// and releases followers; the default error sends them down their
	// compute-independently path.
	c.err = errors.New("engine: solve aborted")
	e.flight[key] = c
	e.flightMu.Unlock()
	defer func() {
		e.flightMu.Lock()
		delete(e.flight, key)
		e.flightMu.Unlock()
		close(c.done)
	}()

	sol, err := run()
	if err == nil {
		stored := sol.clone()
		e.cache.Add(key, stored)
		c.sol = stored
	}
	c.err = err
	return sol, err
}
