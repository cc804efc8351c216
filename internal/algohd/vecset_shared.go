package algohd

import (
	"context"
	"fmt"
	"sync"

	"github.com/rankregret/rankregret/internal/dataset"
	"github.com/rankregret/rankregret/internal/funcspace"
	"github.com/rankregret/rankregret/internal/geom"
	"github.com/rankregret/rankregret/internal/xrand"
)

// AcquireOutcome reports what a SharedVecSet.Acquire call had to do, so
// callers (the engine's VecSet cache tier) can account for builds versus
// reuse.
type AcquireOutcome int

const (
	// VecSetReused means the requested view was served entirely from the
	// existing grid and sample stream.
	VecSetReused AcquireOutcome = iota
	// VecSetBuilt means this call built the grid and the initial samples.
	VecSetBuilt
	// VecSetExtended means the sample stream was extended to reach the
	// requested m; the grid and the existing prefix were reused.
	VecSetExtended
	// VecSetRepaired means this call materialized the set by incrementally
	// repairing another set's grid, samples, and top-K lists across a
	// dataset mutation (see NewRepairedVecSet) instead of building cold.
	VecSetRepaired
)

// String returns the outcome's metric label.
func (o AcquireOutcome) String() string {
	switch o {
	case VecSetBuilt:
		return "built"
	case VecSetExtended:
		return "extended"
	case VecSetRepaired:
		return "repaired"
	default:
		return "reused"
	}
}

// SharedVecSet is the reuse hook behind the engine's two-tier cache: one
// discretization of the function space — polar grid, sample stream, and the
// lazily built per-vector top-K lists, which dominate HDRRM's runtime —
// shared by every solve on the same (dataset, space, gamma, seed) no matter
// its sample count m. Acquire returns a VecSet view over the grid plus the
// first m samples that is identical to a freshly built set: samples are
// drawn one direction at a time from a single seeded stream, so a prefix of
// a longer Da equals a shorter Da built from the same seed, and a vector's
// top-K list does not depend on which other vectors are present.
//
// A SharedVecSet is safe for concurrent use. Acquire serializes build and
// extension work on an internal lock, which doubles as build coalescing:
// concurrent first acquirers block until the single build finishes and then
// reuse it. Waiting on that lock is not interruptible by ctx; the build
// itself is.
type SharedVecSet struct {
	ds      *dataset.Dataset
	space   funcspace.Space
	gamma   int
	seed    int64
	sampler Sampler

	mu        sync.Mutex
	rng       *xrand.Rand
	rngDirty  bool          // rng advanced past uncommitted draws or handed to a repair; resync before use
	rngSteps  uint64        // generator steps the committed samples consumed
	vecs      []geom.Vector // grid + samples drawn so far; grows, never edited
	gridCount int
	samples   int // sampled directions drawn so far
	built     bool
	tc        *topsCache

	// repair, when non-nil, defers materialization to an incremental repair
	// of another set's state (see NewRepairedVecSet); it is consumed by the
	// first Acquire.
	repair *repairSource
}

// repairSource names the set a pending repair draws from and the recorded
// dataset mutations separating the two datasets.
type repairSource struct {
	old    *SharedVecSet
	deltas []dataset.Delta
}

// Dataset returns the dataset this set discretizes; the pointer is fixed at
// construction.
func (s *SharedVecSet) Dataset() *dataset.Dataset { return s.ds }

// NewSharedVecSet prepares a shared vector set for the given build
// parameters without doing any work; the grid and samples are built by the
// first Acquire. A nil space means the full orthant; a nil sampler means
// uniform sampling on the space.
func NewSharedVecSet(ds *dataset.Dataset, space funcspace.Space, gamma int, seed int64, sampler Sampler) *SharedVecSet {
	return &SharedVecSet{ds: ds, space: space, gamma: gamma, seed: seed, sampler: sampler}
}

// Acquire returns a VecSet view over the grid plus the first m sampled
// directions, building the grid on first use and extending the sample
// stream when m exceeds what has been drawn so far. Views share one top-K
// cache, so repeated solves pay the expensive scoring passes once.
func (s *SharedVecSet) Acquire(ctx context.Context, m int) (*VecSet, AcquireOutcome, error) {
	if m < 0 {
		m = 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	outcome := VecSetReused
	if !s.built {
		var err error
		if outcome, err = s.materializeLocked(ctx); err != nil {
			return nil, VecSetReused, err
		}
	}
	if m > s.samples {
		if s.rngDirty {
			s.resyncRNG()
		}
		vecs, err := drawSamples(ctx, s.space, m-s.samples, s.rng, s.sampler, s.vecs)
		if err != nil {
			// The rng has advanced past draws that were never committed, so
			// it no longer matches the end of the committed stream. Keep the
			// grid, samples, and top-K lists — they are all still valid —
			// and resync the rng before the next extension.
			s.rngDirty = true
			return nil, outcome, err
		}
		s.vecs = vecs
		s.samples = m
		s.rngSteps = s.rng.Steps()
		s.tc.setVecs(vecs)
		if outcome == VecSetReused {
			outcome = VecSetExtended
		}
	}
	if s.gridCount+m == 0 {
		return nil, outcome, fmt.Errorf("algohd: empty vector set (space %s admits no directions)", s.space.Name())
	}
	return &VecSet{ds: s.ds, Vecs: s.vecs[:s.gridCount+m], GridCount: s.gridCount, tc: s.tc}, outcome, nil
}

// materializeLocked brings an un-built set to its built state: by repairing
// the pending repair source when one is set (and the repair succeeds), else
// by building the grid cold. Called with s.mu held. Errors are cancellation
// or invalid build parameters; a cancelled repair stays pending so a later
// Acquire retries it.
func (s *SharedVecSet) materializeLocked(ctx context.Context) (AcquireOutcome, error) {
	if src := s.repair; src != nil {
		s.repair = nil
		ok, err := s.repairFrom(ctx, src)
		if err != nil {
			s.repair = src
			return VecSetReused, err
		}
		if ok {
			return VecSetRepaired, nil
		}
		// Declined (rewrite, churn, truncated history): fall through to a
		// cold build, which is always correct.
	}
	grid, space, err := buildGrid(s.ds, s.space, s.gamma)
	if err != nil {
		return VecSetReused, err
	}
	s.space = space
	s.rng = xrand.New(s.seed)
	s.vecs = grid
	s.gridCount = len(grid)
	s.samples = 0
	s.rngSteps = 0
	s.tc = newTopsCache(s.ds, s.vecs, s.gridCount, s.gamma)
	s.built = true
	return VecSetBuilt, nil
}

// materialize is materializeLocked behind the lock, used to force a repair
// chain's source into existence before repairing from it.
func (s *SharedVecSet) materialize(ctx context.Context) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.built {
		return nil
	}
	_, err := s.materializeLocked(ctx)
	return err
}

// resyncRNG repositions a fresh seeded rng at the end of the committed
// sample stream by skipping the generator steps the committed draws
// consumed: the stream is deterministic from the seed, so this is exact and
// costs one generator step per value rather than redrawing every sample.
// Called with s.mu held.
func (s *SharedVecSet) resyncRNG() {
	s.rng = xrand.New(s.seed)
	s.rng.Skip(s.rngSteps)
	s.rngDirty = false
}

// Samples returns how many sampled directions have been drawn so far.
func (s *SharedVecSet) Samples() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.samples
}
