package engine

import (
	"container/list"
	"context"
	"fmt"
	"strings"
	"sync"
	"time"

	"github.com/rankregret/rankregret/internal/algo2d"
	"github.com/rankregret/rankregret/internal/algohd"
	"github.com/rankregret/rankregret/internal/dataset"
	"github.com/rankregret/rankregret/internal/funcspace"
	"github.com/rankregret/rankregret/internal/obs"
)

// VecSetCache is the first tier of the engine's two-tier cache: the work
// of a solve that does not depend on the budget r or threshold k, keyed by
// dataset fingerprint, space, gamma, and seed. An entry holds up to two
// such precomputations, each made by the first solve that needs it:
//
//   - a shared vector set (polar grid + sample stream + per-vector top-K
//     lists, the expensive precomputation behind every HDRRM-family
//     solve). The sample count m is deliberately NOT part of the key: all
//     samples come from one seeded stream, so a single entry serves every
//     m as a prefix view;
//   - for a 2D dataset, the exact 2D solver's sweep plan (algo2d.Plan:
//     U-skyline, start ranks, crossing events), which serves every RRM
//     budget and RRR threshold.
//
// So a parameter sweep over r or k pays the build cost once, and hdrrm and
// 2drrm solves on one 2D dataset share an entry. Both count in the builds
// and reuses of VecSetStats and run under the "build" span.
//
// Builds are coalesced per entry (SharedVecSet serializes its own build and
// extension work, the plan slot its build), so a dogpile of identical cold
// solves performs exactly one build; a failed build is not kept.
// Sampler-backed solves have no cacheable identity and must not be routed
// here — the engine wiring enforces that.
//
// The tier is delta-aware: alongside the exact fingerprint-keyed lookup it
// maintains an identity index keyed by dataset lineage. When a solve arrives
// for a new version of a dataset whose previous version has a cached entry,
// and the dataset's delta log spans the gap without a rewrite, the new entry
// is seeded as an incremental repair of the old one (appended rows merged
// into the per-vector top-K lists, tombstoned rows remapped or re-selected)
// instead of a cold rebuild. The old entry is never modified, so solves
// pinned to the old version keep hitting it. Plans are not repaired: each
// dataset version builds its own.
type VecSetCache struct {
	mu      sync.Mutex
	cap     int
	ll      *list.List // front = most recent
	items   map[string]*list.Element
	byIdent map[string]*list.Element // newest entry per dataset identity

	// Outcome counters, guarded by mu (not atomics) so Stats reads them
	// together with the occupancy as one coherent snapshot.
	builds     uint64
	extensions uint64
	reuses     uint64
	repairs    uint64

	// buildDur records acquire latency for the outcomes that did real work
	// (build, extension, repair); pure reuses are excluded so the histogram
	// reflects precomputation cost, not lookup noise. Wired by
	// Engine.Instrument before serving; nil = uninstrumented.
	buildDur *obs.Histogram
}

type vecsetEntry struct {
	key     string
	ident   string // identity key: salt|lineage|space|gamma|seed
	fp      uint64 // dataset fingerprint at entry creation
	version uint64 // dataset version at entry creation
	// shared is created by the entry's first HDRRM-family acquire, under
	// the cache lock; nil while only 2D solves have used the entry.
	shared *algohd.SharedVecSet
	plan   planSlot
}

// planSlot holds an entry's 2D sweep plan, built by the first 2DRRM solve.
// The build runs under mu, so concurrent first solves build once; a failed
// build leaves the slot empty for the next solve to retry.
type planSlot struct {
	mu   sync.Mutex
	plan *algo2d.Plan
}

// get returns the slot's plan, building it from ds and space if it has none.
func (s *planSlot) get(ctx context.Context, ds *dataset.Dataset, space funcspace.Space) (*algo2d.Plan, algohd.AcquireOutcome, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.plan != nil {
		return s.plan, algohd.VecSetReused, nil
	}
	pl, err := algo2d.NewPlanCtx(ctx, ds, space)
	if err != nil {
		return nil, algohd.VecSetReused, err
	}
	s.plan = pl
	return pl, algohd.VecSetBuilt, nil
}

// VecSetStats is a snapshot of the VecSet-tier counters. Reuses counts
// solves served entirely from an existing entry; Extensions counts solves
// that reused the grid and sample prefix but had to draw further samples;
// Repairs counts solves whose entry was materialized by incrementally
// repairing a previous version's entry across the dataset's delta log.
type VecSetStats struct {
	Builds     uint64 `json:"builds"`
	Extensions uint64 `json:"extensions"`
	Reuses     uint64 `json:"reuses"`
	Repairs    uint64 `json:"repairs"`
	Len        int    `json:"len"`
	Cap        int    `json:"cap"`
}

// DefaultVecSetCacheSize is the VecSet-tier capacity of New(0). Entries
// hold the top-K lists for tens of thousands of vectors, so the tier is
// kept much smaller than the solution cache.
const DefaultVecSetCacheSize = 16

// NewVecSetCache returns a VecSet cache holding at most capacity shared
// sets.
func NewVecSetCache(capacity int) *VecSetCache {
	if capacity < 1 {
		capacity = 1
	}
	return &VecSetCache{
		cap:     capacity,
		ll:      list.New(),
		items:   make(map[string]*list.Element),
		byIdent: make(map[string]*list.Element),
	}
}

// Acquire returns a vector-set view for the solve described by opts with m
// sampled directions, creating, repairing, or extending the underlying
// shared set as needed. Evicting an entry never invalidates views already
// handed out.
func (c *VecSetCache) Acquire(ctx context.Context, ds *dataset.Dataset, opts Options, m int) (*algohd.VecSet, error) {
	key := vecsetKey(ds, opts)
	c.mu.Lock()
	e := c.entry(key, ds, opts)
	if e.shared == nil {
		ho := opts.hd()
		if prev := c.repairSource(e.ident, ds); prev != nil {
			if deltas, ok := ds.Deltas(prev.version); ok && repairable(deltas) {
				// Lazy: the actual repair (or its fallback cold build) runs
				// on first Acquire of the new shared set, outside this lock.
				e.shared = algohd.NewRepairedVecSet(prev.shared, ds, deltas)
			}
		}
		if e.shared == nil {
			e.shared = algohd.NewSharedVecSet(ds, ho.Space, ho.EffectiveGamma(), opts.Seed, ho.Sampler)
		}
		el := c.items[e.key]
		if cur, ok := c.byIdent[e.ident]; !ok || cur.Value.(*vecsetEntry).version <= e.version {
			c.byIdent[e.ident] = el
		}
	}
	// Evict only now: the least recently used entry may be the repair
	// source just taken.
	c.evict()
	shared := e.shared
	// The build itself runs outside the cache lock; SharedVecSet coalesces
	// concurrent builders on its own lock.
	c.mu.Unlock()

	start := time.Now()
	endSpan := obs.StartSpan(ctx, "build")
	vs, outcome, err := shared.Acquire(ctx, m)
	endSpan()
	if err != nil {
		return nil, err
	}
	// The trace tells a repair from a rebuild or a reuse.
	obs.TraceFrom(ctx).Annotate("vecset", outcome.String())
	c.count(outcome, start)
	return vs, nil
}

// Plan returns the 2D sweep plan for ds over opts.Space (nil = the full
// space), kept in the same entry an HDRRM-family solve on ds would use, so
// an r or k sweep over a 2D dataset builds it once. Each dataset version
// builds its own plan: plans are not repaired across mutations. The
// caller checks that ds is 2-dimensional.
func (c *VecSetCache) Plan(ctx context.Context, ds *dataset.Dataset, opts Options) (*algo2d.Plan, error) {
	key := vecsetKey(ds, opts)
	c.mu.Lock()
	e := c.entry(key, ds, opts)
	c.evict()
	c.mu.Unlock()

	start := time.Now()
	endSpan := obs.StartSpan(ctx, "build")
	pl, outcome, err := e.plan.get(ctx, ds, opts.Space)
	endSpan()
	if err != nil {
		return nil, err
	}
	obs.TraceFrom(ctx).Annotate("plan", outcome.String())
	c.count(outcome, start)
	return pl, nil
}

// entry returns the entry under key, ds's vecsetKey under opts, creating
// an empty one at the front when there is none; the caller then calls
// evict. Called with c.mu held.
func (c *VecSetCache) entry(key string, ds *dataset.Dataset, opts Options) *vecsetEntry {
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		return el.Value.(*vecsetEntry)
	}
	var ib strings.Builder
	fmt.Fprintf(&ib, "%s|%d|%s|%d|%d", opts.CacheSalt, ds.Lineage(), opts.spaceKey(), opts.hd().EffectiveGamma(), opts.Seed)
	e := &vecsetEntry{key: key, ident: ib.String(), fp: ds.Fingerprint(), version: ds.Version()}
	c.items[key] = c.ll.PushFront(e)
	return e
}

// evict drops the least recently used entry while the tier is over
// capacity. Called with c.mu held.
func (c *VecSetCache) evict() {
	for c.ll.Len() > c.cap {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		old := oldest.Value.(*vecsetEntry)
		delete(c.items, old.key)
		if c.byIdent[old.ident] == oldest {
			delete(c.byIdent, old.ident)
		}
	}
}

// count records one acquire's outcome, and the latency of one that did
// real work.
func (c *VecSetCache) count(outcome algohd.AcquireOutcome, start time.Time) {
	c.mu.Lock()
	switch outcome {
	case algohd.VecSetBuilt:
		c.builds++
	case algohd.VecSetExtended:
		c.extensions++
	case algohd.VecSetRepaired:
		c.repairs++
	default:
		c.reuses++
	}
	h := c.buildDur
	c.mu.Unlock()
	if h != nil && outcome != algohd.VecSetReused {
		h.ObserveSince(start)
	}
}

// instrument wires the build-latency histogram; called by Engine.Instrument
// before the cache serves traffic.
func (c *VecSetCache) instrument(h *obs.Histogram) {
	c.mu.Lock()
	c.buildDur = h
	c.mu.Unlock()
}

// vecsetKey builds the tier's exact lookup key; Acquire and the scheduler's
// warm probe share it so the two cannot drift. (m is deliberately absent —
// see the type comment.)
func vecsetKey(ds *dataset.Dataset, opts Options) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s|%016x|%s|%d|%d",
		opts.CacheSalt, ds.Fingerprint(), opts.spaceKey(), opts.hd().EffectiveGamma(), opts.Seed)
	return b.String()
}

// Contains reports whether the tier holds an entry for key without touching
// the LRU order — the scheduler's passive warm probe. A resident entry may
// still be mid-build; affinity routing to it is right anyway, since the
// build is coalesced and the routed solve shares it.
func (c *VecSetCache) Contains(key string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.items[key]
	return ok
}

// repairSource returns the identity index's entry for ds's lineage when it
// is a usable repair source: a strictly older version whose shared set still
// holds the data it was keyed with (a fingerprint mismatch means the old
// snapshot was mutated in place — the snapshot discipline was broken — and
// repairing from it would poison results). Called with c.mu held.
func (c *VecSetCache) repairSource(ident string, ds *dataset.Dataset) *vecsetEntry {
	el, ok := c.byIdent[ident]
	if !ok {
		return nil
	}
	prev := el.Value.(*vecsetEntry)
	if prev.version >= ds.Version() {
		return nil
	}
	if prev.shared.Dataset().Fingerprint() != prev.fp {
		return nil
	}
	return prev
}

// repairable reports whether a delta window can be repaired across at all:
// rewrites (Normalize, Shift, Negate, SetAttrs) change every value and force
// a rebuild. Churn-based declines are judged later, inside the lazy repair,
// where the committed lists are visible.
func repairable(deltas []dataset.Delta) bool {
	for _, d := range deltas {
		if d.Kind == dataset.DeltaRewrite {
			return false
		}
	}
	return true
}

// Stats snapshots the build/extension/reuse/repair counters and occupancy,
// coherently under one lock.
func (c *VecSetCache) Stats() VecSetStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return VecSetStats{
		Builds:     c.builds,
		Extensions: c.extensions,
		Reuses:     c.reuses,
		Repairs:    c.repairs,
		Len:        c.ll.Len(),
		Cap:        c.cap,
	}
}
