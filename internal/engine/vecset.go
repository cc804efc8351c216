package engine

import (
	"container/list"
	"context"
	"fmt"
	"math"
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
// maintains an identity index keyed by dataset lineage, pointing at the
// newest version's entry that holds each precomputation. When a solve
// arrives for a new version of a dataset whose previous version has a
// cached entry with that precomputation, the new entry's is repaired from
// the old one's instead of built cold:
//
//   - a vector set when the dataset's delta log spans the gap without a
//     rewrite: appended rows merged into the per-vector top-K lists,
//     tombstoned rows remapped or re-selected;
//   - a sweep plan when the gap holds appends only and the rows before
//     them are bit for bit the old plan's (algo2d.Plan.Appended), unless
//     the appended rows could change the plan's candidates or band.
//
// A repair that declines falls back to a cold build. The old entry is never
// modified, so solves pinned to the old version keep hitting it.
type VecSetCache struct {
	mu      sync.Mutex
	cap     int
	ll      *list.List // front = most recent
	items   map[string]*list.Element
	byIdent map[identKey]*list.Element // newest entry per dataset identity and precomputation

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

// identKey names one precomputation of one dataset identity in the
// identity index: the vector set, or the 2D sweep plan when plan is set.
// Each has its own newest entry, so a version that only 2D solves have
// used does not hide an older version's vector set from a repair, nor a
// version that only HDRRM-family solves have used an older plan.
type identKey struct {
	ident string
	plan  bool
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

// planSlot holds an entry's 2D sweep plan, made by the first 2DRRM solve,
// and the dataset snapshot it was made from, which a newer version's
// repair compares its rows against. It is made under mu, so concurrent
// first solves make it once; a failed build leaves the slot empty for the
// next solve to retry.
type planSlot struct {
	mu   sync.Mutex
	plan *algo2d.Plan
	ds   *dataset.Dataset
}

// plan returns e's sweep plan for ds over space. A slot without one
// registers e in the identity index and repairs the plan from the index's
// previous newest entry when ds's delta log since that version holds
// appends only, that entry's plan is built, and ds's first rows are bit
// for bit the rows it was built from; otherwise, or when the repair
// declines, it builds it from ds and space. Locks are taken in the order
// e's slot, c.mu, the source's slot, and a slot only ever locks an older
// version's, so they cannot cycle.
func (c *VecSetCache) plan(ctx context.Context, e *vecsetEntry, ds *dataset.Dataset, space funcspace.Space) (*algo2d.Plan, algohd.AcquireOutcome, error) {
	s := &e.plan
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.plan != nil {
		return s.plan, algohd.VecSetReused, nil
	}
	ik := identKey{ident: e.ident, plan: true}
	c.mu.Lock()
	src := c.repairSource(ik, ds)
	c.register(ik, e)
	c.mu.Unlock()
	if src != nil && appendsOnly(ds, src.version) {
		src.plan.mu.Lock()
		old, oldDS := src.plan.plan, src.plan.ds
		src.plan.mu.Unlock()
		if old != nil && oldDS.Fingerprint() == src.fp && samePrefix(oldDS, ds) {
			pl, ok, err := old.Appended(ctx, ds)
			if err != nil {
				return nil, algohd.VecSetReused, err
			}
			if ok {
				s.plan, s.ds = pl, ds
				return pl, algohd.VecSetRepaired, nil
			}
		}
	}
	pl, err := algo2d.NewPlanCtx(ctx, ds, space)
	if err != nil {
		return nil, algohd.VecSetReused, err
	}
	s.plan, s.ds = pl, ds
	return pl, algohd.VecSetBuilt, nil
}

// samePrefix reports whether ds's first old.N() rows hold old's values bit
// for bit. Two snapshots of one version appended to separately share a
// (lineage, version) pair, so a delta log of appends does not prove that
// the rows before them are the old version's; this comparison does.
func samePrefix(old, ds *dataset.Dataset) bool {
	if ds.N() < old.N() || ds.Dim() != old.Dim() {
		return false
	}
	for i := range old.N() {
		a, b := old.Row(i), ds.Row(i)
		for j := range a {
			if math.Float64bits(a[j]) != math.Float64bits(b[j]) {
				return false
			}
		}
	}
	return true
}

// appendsOnly reports whether ds's delta log reaches back to version since
// and holds nothing but appends after it.
func appendsOnly(ds *dataset.Dataset, since uint64) bool {
	deltas, ok := ds.Deltas(since)
	if !ok {
		return false
	}
	for _, d := range deltas {
		if d.Kind != dataset.DeltaAppend {
			return false
		}
	}
	return true
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
		byIdent: make(map[identKey]*list.Element),
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
		if prev := c.repairSource(identKey{ident: e.ident}, ds); prev != nil {
			if deltas, ok := ds.Deltas(prev.version); ok && repairable(deltas) {
				// Lazy: the actual repair (or its fallback cold build) runs
				// on first Acquire of the new shared set, outside this lock.
				e.shared = algohd.NewRepairedVecSet(prev.shared, ds, deltas)
			}
		}
		if e.shared == nil {
			e.shared = algohd.NewSharedVecSet(ds, ho.Space, ho.EffectiveGamma(), opts.Seed, ho.Sampler)
		}
		c.register(identKey{ident: e.ident}, e)
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
// an r or k sweep over a 2D dataset makes it once. A new version of a
// dataset repairs its plan from the newest older version's entry when only
// appends lie between them (counted as a repair), and builds it otherwise.
// The caller checks that ds is 2-dimensional.
func (c *VecSetCache) Plan(ctx context.Context, ds *dataset.Dataset, opts Options) (*algo2d.Plan, error) {
	key := vecsetKey(ds, opts)
	c.mu.Lock()
	e := c.entry(key, ds, opts)
	c.evict()
	c.mu.Unlock()

	start := time.Now()
	endSpan := obs.StartSpan(ctx, "build")
	pl, outcome, err := c.plan(ctx, e, ds, opts.Space)
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

// register makes e the newest entry under ik unless a newer version's
// entry holds that place, or e has been evicted. Called with c.mu held.
func (c *VecSetCache) register(ik identKey, e *vecsetEntry) {
	el, ok := c.items[e.key]
	if !ok || el.Value.(*vecsetEntry) != e {
		return
	}
	if cur, ok := c.byIdent[ik]; !ok || cur.Value.(*vecsetEntry).version <= e.version {
		c.byIdent[ik] = el
	}
}

// evict drops the least recently used entry while the tier is over
// capacity. Called with c.mu held.
func (c *VecSetCache) evict() {
	for c.ll.Len() > c.cap {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		old := oldest.Value.(*vecsetEntry)
		delete(c.items, old.key)
		for _, ik := range []identKey{{ident: old.ident}, {ident: old.ident, plan: true}} {
			if c.byIdent[ik] == oldest {
				delete(c.byIdent, ik)
			}
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

// repairSource returns the identity index's entry under ik, for ds's
// lineage, when it is a usable repair source: a strictly older version
// whose shared set, if it has one, still holds the data it was keyed with
// (a fingerprint mismatch means the old snapshot was mutated in place —
// the snapshot discipline was broken — and repairing from it would poison
// results). Called with c.mu held.
func (c *VecSetCache) repairSource(ik identKey, ds *dataset.Dataset) *vecsetEntry {
	el, ok := c.byIdent[ik]
	if !ok {
		return nil
	}
	prev := el.Value.(*vecsetEntry)
	if prev.version >= ds.Version() {
		return nil
	}
	if prev.shared != nil && prev.shared.Dataset().Fingerprint() != prev.fp {
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
