// Package xrand centralizes the repository's randomness. Every stochastic
// component (workload generators, the HDRRM sample set Da, randomized
// baselines, the rank-regret estimator) takes an explicit *xrand.Rand so runs
// are reproducible from a single seed.
//
// The implementation wraps math/rand with a fixed-increment SplitMix64 seed
// scrambler so that nearby integer seeds produce unrelated streams, and adds
// the geometric samplers the paper needs: uniform directions on the unit
// sphere restricted to the non-negative orthant, and rejection sampling into
// restricted utility spaces.
package xrand

import (
	"math"
	"math/rand"

	"github.com/rankregret/rankregret/internal/geom"
)

// Rand is a seeded random source with geometry-aware samplers. It counts the
// steps its generator has taken, so a fresh Rand of the same seed can be
// brought to the same position with Skip instead of repeating the draws.
type Rand struct {
	*rand.Rand
	src *stepSource
}

// stepSource forwards to math/rand's generator and counts its steps: each
// Int63 or Uint64 call advances that generator by exactly one, and every
// rand.Rand method draws through those two.
type stepSource struct {
	inner rand.Source64
	steps uint64
}

func (s *stepSource) Int63() int64 {
	s.steps++
	return s.inner.Int63()
}

func (s *stepSource) Uint64() uint64 {
	s.steps++
	return s.inner.Uint64()
}

func (s *stepSource) Seed(seed int64) {
	s.steps = 0
	s.inner.Seed(seed)
}

// fromSeed returns a Rand over math/rand's generator seeded with s.
func fromSeed(s int64) *Rand {
	src := &stepSource{inner: rand.NewSource(s).(rand.Source64)}
	return &Rand{Rand: rand.New(src), src: src}
}

// splitmix64 scrambles a seed so consecutive seeds give independent streams.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// New returns a reproducible random source for the given seed.
func New(seed int64) *Rand {
	return fromSeed(int64(splitmix64(uint64(seed))))
}

// Steps reports how many values the generator has produced so far.
func (r *Rand) Steps() uint64 { return r.src.steps }

// Skip advances the generator by n steps, as if n values had been drawn and
// discarded: a fresh Rand of r's seed skipped by r.Steps() continues exactly
// where r does, at the cost of one generator step per value rather than the
// sampling that consumed them.
func (r *Rand) Skip(n uint64) {
	for ; n > 0; n-- {
		r.src.Uint64()
	}
}

// Split derives an independent stream labeled by tag. Use it to hand separate
// components their own generators without manual seed bookkeeping.
func (r *Rand) Split(tag uint64) *Rand {
	return fromSeed(int64(splitmix64(uint64(r.Int63()) ^ splitmix64(tag))))
}

// UnitOrthantDirection samples a direction uniformly at random from the
// intersection of the unit sphere with the non-negative orthant of R^d
// (the paper's function space S). It draws a standard Gaussian vector,
// takes absolute values, and normalizes; by symmetry of the Gaussian this is
// uniform on the orthant patch of the sphere.
func (r *Rand) UnitOrthantDirection(d int) geom.Vector {
	u := make(geom.Vector, d)
	for {
		var norm float64
		for i := 0; i < d; i++ {
			x := math.Abs(r.NormFloat64())
			u[i] = x
			norm += x * x
		}
		if norm > 0 {
			norm = math.Sqrt(norm)
			for i := range u {
				u[i] /= norm
			}
			return u
		}
	}
}

// Simplex samples a weight vector uniformly from the standard (d-1)-simplex
// (non-negative entries summing to 1), via sorted uniform spacings.
func (r *Rand) Simplex(d int) geom.Vector {
	// Exponential spacings normalized by their sum are Dirichlet(1,...,1).
	u := make(geom.Vector, d)
	var sum float64
	for i := 0; i < d; i++ {
		e := r.ExpFloat64()
		u[i] = e
		sum += e
	}
	for i := range u {
		u[i] /= sum
	}
	return u
}

// Accepter reports whether a sampled direction is acceptable. Used by
// SampleWhere for rejection sampling into restricted spaces.
type Accepter func(geom.Vector) bool

// SampleWhere draws a uniform orthant direction conditioned on accept
// returning true, giving up after maxTries draws (returns nil in that case).
// A nil accept function accepts everything.
func (r *Rand) SampleWhere(d int, accept Accepter, maxTries int) geom.Vector {
	for i := 0; i < maxTries; i++ {
		u := r.UnitOrthantDirection(d)
		if accept == nil || accept(u) {
			return u
		}
	}
	return nil
}
