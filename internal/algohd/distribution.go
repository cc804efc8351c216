package algohd

import (
	"fmt"

	"github.com/rankregret/rankregret/internal/geom"
	"github.com/rankregret/rankregret/internal/xrand"
)

// Sampler draws one utility direction. It is the hook for the paper's
// Section V.C generalization: when user preferences are not uniform on the
// sphere, Da is sampled from the actual preference distribution so that
// Rat_k (Theorem 6) is an integral with respect to that distribution. A
// Sampler may return directions outside the restricted space; they are
// rejected and redrawn.
type Sampler func(rng *xrand.Rand) geom.Vector

// GaussianPreference returns a Sampler that perturbs a central preference
// vector with isotropic Gaussian noise of the given sigma and projects back
// to the unit sphere — the standard model for "a mined utility vector that
// is roughly right".
func GaussianPreference(center geom.Vector, sigma float64) (Sampler, error) {
	if len(center) == 0 {
		return nil, fmt.Errorf("algohd: empty preference center")
	}
	if !geom.NonNegative(center) || geom.AllZero(center) {
		return nil, fmt.Errorf("algohd: preference center must be non-negative and non-zero")
	}
	if sigma <= 0 {
		return nil, fmt.Errorf("algohd: sigma must be positive, got %v", sigma)
	}
	c := geom.Normalize(center)
	return func(rng *xrand.Rand) geom.Vector {
		for tries := 0; tries < 4096; tries++ {
			u := make(geom.Vector, len(c))
			ok := true
			for i := range u {
				u[i] = c[i] + sigma*rng.NormFloat64()
				if u[i] < 0 {
					ok = false
					break
				}
			}
			if ok && !geom.AllZero(u) {
				return geom.Normalize(u)
			}
		}
		// Pathological sigma: fall back to the center itself.
		return geom.Clone(c)
	}, nil
}

// MixturePreference returns a Sampler over a finite mixture of samplers
// with the given non-negative weights (they need not sum to one). This
// models a population with several user archetypes.
func MixturePreference(weights []float64, samplers []Sampler) (Sampler, error) {
	if len(weights) != len(samplers) || len(weights) == 0 {
		return nil, fmt.Errorf("algohd: mixture needs matching, non-empty weights and samplers")
	}
	total := 0.0
	for i, w := range weights {
		if w < 0 {
			return nil, fmt.Errorf("algohd: mixture weight %d is negative", i)
		}
		total += w
	}
	if total <= 0 {
		return nil, fmt.Errorf("algohd: mixture weights sum to zero")
	}
	return func(rng *xrand.Rand) geom.Vector {
		x := rng.Float64() * total
		for i, w := range weights {
			x -= w
			if x <= 0 {
				return samplers[i](rng)
			}
		}
		return samplers[len(samplers)-1](rng)
	}, nil
}
