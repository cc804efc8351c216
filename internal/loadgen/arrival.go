package loadgen

import (
	"math"
	"time"

	"github.com/rankregret/rankregret/internal/xrand"
)

// poissonArrivals returns the event offsets (milliseconds, ascending, all in
// [0, d)) of a homogeneous Poisson process with mean rate rps. Inter-arrival
// gaps are exponential, so the stream has the memoryless burstiness of real
// open-loop traffic rather than a metronome's.
func poissonArrivals(rng *xrand.Rand, rps float64, d time.Duration) []float64 {
	durMS := float64(d.Milliseconds())
	return piecewiseArrivals(rng, durMS, func(float64) float64 { return rps / 1000 }, func(float64) float64 { return durMS })
}

// burstArrivals returns the offsets of a piecewise-constant-rate Poisson
// process that alternates calm and burst phases: every period, the first
// burstLen runs at burstRPS and the remainder at baseRPS. Within each phase
// arrivals are Poisson, so bursts are jittered rather than square waves of
// evenly spaced requests.
func burstArrivals(rng *xrand.Rand, baseRPS, burstRPS float64, period, burstLen, d time.Duration) []float64 {
	durMS := float64(d.Milliseconds())
	perMS := float64(period.Milliseconds())
	burstMS := float64(burstLen.Milliseconds())
	if perMS <= 0 || burstMS <= 0 || burstMS >= perMS {
		// Degenerate phase geometry: fall back to the flat process at the
		// higher rate so a misconfigured scenario still offers load.
		return poissonArrivals(rng, math.Max(baseRPS, burstRPS), d)
	}
	rate := func(t float64) float64 {
		if math.Mod(t, perMS) < burstMS {
			return burstRPS / 1000
		}
		return baseRPS / 1000
	}
	// boundary returns the next phase edge after t, where the rate changes
	// and the exponential draw must be restarted.
	boundary := func(t float64) float64 {
		phase := math.Mod(t, perMS)
		edge := t - phase + burstMS
		if phase >= burstMS {
			edge = t - phase + perMS
		}
		if edge <= t { // guard float equality at an edge
			edge = t + burstMS
		}
		return math.Min(edge, durMS)
	}
	return piecewiseArrivals(rng, durMS, rate, boundary)
}

// piecewiseArrivals generates a Poisson process whose rate (events per
// millisecond) is constant between the boundaries reported by boundary. The
// standard construction: draw an exponential gap at the current rate; if it
// crosses the next rate boundary, advance to the boundary and redraw there
// (the memoryless property makes the restart exact, not an approximation).
func piecewiseArrivals(rng *xrand.Rand, durMS float64, rate func(t float64) float64, boundary func(t float64) float64) []float64 {
	var out []float64
	t := 0.0
	for t < durMS {
		r := rate(t)
		b := boundary(t)
		if b <= t {
			b = durMS
		}
		if r <= 0 {
			t = b
			continue
		}
		gap := -math.Log(1-rng.Float64()) / r
		if t+gap >= b {
			t = b
			continue
		}
		t += gap
		out = append(out, t)
	}
	return out
}
