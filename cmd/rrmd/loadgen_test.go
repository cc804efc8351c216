package main

// A seeded open-loop traffic generator for rrmd: it turns a scenario
// description into a deterministic request trace (solves, parameter sweeps,
// dataset mutations, and pinned-version solves over multiple named datasets,
// with Poisson or bursty arrival times), fires the trace at a live daemon
// over HTTP without waiting for completions — the open-loop discipline, so
// server slowdowns surface as mounting concurrency instead of silently
// throttling the offered load — and reduces the outcomes to a report of
// counts: completed, shed, failed, and per-item batch results, plus the p99
// latency of completed and of shed requests.
//
// generateTrace is a pure function of its loadConfig, so the same seed and
// settings reproduce the same trace; there is no trace file to ship. Latency
// is not this driver's job: its clock starts at send, not when the request
// was due, so a late generator reads as a slow server. cmd/rrmladder is the
// latency benchmark.

import (
	"errors"
	"fmt"
	"math"
	"time"

	"github.com/rankregret/rankregret/internal/xrand"
)

// reqKind names one request type of a trace event.
type reqKind string

const (
	// kindSolve is a synchronous POST /v1/solve on the current version.
	kindSolve reqKind = "solve"
	// kindSweep is a POST /v1/solve/batch sweeping r over a small range.
	kindSweep reqKind = "sweep"
	// kindMutate appends rows via POST /v1/datasets/{name}/rows, publishing
	// a new dataset version.
	kindMutate reqKind = "mutate"
	// kindPinned solves against an older retained version (looked up at
	// fire time), exercising the pinned-version path.
	kindPinned reqKind = "pinned"
)

// traceEvent is one scheduled request of an open-loop trace.
type traceEvent struct {
	// AtMS is the firing offset from trace start, in milliseconds.
	AtMS float64
	Kind reqKind
	// Dataset names the registry entry the request targets.
	Dataset string
	// R is the solve budget for solve/pinned events, and the first r of the
	// swept range for sweep events.
	R int
	// Width is how many consecutive r values a sweep covers.
	Width int
	// Rows is how many rows a mutate appends.
	Rows int
	// Seed salts the row content of a mutate, so every run of the trace
	// appends identical data.
	Seed int64
}

// loadTrace is a deterministic request schedule, ordered by AtMS.
type loadTrace struct {
	DurationMS float64
	Datasets   []string
	Events     []traceEvent
}

// Scenario names for loadConfig.Scenario.
const (
	// scenarioSteady offers a flat Poisson stream at Rate for Duration.
	scenarioSteady = "steady"
	// scenarioBurst alternates calm traffic at Rate with bursts at
	// BurstRate, exercising the server's overload and shedding behavior.
	scenarioBurst = "burst"
)

// loadMix weighs the request kinds of a generated trace. Weights need not
// sum to 1; they are normalized. A zero weight removes the kind entirely.
type loadMix struct {
	Solve  float64
	Sweep  float64
	Mutate float64
	Pinned float64
}

// defaultMix is a read-mostly serving blend: mostly point solves, some
// sweeps, a trickle of mutations and pinned-version reads.
var defaultMix = loadMix{Solve: 0.70, Sweep: 0.10, Mutate: 0.10, Pinned: 0.10}

const (
	// burstLen is how long each burst of a burst scenario lasts.
	burstLen = time.Second
	// sweepWidth is how many consecutive r values one sweep covers.
	sweepWidth = 4
	// mutateRows is how many rows one mutation appends.
	mutateRows = 8
)

// loadConfig describes a scenario to generate. Zero values take the
// documented defaults; Datasets is the only required field beyond Scenario.
type loadConfig struct {
	// Scenario is scenarioSteady or scenarioBurst.
	Scenario string
	// Seed makes the whole trace reproducible: same config, same trace.
	Seed int64
	// Duration is the offered-load window (default 20s).
	Duration time.Duration
	// Rate is the mean request rate in requests/second (default 20). For
	// burst scenarios it is the calm-phase rate.
	Rate float64
	// BurstRate is the burst-phase rate (default 5×Rate); a burst of
	// burstLen opens every BurstPeriod (default 5s). Burst scenarios only.
	BurstRate   float64
	BurstPeriod time.Duration
	// Datasets are the registry names requests are spread over.
	Datasets []string
	// Mix weighs the request kinds (default defaultMix).
	Mix loadMix
	// RMin and RMax bound the solve budget: r is drawn uniformly from
	// [RMin, RMax] (defaults 2 and 7; RMax is raised to RMin when the two
	// cross). Set RMin to the largest dataset dimensionality — the HDRRM
	// family needs r >= d — so a generated trace never carries a solve the
	// server must reject. Small budgets keep individual solves cheap so the
	// trace measures the serving path, not one giant solve.
	RMin int
	RMax int
}

func (c *loadConfig) withDefaults() (loadConfig, error) {
	out := *c
	if out.Scenario == "" {
		out.Scenario = scenarioSteady
	}
	if out.Scenario != scenarioSteady && out.Scenario != scenarioBurst {
		return out, fmt.Errorf("loadgen: unknown scenario %q (want %s or %s)", out.Scenario, scenarioSteady, scenarioBurst)
	}
	if len(out.Datasets) == 0 {
		return out, errors.New("loadgen: config needs at least one dataset")
	}
	if out.Duration <= 0 {
		out.Duration = 20 * time.Second
	}
	if out.Rate <= 0 {
		out.Rate = 20
	}
	if out.BurstRate <= 0 {
		out.BurstRate = 5 * out.Rate
	}
	if out.BurstPeriod <= 0 {
		out.BurstPeriod = 5 * time.Second
	}
	if out.Mix == (loadMix{}) {
		out.Mix = defaultMix
	}
	if out.Mix.Solve < 0 || out.Mix.Sweep < 0 || out.Mix.Mutate < 0 || out.Mix.Pinned < 0 {
		return out, errors.New("loadgen: mix weights must be non-negative")
	}
	if out.Mix.Solve+out.Mix.Sweep+out.Mix.Mutate+out.Mix.Pinned <= 0 {
		return out, errors.New("loadgen: mix weights must not all be zero")
	}
	if out.RMin < 2 {
		out.RMin = 2
	}
	if out.RMax < 2 {
		out.RMax = 7
	}
	if out.RMax < out.RMin {
		out.RMax = out.RMin
	}
	return out, nil
}

// generateTrace expands a scenario config into a concrete trace. The
// expansion is pure and seeded: the same config always yields the same
// trace, so two servers driven with one seed and one config see identical
// request sequences.
func generateTrace(cfg loadConfig) (*loadTrace, error) {
	c, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	rng := xrand.New(c.Seed)
	arrivalRNG := rng.Split(0x41525256) // "ARRV"
	eventRNG := rng.Split(0x45564e54)   // "EVNT"

	var offsets []float64
	switch c.Scenario {
	case scenarioBurst:
		offsets = burstArrivals(arrivalRNG, c.Rate, c.BurstRate, c.BurstPeriod, burstLen, c.Duration)
	default:
		offsets = poissonArrivals(arrivalRNG, c.Rate, c.Duration)
	}

	total := c.Mix.Solve + c.Mix.Sweep + c.Mix.Mutate + c.Mix.Pinned
	events := make([]traceEvent, 0, len(offsets))
	for _, at := range offsets {
		ev := traceEvent{AtMS: at, Dataset: c.Datasets[eventRNG.Intn(len(c.Datasets))]}
		pick := eventRNG.Float64() * total
		drawR := func() int { return c.RMin + eventRNG.Intn(c.RMax-c.RMin+1) }
		switch {
		case pick < c.Mix.Solve:
			ev.Kind = kindSolve
			ev.R = drawR()
		case pick < c.Mix.Solve+c.Mix.Sweep:
			ev.Kind = kindSweep
			ev.R = drawR()
			ev.Width = sweepWidth
		case pick < c.Mix.Solve+c.Mix.Sweep+c.Mix.Mutate:
			ev.Kind = kindMutate
			ev.Rows = mutateRows
			ev.Seed = eventRNG.Int63()
		default:
			ev.Kind = kindPinned
			ev.R = drawR()
		}
		events = append(events, ev)
	}
	return &loadTrace{
		DurationMS: float64(c.Duration.Milliseconds()),
		Datasets:   append([]string(nil), c.Datasets...),
		Events:     events,
	}, nil
}

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
