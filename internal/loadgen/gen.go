package loadgen

import (
	"errors"
	"fmt"
	"time"

	"github.com/rankregret/rankregret/internal/xrand"
)

// Scenario names for Config.Scenario.
const (
	// ScenarioSteady offers a flat Poisson stream at Rate for Duration.
	ScenarioSteady = "steady"
	// ScenarioBurst alternates calm traffic at Rate with bursts at
	// BurstRate, exercising the server's overload and shedding behavior.
	ScenarioBurst = "burst"
)

// Mix weighs the request kinds of a generated trace. Weights need not sum
// to 1; they are normalized. A zero weight removes the kind entirely.
type Mix struct {
	Solve  float64
	Sweep  float64
	Mutate float64
	Pinned float64
}

// DefaultMix is a read-mostly serving blend: mostly point solves, some
// sweeps, a trickle of mutations and pinned-version reads.
var DefaultMix = Mix{Solve: 0.70, Sweep: 0.10, Mutate: 0.10, Pinned: 0.10}

// Config describes a scenario to generate. Zero values take the documented
// defaults; Datasets is the only required field beyond Scenario.
type Config struct {
	// Scenario is ScenarioSteady or ScenarioBurst.
	Scenario string
	// Seed makes the whole trace reproducible: same Config, same trace.
	Seed int64
	// Duration is the offered-load window (default 20s).
	Duration time.Duration
	// Rate is the mean request rate in requests/second (default 20). For
	// burst scenarios it is the calm-phase rate.
	Rate float64
	// BurstRate is the burst-phase rate (default 5×Rate); BurstPeriod and
	// BurstLen shape the phases (defaults 5s and 1s). Burst scenarios only.
	BurstRate   float64
	BurstPeriod time.Duration
	BurstLen    time.Duration
	// Datasets are the registry names requests are spread over.
	Datasets []string
	// Mix weighs the request kinds (default DefaultMix).
	Mix Mix
	// RMin and RMax bound the solve budget: r is drawn uniformly from
	// [RMin, RMax] (defaults 2 and 7; RMax is raised to RMin when the two
	// cross). Set RMin to the largest dataset dimensionality — the HDRRM
	// family needs r >= d — so a generated trace never carries a solve the
	// server must reject. Small budgets keep individual solves cheap so the
	// trace measures the serving path, not one giant solve.
	RMin int
	RMax int
	// SweepWidth is how many consecutive r values one sweep covers
	// (default 4).
	SweepWidth int
	// MutateRows is how many rows one mutation appends (default 8).
	MutateRows int
}

func (c *Config) withDefaults() (Config, error) {
	out := *c
	if out.Scenario == "" {
		out.Scenario = ScenarioSteady
	}
	if out.Scenario != ScenarioSteady && out.Scenario != ScenarioBurst {
		return out, fmt.Errorf("loadgen: unknown scenario %q (want %s or %s)", out.Scenario, ScenarioSteady, ScenarioBurst)
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
	if out.BurstLen <= 0 {
		out.BurstLen = time.Second
	}
	if out.Mix == (Mix{}) {
		out.Mix = DefaultMix
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
	if out.SweepWidth < 1 {
		out.SweepWidth = 4
	}
	if out.MutateRows < 1 {
		out.MutateRows = 8
	}
	return out, nil
}

// Generate expands a scenario config into a concrete trace. The expansion is
// pure and seeded: the same config always yields the same trace, so two
// servers driven with one seed and one config see identical request
// sequences.
func Generate(cfg Config) (*Trace, error) {
	c, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	rng := xrand.New(c.Seed)
	arrivalRNG := rng.Split(0x41525256) // "ARRV"
	eventRNG := rng.Split(0x45564e54)   // "EVNT"

	var offsets []float64
	switch c.Scenario {
	case ScenarioBurst:
		offsets = burstArrivals(arrivalRNG, c.Rate, c.BurstRate, c.BurstPeriod, c.BurstLen, c.Duration)
	default:
		offsets = poissonArrivals(arrivalRNG, c.Rate, c.Duration)
	}

	total := c.Mix.Solve + c.Mix.Sweep + c.Mix.Mutate + c.Mix.Pinned
	events := make([]Event, 0, len(offsets))
	for _, at := range offsets {
		ev := Event{AtMS: at, Dataset: c.Datasets[eventRNG.Intn(len(c.Datasets))]}
		pick := eventRNG.Float64() * total
		drawR := func() int { return c.RMin + eventRNG.Intn(c.RMax-c.RMin+1) }
		switch {
		case pick < c.Mix.Solve:
			ev.Kind = KindSolve
			ev.R = drawR()
		case pick < c.Mix.Solve+c.Mix.Sweep:
			ev.Kind = KindSweep
			ev.R = drawR()
			ev.Width = c.SweepWidth
		case pick < c.Mix.Solve+c.Mix.Sweep+c.Mix.Mutate:
			ev.Kind = KindMutate
			ev.Rows = c.MutateRows
			ev.Seed = eventRNG.Int63()
		default:
			ev.Kind = KindPinned
			ev.R = drawR()
		}
		events = append(events, ev)
	}
	return &Trace{
		Scenario:   c.Scenario,
		Seed:       c.Seed,
		DurationMS: float64(c.Duration.Milliseconds()),
		Datasets:   append([]string(nil), c.Datasets...),
		Events:     events,
	}, nil
}
