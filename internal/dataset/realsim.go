package dataset

import (
	"math"

	"github.com/rankregret/rankregret/internal/xrand"
)

// The paper evaluates on three publicly-available real datasets that are not
// shipped with it: Island (63,383 2-dimensional geographic positions), NBA
// (21,961 player/season rows on 5 box-score attributes) and Weather (178,080
// rows on 4 attributes). This file provides seeded simulators matching each
// dataset's cardinality, dimensionality and — most importantly for the
// experiments — correlation structure, which is what drives skyline size and
// therefore output rank-regret.

// IslandN, NBAN and WeatherN are the cardinalities reported in the paper.
const (
	IslandN  = 63383
	NBAN     = 21961
	WeatherN = 178080
)

// SimIsland simulates the Island dataset: n 2-dimensional points with the
// clustered, patchy spatial structure of geographic coordinates. Points are
// drawn from a mixture of anisotropic Gaussian clusters plus a uniform
// background, then normalized to [0,1]^2. Pass n <= 0 for the paper's size.
func SimIsland(rng *xrand.Rand, n int) *Dataset {
	if n <= 0 {
		n = IslandN
	}
	type cluster struct{ cx, cy, sx, sy float64 }
	// A fixed archipelago layout; spreads differ per axis so the point cloud
	// has locally-correlated bands like real coastline data.
	clusters := []cluster{
		{0.15, 0.75, 0.05, 0.09},
		{0.35, 0.55, 0.08, 0.04},
		{0.52, 0.80, 0.04, 0.05},
		{0.65, 0.35, 0.10, 0.06},
		{0.80, 0.60, 0.05, 0.08},
		{0.30, 0.20, 0.07, 0.07},
		{0.88, 0.15, 0.04, 0.04},
		{0.10, 0.40, 0.05, 0.05},
	}
	ds := New(2)
	if err := ds.SetAttrs([]string{"x", "y"}); err != nil {
		panic(err)
	}
	row := make([]float64, 2)
	for i := 0; i < n; i++ {
		if rng.Float64() < 0.12 {
			// Background scatter.
			row[0], row[1] = rng.Float64(), rng.Float64()
		} else {
			c := clusters[rng.Intn(len(clusters))]
			row[0] = clamp01(c.cx + c.sx*rng.NormFloat64())
			row[1] = clamp01(c.cy + c.sy*rng.NormFloat64())
		}
		ds.Append(row)
	}
	ds.Normalize()
	return ds
}

// SimNBA simulates the NBA player/season dataset: n rows over five box-score
// attributes (points, rebounds, assists, steals, blocks). A latent player
// strength drives all attributes (strong positive correlation, as in the
// real data), modulated by a position profile (guards get assists/steals,
// centers get rebounds/blocks), with right-skewed noise and zero inflation
// for sparsely-playing players. The strong positive correlation is what the
// paper's Figure 12 relies on ("the output rank-regrets remain 1 on NBA").
// Pass n <= 0 for the paper's size.
func SimNBA(rng *xrand.Rand, n int) *Dataset {
	if n <= 0 {
		n = NBAN
	}
	// Position profiles: weight of each attribute per archetype.
	profiles := [][5]float64{
		{1.00, 0.35, 0.95, 0.80, 0.15}, // guard
		{1.00, 0.60, 0.55, 0.60, 0.35}, // wing
		{0.90, 1.00, 0.30, 0.35, 0.90}, // big
	}
	ds := New(5)
	if err := ds.SetAttrs([]string{"points", "rebounds", "assists", "steals", "blocks"}); err != nil {
		panic(err)
	}
	row := make([]float64, 5)
	for i := 0; i < n; i++ {
		// Right-skewed latent strength: most players are role players.
		s := math.Pow(rng.Float64(), 2.2)
		p := profiles[rng.Intn(len(profiles))]
		minutes := 0.25 + 0.75*math.Pow(rng.Float64(), 0.7) // playing time factor
		for j := 0; j < 5; j++ {
			v := s * p[j] * minutes * (0.8 + 0.4*rng.Float64())
			if rng.Float64() < 0.04 {
				v *= 0.1 // injury / garbage-time season
			}
			row[j] = v
		}
		ds.Append(row)
	}
	ds.Normalize()
	return ds
}

// SimWeather simulates the Weather dataset: n rows over four attributes
// (temperature, humidity, wind, solar) driven by a seasonal cycle. The
// seasonal driver induces mixed-sign correlations: temperature and solar
// radiation move together, humidity moves against them, wind is nearly
// independent — giving moderate skylines between the synthetic correlated
// and anti-correlated extremes. Pass n <= 0 for the paper's size.
func SimWeather(rng *xrand.Rand, n int) *Dataset {
	if n <= 0 {
		n = WeatherN
	}
	ds := New(4)
	if err := ds.SetAttrs([]string{"temperature", "humidity", "wind", "solar"}); err != nil {
		panic(err)
	}
	row := make([]float64, 4)
	for i := 0; i < n; i++ {
		season := 2 * math.Pi * rng.Float64() // day-of-year phase
		daily := rng.NormFloat64()
		temp := 0.5 + 0.35*math.Sin(season) + 0.10*daily
		humid := 0.55 - 0.25*math.Sin(season) + 0.15*rng.NormFloat64()
		wind := 0.35 + 0.20*rng.NormFloat64() + 0.05*math.Sin(season+1.3)
		solar := 0.5 + 0.30*math.Sin(season) + 0.12*rng.NormFloat64()
		row[0] = clamp01(temp)
		row[1] = clamp01(humid)
		row[2] = clamp01(wind)
		row[3] = clamp01(solar)
		ds.Append(row)
	}
	ds.Normalize()
	return ds
}

// Real dispatches on a simulated-real-dataset name for the bench harness.
// n <= 0 requests the paper's cardinality.
func Real(kind string, rng *xrand.Rand, n int) (*Dataset, bool) {
	switch kind {
	case "island":
		return SimIsland(rng, n), true
	case "nba":
		return SimNBA(rng, n), true
	case "weather":
		return SimWeather(rng, n), true
	default:
		return nil, false
	}
}
