// Package workload generates the per-edge inference workload M_i^t, standing
// in for the London Underground 15-minute passenger counts the paper uses.
//
// The generator produces a two-day, 15-minute-slot profile with the
// signature double peak of commuter traffic (AM and PM rush hours), a
// per-edge scale drawn from a heavy-ish tailed distribution (stations differ
// by an order of magnitude), day-to-day variation, and Poisson arrival noise.
// From the algorithms' perspective M_i is just a stationary stochastic
// arrival count per slot, which is all the paper assumes (its Appendix A
// shows the arrival count cancels from the loss expectation).
package workload

import (
	"fmt"
	"math"
	"math/rand"
)

// SlotsPerDay is the number of 15-minute slots in a day.
const SlotsPerDay = 96

// Profile describes the diurnal shape shared by all edges.
type Profile struct {
	// Base is the off-peak demand floor as a fraction of peak.
	Base float64
	// AMPeak and PMPeak are the slot indices (within a day) of the two
	// rush-hour maxima.
	AMPeak, PMPeak int
	// PeakWidth is the Gaussian width (in slots) of each peak.
	PeakWidth float64
	// DayJitter scales multiplicative day-to-day variation.
	DayJitter float64
}

// DefaultProfile mimics London Underground traffic: peaks around 08:30
// (slot 34) and 18:00 (slot 72), an off-peak floor of 15 % of peak, and
// moderate day-to-day variation.
func DefaultProfile() Profile {
	return Profile{
		Base:      0.15,
		AMPeak:    34,
		PMPeak:    72,
		PeakWidth: 8,
		DayJitter: 0.1,
	}
}

// Generator draws workloads for a set of edges over a horizon.
type Generator struct {
	profile Profile
	scales  []float64 // per-edge mean peak demand
	rng     *rand.Rand
}

// Config parameterizes a Generator.
type Config struct {
	Edges int
	// MeanPeak is the average peak samples-per-slot across edges.
	MeanPeak float64
	// Spread >= 1 is the ratio between the busiest and quietest edge.
	Spread float64
}

// maxPeak bounds the busiest edge's scale, MeanPeak*sqrt(Spread). With the
// day factor's 10 % and the Poisson draw's tail on top, every count stays
// well inside an int32.
const maxPeak = 1 << 30

// NewGenerator builds a workload generator; per-edge scales are drawn
// log-uniformly over [MeanPeak/sqrt(Spread), MeanPeak*sqrt(Spread)].
func NewGenerator(cfg Config, rng *rand.Rand) (*Generator, error) {
	if cfg.Edges <= 0 {
		return nil, fmt.Errorf("workload: need at least one edge, got %d", cfg.Edges)
	}
	if !(cfg.MeanPeak > 0) {
		return nil, fmt.Errorf("workload: MeanPeak must be positive, got %g", cfg.MeanPeak)
	}
	if !(cfg.Spread >= 1) {
		return nil, fmt.Errorf("workload: Spread must be >= 1, got %g", cfg.Spread)
	}
	if top := cfg.MeanPeak * math.Sqrt(cfg.Spread); !(top <= maxPeak) {
		return nil, fmt.Errorf("workload: MeanPeak %g with Spread %g puts the busiest edge at %g samples a slot, above the bound %d",
			cfg.MeanPeak, cfg.Spread, top, maxPeak)
	}
	g := &Generator{profile: DefaultProfile(), rng: rng}
	g.scales = make([]float64, cfg.Edges)
	logSpread := math.Log(cfg.Spread)
	for i := range g.scales {
		// Log-uniform in [mean/sqrt(S), mean*sqrt(S)].
		u := float64(rng.Float64()) - 0.5
		g.scales[i] = cfg.MeanPeak * math.Exp(u*logSpread)
	}
	return g, nil
}

// Intensity returns the deterministic diurnal intensity (fraction of peak,
// in (0, 1]) for a slot index.
func (g *Generator) Intensity(slot int) float64 {
	p := g.profile
	day := slot % SlotsPerDay
	peak := func(center int) float64 {
		d := float64(day - center)
		return math.Exp(-d * d / (2 * p.PeakWidth * p.PeakWidth))
	}
	v := p.Base + float64((1-p.Base)*math.Max(peak(p.AMPeak), peak(p.PMPeak)))
	if v > 1 {
		v = 1
	}
	return v
}

// Draw returns the arrival counts M_i^t for every edge at one slot: a
// Poisson draw around scale_i * intensity(t) * dayFactor.
func (g *Generator) Draw(slot int) []int {
	intensity := g.Intensity(slot)
	dayFactor := 1 + float64(g.profile.DayJitter*math.Sin(2*math.Pi*float64(slot)/(SlotsPerDay*7)+float64(g.rng.NormFloat64()*0.05)))
	out := make([]int, len(g.scales))
	for i, s := range g.scales {
		mean := s * intensity * dayFactor
		if mean < 0 {
			mean = 0
		}
		out[i] = poisson(g.rng, mean)
	}
	return out
}

// Series draws the full horizon for all edges: result[t][i] = M_i^t.
func (g *Generator) Series(horizon int) [][]int {
	out := make([][]int, horizon)
	for t := range out {
		out[t] = g.Draw(t)
	}
	return out
}

// poisson draws from Poisson(mean) using Knuth's method for small means and
// a normal approximation for large ones.
func poisson(rng *rand.Rand, mean float64) int {
	if mean <= 0 {
		return 0
	}
	if mean > 50 {
		v := mean + float64(math.Sqrt(mean)*rng.NormFloat64())
		if v < 0 {
			return 0
		}
		return int(v + 0.5)
	}
	l := math.Exp(-mean)
	k, p := 0, 1.0
	for {
		p *= rng.Float64()
		if p <= l {
			return k
		}
		k++
	}
}
