// Package sim is the discrete-time simulation engine that wires every
// substrate together — download delays, workload, carbon market, model zoo — and
// drives any combination of model-selection policy and carbon trader through
// the paper's per-slot protocol (Fig. 2 plus allowance trading), recording
// the cost breakdown, emissions, accuracy, and constraint violation needed
// to regenerate the paper's figures.
package sim

import (
	"fmt"
	"math"
	"math/rand"

	"github.com/carbonedge/carbonedge/internal/market"
	"github.com/carbonedge/carbonedge/internal/models"
	"github.com/carbonedge/carbonedge/internal/numeric"
	"github.com/carbonedge/carbonedge/internal/workload"
)

// Config parameterizes one scenario.
type Config struct {
	// Edges is the number of edge sites I; Horizon is the number of time
	// slots T (the paper: 10-50 edges, 160 slots of 15 minutes).
	Edges   int
	Horizon int
	// Seed drives every random stream.
	Seed int64
	// InitialCap is the pre-allocated allowance cap R, in grams of CO2.
	InitialCap float64
	// EmissionRate is rho in grams CO2 per kWh (paper: 500 g/kWh).
	EmissionRate float64
	// SwitchWeight scales the per-edge download cost u_i in both the cost
	// accounting and the algorithms' inputs (the Fig. 5 sweep).
	SwitchWeight float64
	// MeanPeakWorkload is the average peak samples-per-slot per edge.
	MeanPeakWorkload float64
	// Prices configures the allowance price process; the zero value takes
	// market.DefaultPriceConfig.
	Prices market.PriceConfig
}

// workloadSpread is the busiest/quietest edge ratio of the generated workload.
const workloadSpread = 5

// DefaultConfig mirrors the paper's default setting at a laptop-friendly
// workload scale.
func DefaultConfig(edges int) Config {
	return Config{
		Edges:            edges,
		Horizon:          160,
		Seed:             1,
		InitialCap:       3,
		EmissionRate:     500,
		SwitchWeight:     1,
		MeanPeakWorkload: 200,
		Prices:           market.DefaultPriceConfig(),
	}
}

// Scenario is a fully materialized input instance: everything random is
// pre-drawn so that every policy/trader combination faces the identical
// workload, prices, topology, and model zoo.
type Scenario struct {
	Cfg Config
	Zoo models.Zoo

	// Delays holds the (switch-weight-scaled) download costs u_i.
	Delays []float64
	// CompCost[i][n] is v_{i,n}: the posterior computation cost of model n
	// on edge i (base latency x per-edge speed factor).
	CompCost [][]float64
	// Workload[t][i] is M_i^t.
	Workload [][]int
	// Prices holds c^t and r^t.
	Prices *market.Prices
	// streamRNGs[i] samples data indices for edge i. A run draws
	// Workload[t][i] of them per slot whatever model serves, so the k-th
	// combination played on a scenario sees the k-th window of each stream.
	streamRNGs []*rand.Rand
}

// NewScenario materializes a scenario over a prebuilt model zoo (zoos are
// expensive to train, so callers share them across scenarios).
func NewScenario(cfg Config, zoo models.Zoo) (*Scenario, error) {
	return NewScenarioWithTraces(cfg, zoo, nil, nil)
}

// NewScenarioWithTraces materializes a scenario with caller-provided
// workload and/or price traces (e.g. loaded from CSV via internal/trace)
// instead of the synthetic generators. A nil trace falls back to the
// generator. Trace dimensions must match cfg (Horizon slots; Edges columns
// for the workload).
func NewScenarioWithTraces(cfg Config, zoo models.Zoo, workloadTrace [][]int, priceTrace *market.Prices) (*Scenario, error) {
	if cfg.Edges <= 0 || cfg.Horizon <= 0 {
		return nil, fmt.Errorf("sim: need positive edges/horizon, got %d/%d", cfg.Edges, cfg.Horizon)
	}
	if !numeric.FiniteNonNeg(cfg.InitialCap) || !numeric.FiniteNonNeg(cfg.EmissionRate) {
		return nil, fmt.Errorf("sim: invalid cap %g or emission rate %g", cfg.InitialCap, cfg.EmissionRate)
	}
	if !numeric.FiniteNonNeg(cfg.SwitchWeight) {
		return nil, fmt.Errorf("sim: invalid switch weight %g", cfg.SwitchWeight)
	}
	if zoo == nil {
		return nil, fmt.Errorf("sim: nil zoo")
	}
	if cfg.Prices == (market.PriceConfig{}) {
		cfg.Prices = market.DefaultPriceConfig()
	}

	wlSeries := workloadTrace
	if wlSeries == nil {
		wl, err := workload.NewGenerator(workload.Config{
			Edges:    cfg.Edges,
			MeanPeak: cfg.MeanPeakWorkload,
			Spread:   workloadSpread,
		}, numeric.SplitRNG(cfg.Seed, "workload"))
		if err != nil {
			return nil, fmt.Errorf("workload: %w", err)
		}
		wlSeries = wl.Series(cfg.Horizon)
	} else {
		if len(wlSeries) != cfg.Horizon {
			return nil, fmt.Errorf("sim: workload trace has %d slots, config wants %d", len(wlSeries), cfg.Horizon)
		}
		for t, row := range wlSeries {
			if len(row) != cfg.Edges {
				return nil, fmt.Errorf("sim: workload trace slot %d has %d edges, config wants %d", t, len(row), cfg.Edges)
			}
		}
	}

	prices := priceTrace
	if prices == nil {
		var err error
		prices, err = market.GeneratePrices(cfg.Prices, cfg.Horizon, numeric.SplitRNG(cfg.Seed, "market"))
		if err != nil {
			return nil, fmt.Errorf("market: %w", err)
		}
	} else if prices.Horizon() != cfg.Horizon {
		return nil, fmt.Errorf("sim: price trace has %d slots, config wants %d", prices.Horizon(), cfg.Horizon)
	}

	s := &Scenario{
		Cfg:      cfg,
		Zoo:      zoo,
		Delays:   edgeDelays(cfg.Edges, numeric.SplitRNG(cfg.Seed, "topology")),
		CompCost: make([][]float64, cfg.Edges),
		Workload: wlSeries,
		Prices:   prices,
	}
	speedRNG := numeric.SplitRNG(cfg.Seed, "edge-speed")
	for i := 0; i < cfg.Edges; i++ {
		s.Delays[i] *= cfg.SwitchWeight
		speed := 0.8 + 0.45*speedRNG.Float64() // heterogeneous edge hardware
		s.CompCost[i] = make([]float64, zoo.NumModels())
		for n := 0; n < zoo.NumModels(); n++ {
			s.CompCost[i][n] = zoo.Info(n).BaseLatencySec * speed
		}
	}
	s.streamRNGs = make([]*rand.Rand, cfg.Edges)
	for i := range s.streamRNGs {
		s.streamRNGs[i] = numeric.SplitRNG(cfg.Seed, fmt.Sprintf("stream-%d", i))
	}
	return s, nil
}

// The download-delay model. The paper places edges at Australian cellular
// base stations and estimates network delay from geographic distance;
// offline, edges are uniform in a box around a Northern-Territory-like cloud
// site, and great-circle distance maps linearly to seconds of download delay
// per unit model size — heterogeneous switching costs u_i across edges.
const (
	boxKm      = 400   // half-width of the deployment box around the cloud
	delayPerKm = 0.004 // 4 ms per km
	baseDelay  = 0.05  // 50 ms floor
)

// edgeDelays draws edges sites from rng and returns each one's download
// delay u_i in seconds: base latency plus distance-proportional transfer
// time.
func edgeDelays(edges int, rng *rand.Rand) []float64 {
	cloudLat, cloudLon := -12.46, 130.84 // Northern Territory, Australia
	const kmPerDegLat = 111.0
	kmPerDegLon := kmPerDegLat * math.Cos(cloudLat*math.Pi/180)
	delays := make([]float64, edges)
	for i := range delays {
		dLatKm := (rng.Float64()*2 - 1) * boxKm
		dLonKm := (rng.Float64()*2 - 1) * boxKm
		d := greatCircleKm(cloudLat, cloudLon, cloudLat+dLatKm/kmPerDegLat, cloudLon+dLonKm/kmPerDegLon)
		delays[i] = baseDelay + delayPerKm*d
	}
	return delays
}

// greatCircleKm returns the great-circle distance in km between two points
// given in degrees (haversine formula, mean Earth radius).
func greatCircleKm(lat1, lon1, lat2, lon2 float64) float64 {
	const earthRadiusKm = 6371.0
	rad := math.Pi / 180
	dLat := (lat2 - lat1) * rad
	dLon := (lon2 - lon1) * rad
	h := math.Sin(dLat/2)*math.Sin(dLat/2) +
		math.Cos(lat1*rad)*math.Cos(lat2*rad)*math.Sin(dLon/2)*math.Sin(dLon/2)
	return 2 * earthRadiusKm * math.Asin(math.Min(1, math.Sqrt(h)))
}

// NumModels returns the zoo size N.
func (s *Scenario) NumModels() int { return s.Zoo.NumModels() }

// MeanEmissionPerSlot estimates the average per-slot emission (grams) under
// a mid-quality model, used to scale trader step sizes.
func (s *Scenario) MeanEmissionPerSlot() float64 {
	totalSamples := 0
	for _, row := range s.Workload {
		for _, m := range row {
			totalSamples += m
		}
	}
	avgPhi := 0.0
	for n := 0; n < s.Zoo.NumModels(); n++ {
		avgPhi += s.Zoo.Info(n).PhiKWh
	}
	avgPhi /= float64(s.Zoo.NumModels())
	kwh := avgPhi * float64(totalSamples)
	return kwh * s.Cfg.EmissionRate / float64(s.Cfg.Horizon)
}

// BestArm returns the hindsight-optimal model for edge i:
// argmin_n E[l_n] + v_{i,n}.
func (s *Scenario) BestArm(i int) int {
	best, bestVal := 0, s.Zoo.MeanLoss(0)+s.CompCost[i][0]
	for n := 1; n < s.Zoo.NumModels(); n++ {
		if v := s.Zoo.MeanLoss(n) + s.CompCost[i][n]; v < bestVal {
			best, bestVal = n, v
		}
	}
	return best
}
