// Package sim is the discrete-time simulation engine that wires every
// substrate together — topology, workload, carbon market, model zoo — and
// drives any combination of model-selection policy and carbon trader through
// the paper's per-slot protocol (Fig. 2 plus allowance trading), recording
// the cost breakdown, emissions, accuracy, and constraint violation needed
// to regenerate the paper's figures.
package sim

import (
	"fmt"
	"math/rand"

	"github.com/carbonedge/carbonedge/internal/market"
	"github.com/carbonedge/carbonedge/internal/models"
	"github.com/carbonedge/carbonedge/internal/numeric"
	"github.com/carbonedge/carbonedge/internal/topology"
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
	// PriceScale multiplies the generated allowance prices, converting the
	// paper's cent/kg quotes into cost units per gram at a magnitude where
	// the trading term is visible next to the inference terms.
	PriceScale float64
	// MeanPeakWorkload is the average peak samples-per-slot per edge;
	// WorkloadSpread the busiest/quietest ratio.
	MeanPeakWorkload float64
	WorkloadSpread   float64
	// Price and topology configuration; zero values take defaults.
	Prices market.PriceConfig
	Topo   topology.Config
}

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
		PriceScale:       1,
		MeanPeakWorkload: 200,
		WorkloadSpread:   5,
		Prices:           market.DefaultPriceConfig(),
		Topo:             topology.DefaultConfig(edges),
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
	// Prices holds c^t and r^t (already scaled by PriceScale).
	Prices *market.Prices
	// streamRNGs[i] samples data indices for edge i.
	streamRNGs []*rand.Rand

	// streamPre/streamPos implement pre-drawn stream windows (ComboViews):
	// when streamPre is non-nil, edge i's stream draws come from
	// streamPre[i] at cursor streamPos[i] instead of streamRNGs. Different
	// edges touch disjoint cursor elements, so the per-edge parallel engine
	// needs no extra coordination.
	streamPre [][]int
	streamPos []int
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
// for the workload); prices are used as-is, NOT rescaled by PriceScale.
func NewScenarioWithTraces(cfg Config, zoo models.Zoo, workloadTrace [][]int, priceTrace *market.Prices) (*Scenario, error) {
	if cfg.Edges <= 0 || cfg.Horizon <= 0 {
		return nil, fmt.Errorf("sim: need positive edges/horizon, got %d/%d", cfg.Edges, cfg.Horizon)
	}
	if cfg.InitialCap < 0 || cfg.EmissionRate < 0 {
		return nil, fmt.Errorf("sim: negative cap or emission rate")
	}
	if cfg.SwitchWeight < 0 {
		return nil, fmt.Errorf("sim: negative switch weight")
	}
	if cfg.PriceScale <= 0 {
		return nil, fmt.Errorf("sim: PriceScale must be positive")
	}
	if zoo == nil {
		return nil, fmt.Errorf("sim: nil zoo")
	}
	if cfg.Prices == (market.PriceConfig{}) {
		cfg.Prices = market.DefaultPriceConfig()
	}
	if cfg.Topo == (topology.Config{}) {
		cfg.Topo = topology.DefaultConfig(cfg.Edges)
	}
	cfg.Topo.Edges = cfg.Edges

	topo, err := topology.Generate(cfg.Topo, numeric.SplitRNG(cfg.Seed, "topology"))
	if err != nil {
		return nil, fmt.Errorf("topology: %w", err)
	}

	wlSeries := workloadTrace
	if wlSeries == nil {
		wl, err := workload.NewGenerator(workload.Config{
			Edges:    cfg.Edges,
			MeanPeak: cfg.MeanPeakWorkload,
			Spread:   cfg.WorkloadSpread,
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
		prices, err = market.GeneratePrices(cfg.Prices, cfg.Horizon, numeric.SplitRNG(cfg.Seed, "market"))
		if err != nil {
			return nil, fmt.Errorf("market: %w", err)
		}
		for t := range prices.Buy {
			prices.Buy[t] *= cfg.PriceScale
			prices.Sell[t] *= cfg.PriceScale
		}
	} else if prices.Horizon() != cfg.Horizon {
		return nil, fmt.Errorf("sim: price trace has %d slots, config wants %d", prices.Horizon(), cfg.Horizon)
	}

	s := &Scenario{
		Cfg:      cfg,
		Zoo:      zoo,
		Delays:   make([]float64, cfg.Edges),
		CompCost: make([][]float64, cfg.Edges),
		Workload: wlSeries,
		Prices:   prices,
	}
	speedRNG := numeric.SplitRNG(cfg.Seed, "edge-speed")
	for i := 0; i < cfg.Edges; i++ {
		s.Delays[i] = topo.Delay(i) * cfg.SwitchWeight
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

// ComboViews splits the scenario into k views that can each play exactly
// one policy/trader combination (one Run/RunWorkers or one Offline call),
// concurrently if desired, with stream draws bit-identical to running the
// k combos sequentially on the receiver.
//
// Why this is sound: every combo steps every edge in every slot, so one
// combo consumes exactly D_i = sum_t Workload[t][i] draws from edge i's
// stream RNG — regardless of which models the combo picks. Sequential
// combos therefore see consecutive D_i-sized windows of the stream.
// ComboViews pre-draws k*D_i values per edge (advancing the receiver's
// RNGs just as k sequential combos would) and hands view j the j-th
// window. Views share the scenario's immutable inputs (zoo, workload,
// prices, costs); each owns only its windows and cursors.
//
// A view must play at most one combo: a second run on the same view would
// read past its window and panic. The receiver's own RNGs remain usable
// afterwards and continue where the k windows ended.
func (s *Scenario) ComboViews(k int) []*Scenario {
	if k <= 0 {
		return nil
	}
	pool := s.Zoo.PoolSize()
	draws := make([][]int, s.Cfg.Edges)
	perCombo := make([]int, s.Cfg.Edges)
	for i := 0; i < s.Cfg.Edges; i++ {
		d := 0
		for t := range s.Workload {
			d += s.Workload[t][i]
		}
		perCombo[i] = d
		buf := make([]int, k*d)
		if s.streamPre != nil {
			// Views of a view: carve the parent's remaining window.
			pos := s.streamPos[i]
			copy(buf, s.streamPre[i][pos:pos+k*d])
			s.streamPos[i] = pos + k*d
		} else {
			for j := range buf {
				buf[j] = s.streamRNGs[i].Intn(pool)
			}
		}
		draws[i] = buf
	}
	views := make([]*Scenario, k)
	for v := 0; v < k; v++ {
		clone := *s
		clone.streamPre = make([][]int, s.Cfg.Edges)
		clone.streamPos = make([]int, s.Cfg.Edges)
		for i := range clone.streamPre {
			d := perCombo[i]
			clone.streamPre[i] = draws[i][v*d : (v+1)*d]
		}
		views[v] = &clone
	}
	return views
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
