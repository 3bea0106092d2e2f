// Package core assembles the paper's full online framework — per-edge
// switching-aware bandit model selection (Algorithm 1) plus online
// primal-dual carbon-allowance trading (Algorithm 2) — behind a single
// Controller with a strict per-slot protocol, so that a downstream system
// can drive real inference traffic through it without touching the
// algorithm internals.
//
// Per time slot the caller:
//
//  1. calls SelectModels to obtain the model placement x_{i,n}^t (one model
//     per edge; compare with the previous slot to know which edges must
//     download, i.e. y_i^t),
//  2. calls DecideTrade to obtain the allowance purchase/sale (z^t, w^t),
//  3. runs inference, measures per-edge average losses and the slot's total
//     carbon emission, and
//  4. calls CompleteSlotServed to feed the observations back.
//
// The controller enforces this ordering and is deterministic given its seed.
package core

import (
	"fmt"

	"github.com/carbonedge/carbonedge/internal/bandit"
	"github.com/carbonedge/carbonedge/internal/numeric"
	"github.com/carbonedge/carbonedge/internal/trading"
)

// Config parameterizes a Controller.
type Config struct {
	// NumModels is N, the size of the cloud's model set.
	NumModels int
	// DownloadCosts holds u_i for each edge (defines the number of edges).
	DownloadCosts []float64
	// Horizon is T, the number of slots the controller will run.
	Horizon int
	// InitialCap is the allowance cap R.
	InitialCap float64
	// EmissionScale is the expected per-slot system emission, used to scale
	// Algorithm 2's step sizes; PriceScale is the expected allowance price
	// magnitude. Zero values default to 1.
	EmissionScale float64
	PriceScale    float64
	// Seed drives all sampling.
	Seed int64
}

// phase tracks the per-slot protocol position.
type phase int

const (
	phaseSelect phase = iota + 1
	phaseTrade
	phaseComplete
)

// Controller is the paper's joint online algorithm.
type Controller struct {
	policies []bandit.Policy
	trader   trading.Trader

	slot    int
	state   phase
	current []int
	prev    []int
	trade   trading.Decision
	quote   trading.Quote
}

// validate checks the configuration fields shared by both constructors.
func (cfg *Config) validate() error {
	if cfg.NumModels <= 0 {
		return fmt.Errorf("core: NumModels must be positive, got %d", cfg.NumModels)
	}
	if len(cfg.DownloadCosts) == 0 {
		return fmt.Errorf("core: need at least one edge")
	}
	if cfg.Horizon <= 0 {
		return fmt.Errorf("core: Horizon must be positive, got %d", cfg.Horizon)
	}
	if !numeric.FiniteNonNeg(cfg.InitialCap) {
		return fmt.Errorf("core: invalid InitialCap %g", cfg.InitialCap)
	}
	if !numeric.FiniteNonNeg(cfg.EmissionScale) || !numeric.FiniteNonNeg(cfg.PriceScale) {
		return fmt.Errorf("core: invalid scale hints emission=%g price=%g", cfg.EmissionScale, cfg.PriceScale)
	}
	for i, u := range cfg.DownloadCosts {
		if u < 0 {
			return fmt.Errorf("core: negative download cost u[%d]=%g", i, u)
		}
	}
	return nil
}

// newController assembles the protocol state around validated components.
func newController(policies []bandit.Policy, trader trading.Trader) *Controller {
	c := &Controller{
		policies: policies,
		trader:   trader,
		current:  make([]int, len(policies)),
		prev:     make([]int, len(policies)),
		state:    phaseSelect,
	}
	for i := range c.prev {
		c.prev[i] = -1
	}
	return c
}

// New creates a Controller running the paper's own algorithms: Algorithm 1
// (BlockedTsallisINF) on every edge and Algorithm 2 (PrimalDual) for
// trading, with Theorem-2 step sizes derived from the scale hints.
func New(cfg Config) (*Controller, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.EmissionScale == 0 {
		cfg.EmissionScale = 1
	}
	if cfg.PriceScale == 0 {
		cfg.PriceScale = 1
	}

	policies := make([]bandit.Policy, len(cfg.DownloadCosts))
	for i, u := range cfg.DownloadCosts {
		p, err := bandit.NewBlockedTsallisINF(cfg.NumModels, u,
			numeric.SplitRNG(cfg.Seed, fmt.Sprintf("core-policy-%d", i)))
		if err != nil {
			return nil, fmt.Errorf("edge %d policy: %w", i, err)
		}
		policies[i] = p
	}
	trader, err := trading.NewPrimalDual(trading.ScaledPrimalDualConfig(
		cfg.InitialCap, cfg.Horizon, cfg.EmissionScale, cfg.PriceScale, 1))
	if err != nil {
		return nil, fmt.Errorf("trader: %w", err)
	}
	return newController(policies, trader), nil
}

// NewWithComponents creates a Controller that drives caller-supplied
// per-edge policies and a caller-supplied trader through the same strict
// slot protocol. This is how the simulator runs the paper's baseline
// combinations (Ran-Ran, UCB-LY, ...) and the clairvoyant Offline scheme
// through the one shared engine: the protocol stays identical regardless of
// the algorithms inside.
func NewWithComponents(cfg Config, policies []bandit.Policy, trader trading.Trader) (*Controller, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if len(policies) != len(cfg.DownloadCosts) {
		return nil, fmt.Errorf("core: %d policies for %d edges", len(policies), len(cfg.DownloadCosts))
	}
	if trader == nil {
		return nil, fmt.Errorf("core: nil trader")
	}
	for i, p := range policies {
		if p == nil {
			return nil, fmt.Errorf("core: nil policy for edge %d", i)
		}
		if p.NumArms() != cfg.NumModels {
			return nil, fmt.Errorf("core: edge %d policy has %d arms, config wants %d", i, p.NumArms(), cfg.NumModels)
		}
	}
	return newController(policies, trader), nil
}

// NumEdges returns the number of edges I.
func (c *Controller) NumEdges() int { return len(c.policies) }

// SelectModels starts a slot and returns the model index for every edge.
// The returned slice is owned by the caller.
func (c *Controller) SelectModels() ([]int, error) {
	if c.state != phaseSelect {
		return nil, fmt.Errorf("core: SelectModels called out of order (state %d)", c.state)
	}
	out := make([]int, len(c.policies))
	for i, p := range c.policies {
		c.current[i] = p.SelectArm()
		out[i] = c.current[i]
	}
	c.state = phaseTrade
	return out, nil
}

// Downloads reports, after SelectModels, which edges must download a new
// model this slot (y_i^t = 1).
func (c *Controller) Downloads() ([]bool, error) {
	if c.state != phaseTrade && c.state != phaseComplete {
		return nil, fmt.Errorf("core: Downloads called before SelectModels")
	}
	out := make([]bool, len(c.policies))
	for i := range out {
		out[i] = c.current[i] != c.prev[i]
	}
	return out, nil
}

// DecideTrade returns (z^t, w^t) for the slot. The quote is recorded for the
// trader's history; Algorithm 2 does not use the current slot's prices.
func (c *Controller) DecideTrade(q trading.Quote) (trading.Decision, error) {
	if c.state != phaseTrade {
		return trading.Decision{}, fmt.Errorf("core: DecideTrade called out of order (state %d)", c.state)
	}
	c.trade = c.trader.Decide(c.slot, q)
	c.quote = q
	c.state = phaseComplete
	return c.trade, nil
}

// CompleteSlotServed feeds back the per-edge observed losses (the paper's
// L_{i,n}^t + v_{i,n}) and the slot's total emission, then advances to the
// next slot. served is the per-edge mask of degraded runs: an edge whose slot
// was never served (served[i] == false) gives its policy no loss feedback —
// its Skip is called instead, so importance-weighted estimators stay unbiased
// over the slots actually served. A nil mask means every edge served.
func (c *Controller) CompleteSlotServed(losses []float64, served []bool, emission float64) error {
	if c.state != phaseComplete {
		return fmt.Errorf("core: CompleteSlotServed called out of order (state %d)", c.state)
	}
	if len(losses) != len(c.policies) {
		return fmt.Errorf("core: got %d losses for %d edges", len(losses), len(c.policies))
	}
	if served != nil && len(served) != len(c.policies) {
		return fmt.Errorf("core: got %d served flags for %d edges", len(served), len(c.policies))
	}
	if !numeric.FiniteNonNeg(emission) {
		return fmt.Errorf("core: invalid emission %g", emission)
	}
	for i, p := range c.policies {
		if served == nil || served[i] {
			p.Update(losses[i])
		} else {
			p.Skip()
		}
		c.prev[i] = c.current[i]
	}
	c.trader.Observe(c.slot, emission, c.quote, c.trade)
	c.slot++
	c.state = phaseSelect
	return nil
}

// Lambda returns Algorithm 2's dual multiplier (diagnostics); 0 when the
// installed trader exposes no dual variable.
func (c *Controller) Lambda() float64 {
	if l, ok := c.trader.(interface{ Lambda() float64 }); ok {
		return l.Lambda()
	}
	return 0
}
