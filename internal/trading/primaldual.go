package trading

import (
	"fmt"
	"math"

	"github.com/carbonedge/carbonedge/internal/numeric"
)

// PrimalDual is the paper's Algorithm 2: rectified online primal-dual
// carbon trading.
//
// At slot t it solves the proximal one-shot problem P2^t
//
//	min_{Z in X}  grad f^{t-1}(Z1bar)·(Z - Zbar) + lambda^t g^{t-1}(Z)
//	              + ||Z - Zbar||^2 / (2*gamma2)
//
// whose solution is the closed-form rectified step
//
//	z^t = clamp(zbar - gamma2*(c^{t-1} - lambda^t), 0, ZMax)
//	w^t = clamp(wbar - gamma2*(lambda^t - r^{t-1}), 0, ZMax)
//
// followed, after the slot's emission is realized, by the dual ascent
//
//	lambda^{t+1} = [lambda^t + gamma1 * g^t(Z^t)]^+.
//
// Only information strictly before t enters the decision — no current or
// future prices/emissions — which is the algorithm's headline property.
// ZMax bounds the feasible set (the paper's Assumption 2).
type PrimalDual struct {
	cfg PrimalDualConfig

	lambda   float64
	zBar     Decision // previous decision Zbar^{t-1}
	prevQ    Quote    // prices of slot t-1
	havePrev bool
}

var _ Trader = (*PrimalDual)(nil)

// PrimalDualConfig parameterizes Algorithm 2.
type PrimalDualConfig struct {
	// InitialCap is the allowance cap R; Horizon is T. The per-slot
	// apportioning R/T enters g^t.
	InitialCap float64
	Horizon    int
	// Gamma1 and Gamma2 are the dual and primal step sizes. Theorem 2
	// suggests O(T^{-1/3}) scaling; DefaultPrimalDualConfig applies it.
	Gamma1, Gamma2 float64
	// ZMax caps single-slot trade volume, bounding the feasible set.
	ZMax float64
}

// DefaultPrimalDualConfig returns Theorem-2-scaled step sizes for a given
// cap, horizon, and a rough per-slot emission scale (e.g. the cap/horizon).
func DefaultPrimalDualConfig(initialCap float64, horizon int) PrimalDualConfig {
	tCube := math.Pow(float64(horizon), -1.0/3.0)
	scale := 1.0
	if initialCap > 0 && horizon > 0 {
		scale = initialCap / float64(horizon)
		if scale <= 0 {
			scale = 1
		}
	}
	return PrimalDualConfig{
		InitialCap: initialCap,
		Horizon:    horizon,
		// The dual step converts constraint mass (kg) into price units; the
		// primal step converts price units into trade volume. Scaling both
		// by T^{-1/3} delivers the sub-linear regret/fit of Theorem 2.
		Gamma1: 4 * tCube / scale,
		Gamma2: 4 * tCube * scale,
		ZMax:   20 * scale * math.Sqrt(float64(horizon)),
	}
}

// ScaledPrimalDualConfig returns Theorem 2's T^{-1/3} step sizes scaled to a
// run's magnitudes: emission is the expected per-slot emission and price the
// expected allowance price, both positive. The dual step converts grams of
// violation into price units and the primal step price units into trade
// volume; mult multiplies both (1 is the paper's; the step-size ablation
// sweeps it). ZMax caps one slot's trade at twenty slots' emission.
func ScaledPrimalDualConfig(initialCap float64, horizon int, emission, price, mult float64) PrimalDualConfig {
	tCube := 1.0 / math.Cbrt(float64(horizon))
	return PrimalDualConfig{
		InitialCap: initialCap,
		Horizon:    horizon,
		Gamma1:     4 * tCube * price / emission * mult,
		Gamma2:     4 * tCube * emission / price * mult,
		ZMax:       20 * emission,
	}
}

// NewPrimalDual creates Algorithm 2.
func NewPrimalDual(cfg PrimalDualConfig) (*PrimalDual, error) {
	if cfg.Horizon <= 0 {
		return nil, fmt.Errorf("trading: horizon must be positive, got %d", cfg.Horizon)
	}
	if cfg.InitialCap < 0 {
		return nil, fmt.Errorf("trading: negative initial cap %g", cfg.InitialCap)
	}
	if cfg.Gamma1 <= 0 || cfg.Gamma2 <= 0 {
		return nil, fmt.Errorf("trading: step sizes must be positive, got gamma1=%g gamma2=%g", cfg.Gamma1, cfg.Gamma2)
	}
	if cfg.ZMax <= 0 {
		return nil, fmt.Errorf("trading: ZMax must be positive, got %g", cfg.ZMax)
	}
	return &PrimalDual{cfg: cfg}, nil
}

// CapPerSlot returns R/T.
func (p *PrimalDual) CapPerSlot() float64 {
	return p.cfg.InitialCap / float64(p.cfg.Horizon)
}

// Lambda returns the current dual multiplier (diagnostics).
func (p *PrimalDual) Lambda() float64 { return p.lambda }

// Decide implements Trader. The quote argument is intentionally unused:
// Algorithm 2 decides from information strictly before t.
func (p *PrimalDual) Decide(int, Quote) Decision {
	return p.step(p.prevQ.Buy, p.prevQ.Sell)
}

// step is Algorithm 2's rectified primal step at buy price c and sell price
// r: the last observed quote's for the vanilla trader, a forecast's for the
// predictive one.
func (p *PrimalDual) step(c, r float64) Decision {
	if !p.havePrev {
		// Z^0: no history yet; start from the initial decision (0, 0).
		return Decision{}
	}
	z := p.zBar.Buy - float64(p.cfg.Gamma2*(c-p.lambda))
	w := p.zBar.Sell - float64(p.cfg.Gamma2*(p.lambda-r))
	return Decision{
		Buy:  numeric.Clamp(z, 0, p.cfg.ZMax),
		Sell: numeric.Clamp(w, 0, p.cfg.ZMax),
	}
}

// Observe implements Trader: dual ascent on the realized constraint gap.
func (p *PrimalDual) Observe(_ int, emission float64, q Quote, d Decision) {
	gap := ConstraintGap(emission, p.CapPerSlot(), d)
	p.lambda = numeric.Positive(p.lambda + float64(p.cfg.Gamma1*gap))
	p.zBar = d
	p.prevQ = q
	p.havePrev = true
}
