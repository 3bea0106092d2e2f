// Package market simulates the carbon-allowance spot market of the paper's
// cap-and-trade program.
//
// The paper samples buying prices from EU Carbon Permit quotes between March
// 2023 and March 2024 (5.9–10.9 cent/kg) and sets the selling price to 90 %
// of the buying price. This package generates a mean-reverting random walk
// clamped to that band — Algorithm 2 makes no distributional assumption on
// prices, so any bounded fluctuating series within the paper's range
// exercises the same trade-offs — and keeps a ledger of every trade so the
// simulation can report spend, revenue, and the net allowance position.
package market

import (
	"fmt"
	"math"
	"math/rand"

	"github.com/carbonedge/carbonedge/internal/numeric"
)

// Paper-calibrated defaults (EUR cents per kg CO2).
const (
	// DefaultPriceMin and DefaultPriceMax bound the EU-permit-derived band.
	DefaultPriceMin = 5.9
	DefaultPriceMax = 10.9
	// DefaultSellRatio is the sell/buy price ratio from the paper.
	DefaultSellRatio = 0.9
)

// PriceConfig parameterizes the price process inside the paper's band.
type PriceConfig struct {
	// Reversion in (0, 1]: pull toward the band midpoint per slot.
	Reversion float64
	// Volatility is the per-slot Gaussian step, in price units.
	Volatility float64
	// ShockProb adds occasional jumps (set 0 to disable).
	ShockProb float64
	// ShockSize is the jump magnitude in price units.
	ShockSize float64
}

// DefaultPriceConfig returns the paper-calibrated configuration.
func DefaultPriceConfig() PriceConfig {
	return PriceConfig{Reversion: 0.05, Volatility: 0.35}
}

// Prices holds aligned buy/sell price series.
type Prices struct {
	Buy  []float64 // c^t
	Sell []float64 // r^t
}

// GeneratePrices produces a price series of the given horizon, clamped to
// [DefaultPriceMin, DefaultPriceMax] and sold at DefaultSellRatio.
func GeneratePrices(cfg PriceConfig, horizon int, rng *rand.Rand) (*Prices, error) {
	if horizon <= 0 {
		return nil, fmt.Errorf("market: non-positive horizon %d", horizon)
	}
	const mid = (DefaultPriceMin + DefaultPriceMax) / 2
	p := &Prices{Buy: make([]float64, horizon), Sell: make([]float64, horizon)}
	c := DefaultPriceMin + rng.Float64()*(DefaultPriceMax-DefaultPriceMin)
	for t := 0; t < horizon; t++ {
		c += cfg.Reversion*(mid-c) + cfg.Volatility*rng.NormFloat64()
		if cfg.ShockProb > 0 && rng.Float64() < cfg.ShockProb {
			sign := 1.0
			if rng.Float64() < 0.5 {
				sign = -1
			}
			c += sign * cfg.ShockSize
		}
		c = math.Min(DefaultPriceMax, math.Max(DefaultPriceMin, c))
		p.Buy[t] = c
		p.Sell[t] = c * DefaultSellRatio
	}
	return p, nil
}

// Horizon returns the series length.
func (p *Prices) Horizon() int { return len(p.Buy) }

// MeanBuy returns the mean buy quote over the first horizon slots (0 for
// none): the price scale Algorithm 2's step sizes and the Lyapunov trader are
// sized by.
func (p *Prices) MeanBuy(horizon int) float64 {
	avg := 0.0
	for _, c := range p.Buy[:horizon] {
		avg += c
	}
	if horizon > 0 {
		avg /= float64(horizon)
	}
	return avg
}

// Ledger records allowance trades and the resulting position.
type Ledger struct {
	initialCap float64

	bought, sold   float64 // allowance quantities
	spend, revenue float64 // money
	trades         int
}

// NewLedger creates a ledger seeded with the initial allowance cap R.
func NewLedger(initialCap float64) (*Ledger, error) {
	if !numeric.FiniteNonNeg(initialCap) {
		return nil, fmt.Errorf("market: invalid initial cap %g", initialCap)
	}
	return &Ledger{initialCap: initialCap}, nil
}

// Buy records purchasing qty allowances at unit price. Zero-quantity calls
// are ignored so callers can pass raw algorithm output.
func (l *Ledger) Buy(qty, price float64) error {
	if !numeric.FiniteNonNeg(qty) || !numeric.FiniteNonNeg(price) {
		return fmt.Errorf("market: invalid buy qty=%g price=%g", qty, price)
	}
	if qty == 0 {
		return nil
	}
	l.bought += qty
	l.spend += qty * price
	l.trades++
	return nil
}

// Sell records selling qty allowances at unit price.
func (l *Ledger) Sell(qty, price float64) error {
	if !numeric.FiniteNonNeg(qty) || !numeric.FiniteNonNeg(price) {
		return fmt.Errorf("market: invalid sell qty=%g price=%g", qty, price)
	}
	if qty == 0 {
		return nil
	}
	l.sold += qty
	l.revenue += qty * price
	l.trades++
	return nil
}

// Allowances returns the current allowance position R + bought - sold.
func (l *Ledger) Allowances() float64 { return l.initialCap + l.bought - l.sold }

// NetCost returns total spend minus revenue (the trading term of the paper's
// objective).
func (l *Ledger) NetCost() float64 { return l.spend - l.revenue }

// Bought returns total allowances purchased.
func (l *Ledger) Bought() float64 { return l.bought }

// Sold returns total allowances sold.
func (l *Ledger) Sold() float64 { return l.sold }

// Spend returns total money spent buying.
func (l *Ledger) Spend() float64 { return l.spend }

// Revenue returns total money earned selling.
func (l *Ledger) Revenue() float64 { return l.revenue }

// Trades returns the number of non-zero trades recorded.
func (l *Ledger) Trades() int { return l.trades }

// InitialCap returns the cap R the ledger was seeded with.
func (l *Ledger) InitialCap() float64 { return l.initialCap }
