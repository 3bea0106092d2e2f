package trading

import (
	"fmt"
	"math/rand"

	"github.com/carbonedge/carbonedge/internal/numeric"
)

// RandomTrader buys and sells uniformly random quantities each slot (paper
// baseline "Random"). Its decisions are unrelated to workload, price level,
// or the cap — exactly the behavior Figs. 7 and 9 attribute to "-Ran"
// combinations.
type RandomTrader struct {
	maxQty float64
	rng    *rand.Rand
}

var _ Trader = (*RandomTrader)(nil)

// NewRandomTrader creates the Random baseline trading up to maxQty per side
// per slot.
func NewRandomTrader(maxQty float64, rng *rand.Rand) (*RandomTrader, error) {
	if maxQty <= 0 {
		return nil, fmt.Errorf("trading: maxQty must be positive, got %g", maxQty)
	}
	return &RandomTrader{maxQty: maxQty, rng: rng}, nil
}

// Decide implements Trader.
func (r *RandomTrader) Decide(int, Quote) Decision {
	return Decision{
		Buy:  r.rng.Float64() * r.maxQty,
		Sell: r.rng.Float64() * r.maxQty,
	}
}

// Observe implements Trader.
func (r *RandomTrader) Observe(int, float64, Quote, Decision) {}

// ThresholdTrader buys a fixed quantity whenever the buy price is below a
// threshold and sells a fixed quantity whenever the sell price is above a
// threshold (paper baseline "Threshold"). Like Random, it ignores workload
// and cap.
type ThresholdTrader struct {
	buyBelow, sellAbove float64
	buyQty, sellQty     float64
}

var _ Trader = (*ThresholdTrader)(nil)

// NewThresholdTrader creates the Threshold baseline.
func NewThresholdTrader(buyBelow, buyQty, sellAbove, sellQty float64) (*ThresholdTrader, error) {
	if buyQty < 0 || sellQty < 0 {
		return nil, fmt.Errorf("trading: negative quantities buy=%g sell=%g", buyQty, sellQty)
	}
	return &ThresholdTrader{
		buyBelow:  buyBelow,
		sellAbove: sellAbove,
		buyQty:    buyQty,
		sellQty:   sellQty,
	}, nil
}

// Decide implements Trader.
func (t *ThresholdTrader) Decide(_ int, q Quote) Decision {
	var d Decision
	if q.Buy < t.buyBelow {
		d.Buy = t.buyQty
	}
	if q.Sell > t.sellAbove {
		d.Sell = t.sellQty
	}
	return d
}

// Observe implements Trader.
func (t *ThresholdTrader) Observe(int, float64, Quote, Decision) {}

// LyapunovTrader is the paper's state-of-the-art comparison (Yang et al.,
// GLOBECOM 2022 style): drift-plus-penalty with a virtual queue Q^t that
// tracks cumulative constraint violation. Each slot it minimizes
// V*f^t(Z) + Q^t*(-z + w) over the box [0, ZMax]^2, whose bang-bang solution
// buys at full rate when the queue pressure exceeds the V-weighted price and
// sells when the V-weighted sell price exceeds the queue pressure. The queue
// is updated with the realized constraint gap.
type LyapunovTrader struct {
	v          float64 // penalty weight V
	zMax       float64
	capPerSlot float64

	queue float64
}

var _ Trader = (*LyapunovTrader)(nil)

// NewLyapunovTrader creates the Lyapunov baseline. v > 0 trades off cost
// against queue (constraint) pressure; zMax caps per-slot volume.
func NewLyapunovTrader(v, zMax, initialCap float64, horizon int) (*LyapunovTrader, error) {
	if v <= 0 {
		return nil, fmt.Errorf("trading: V must be positive, got %g", v)
	}
	if zMax <= 0 {
		return nil, fmt.Errorf("trading: zMax must be positive, got %g", zMax)
	}
	if horizon <= 0 {
		return nil, fmt.Errorf("trading: horizon must be positive, got %d", horizon)
	}
	if initialCap < 0 {
		return nil, fmt.Errorf("trading: negative cap %g", initialCap)
	}
	return &LyapunovTrader{v: v, zMax: zMax, capPerSlot: initialCap / float64(horizon)}, nil
}

// Decide implements Trader.
func (l *LyapunovTrader) Decide(_ int, q Quote) Decision {
	var d Decision
	// d/dz [V*c*z - Q*z] = V*c - Q: buy at full rate when negative.
	if l.queue > l.v*q.Buy {
		d.Buy = l.zMax
	}
	// d/dw [-V*r*w + Q*w] = -V*r + Q: sell at full rate when negative.
	if l.v*q.Sell > l.queue {
		d.Sell = l.zMax
	}
	return d
}

// Observe implements Trader: queue update with the realized gap.
func (l *LyapunovTrader) Observe(_ int, emission float64, _ Quote, d Decision) {
	gap := ConstraintGap(emission, l.capPerSlot, d)
	l.queue = numeric.Positive(l.queue + gap)
}

// OneShotTrader plays the clairvoyant per-slot optimum: it observes the
// slot's emission before deciding (unlike every online trader) and trades
// exactly the deficit/surplus. It realizes the comparator sequence of
// Theorem 2 and is used for regret accounting and the Offline scheme.
type OneShotTrader struct {
	capPerSlot float64
	emissions  []float64
}

var _ Trader = (*OneShotTrader)(nil)

// NewOneShotTrader creates the clairvoyant per-slot trader over a known
// emission series.
func NewOneShotTrader(emissions []float64, initialCap float64) (*OneShotTrader, error) {
	if len(emissions) == 0 {
		return nil, fmt.Errorf("trading: empty emission series")
	}
	e := make([]float64, len(emissions))
	copy(e, emissions)
	return &OneShotTrader{
		capPerSlot: initialCap / float64(len(emissions)),
		emissions:  e,
	}, nil
}

// Decide implements Trader.
func (o *OneShotTrader) Decide(t int, q Quote) Decision {
	if t < 0 || t >= len(o.emissions) {
		return Decision{}
	}
	return OneShotOptimum(o.emissions[t], o.capPerSlot, q)
}

// Observe implements Trader.
func (o *OneShotTrader) Observe(int, float64, Quote, Decision) {}

// NullTrader never trades. It lets a slot driver run the full protocol when
// trading is decided outside the loop — the clairvoyant Offline scheme runs
// the engine with a NullTrader and patches in the LP optimum afterwards.
type NullTrader struct{}

var _ Trader = NullTrader{}

// Decide implements Trader.
func (NullTrader) Decide(int, Quote) Decision { return Decision{} }

// Observe implements Trader.
func (NullTrader) Observe(int, float64, Quote, Decision) {}
