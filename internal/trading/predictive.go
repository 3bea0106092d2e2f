package trading

import (
	"fmt"

	"github.com/carbonedge/carbonedge/internal/numeric"
)

// PricePredictor is the forecasting dependency of the predictive trader,
// satisfied by market.ARPredictor. It is declared here (consumer side) so
// the trading package does not depend on market.
type PricePredictor interface {
	Observe(price float64)
	Predict(fallback float64) float64
}

// PredictivePrimalDual implements the paper's future-work extension:
// Algorithm 2 with a causal price-prediction model. The primal step replaces
// the stale last-observed price c^{t-1} in the gradient with a one-step
// forecast c-hat^t built from the same history — shifting purchases toward
// slots the model expects to be cheap. Everything else (dual ascent,
// rectification, feasible box) is unchanged, so the Theorem 2 machinery
// still applies whenever the prediction error is bounded.
type PredictivePrimalDual struct {
	inner     *PrimalDual
	buyPred   PricePredictor
	sellRatio float64
}

var _ Trader = (*PredictivePrimalDual)(nil)

// NewPredictivePrimalDual wraps Algorithm 2 with a price predictor.
// sellRatio is the market's r/c ratio used to derive the sell forecast.
func NewPredictivePrimalDual(cfg PrimalDualConfig, pred PricePredictor, sellRatio float64) (*PredictivePrimalDual, error) {
	if pred == nil {
		return nil, fmt.Errorf("trading: nil price predictor")
	}
	if sellRatio <= 0 || sellRatio >= 1 {
		return nil, fmt.Errorf("trading: sellRatio must be in (0,1), got %g", sellRatio)
	}
	inner, err := NewPrimalDual(cfg)
	if err != nil {
		return nil, err
	}
	return &PredictivePrimalDual{inner: inner, buyPred: pred, sellRatio: sellRatio}, nil
}

// Name implements Trader.
func (p *PredictivePrimalDual) Name() string { return "PredictivePrimalDual" }

// Lambda exposes the dual multiplier (diagnostics).
func (p *PredictivePrimalDual) Lambda() float64 { return p.inner.lambda }

// Decide implements Trader. Like the vanilla algorithm it uses only
// history; the current quote argument is ignored.
func (p *PredictivePrimalDual) Decide(int, Quote) Decision {
	inner := p.inner
	if !inner.havePrev {
		return Decision{}
	}
	// Forecast this slot's prices from the history observed so far.
	cHat := p.buyPred.Predict(inner.prevQ.Buy)
	rHat := cHat * p.sellRatio
	z := inner.zBar.Buy - inner.cfg.Gamma2*(cHat-inner.lambda)
	w := inner.zBar.Sell - inner.cfg.Gamma2*(inner.lambda-rHat)
	return Decision{
		Buy:  numeric.Clamp(z, 0, inner.cfg.ZMax),
		Sell: numeric.Clamp(w, 0, inner.cfg.ZMax),
	}
}

// Observe implements Trader.
func (p *PredictivePrimalDual) Observe(t int, emission float64, q Quote, d Decision) {
	p.buyPred.Observe(q.Buy)
	p.inner.Observe(t, emission, q, d)
}
