package market

import "math"

// ARPredictor is an online AR(1) forecaster of the next allowance buy price.
// It is causal: Predict only uses prices passed to Observe. It models
//
//	c_{t+1} - mu = phi * (c_t - mu) + noise
//
// with mu estimated as the running mean and phi by online least squares over
// lag-1 products. This realizes the paper's future-work suggestion of
// integrating price prediction into the trading strategy; see
// trading.NewPredictivePrimalDual for the consumer.
type ARPredictor struct {
	n    int
	mean float64

	// Online sums for phi = sum(x_t * x_{t+1}) / sum(x_t^2) over centered
	// values x = c - mean (mean updated as data arrives; the slight
	// nonstationarity is acceptable for forecasting).
	sumXX, sumXY float64
	prev         float64
	hasPrev      bool
	last         float64
}

// NewARPredictor creates an empty AR(1) forecaster.
func NewARPredictor() *ARPredictor { return &ARPredictor{} }

// Observe feeds the realized buy price of the current slot.
func (p *ARPredictor) Observe(price float64) {
	p.n++
	p.mean += (price - p.mean) / float64(p.n)
	x := price - p.mean
	if p.hasPrev {
		p.sumXX += float64(p.prev * p.prev)
		p.sumXY += float64(p.prev * x)
	}
	p.prev = x
	p.hasPrev = true
	p.last = price
}

// Phi returns the estimated AR(1) coefficient, clamped to [-1, 1].
func (p *ARPredictor) Phi() float64 {
	if p.sumXX <= 0 {
		return 0
	}
	phi := p.sumXY / p.sumXX
	return math.Max(-1, math.Min(1, phi))
}

// Predict forecasts the next slot's buy price. Before any observation it
// returns fallback.
func (p *ARPredictor) Predict(fallback float64) float64 {
	if p.n == 0 {
		return fallback
	}
	if p.n < 3 {
		return p.last
	}
	return p.mean + float64(p.Phi()*(p.last-p.mean))
}
