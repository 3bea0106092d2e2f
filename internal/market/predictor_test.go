package market

import (
	"math"
	"math/rand"
	"testing"
)

func TestARPredictorEmpty(t *testing.T) {
	p := NewARPredictor()
	if got := p.Predict(7.5); got != 7.5 {
		t.Errorf("empty predictor should return fallback, got %v", got)
	}
}

func TestARPredictorConstantSeries(t *testing.T) {
	p := NewARPredictor()
	for i := 0; i < 50; i++ {
		p.Observe(8)
	}
	if got := p.Predict(0); math.Abs(got-8) > 1e-9 {
		t.Errorf("constant series prediction = %v, want 8", got)
	}
}

func TestARPredictorLearnsPhi(t *testing.T) {
	// Strongly autocorrelated AR(1) with known phi.
	const truePhi = 0.9
	rng := rand.New(rand.NewSource(1))
	p := NewARPredictor()
	x := 0.0
	for i := 0; i < 5000; i++ {
		x = truePhi*x + rng.NormFloat64()
		p.Observe(8 + x)
	}
	if got := p.Phi(); math.Abs(got-truePhi) > 0.05 {
		t.Errorf("Phi = %v, want ~%v", got, truePhi)
	}
}

func TestARPredictorBeatsNaiveMeanOnARData(t *testing.T) {
	// One-step-ahead MSE of the AR predictor must beat predicting the
	// global mean when the series is autocorrelated.
	const phi = 0.85
	rng := rand.New(rand.NewSource(2))
	p := NewARPredictor()
	x, mean := 0.0, 8.0
	var mseAR, mseMean float64
	n := 0
	for i := 0; i < 4000; i++ {
		next := phi*x + rng.NormFloat64()*0.3
		price := mean + next
		if i > 100 {
			pred := p.Predict(mean)
			mseAR += (pred - price) * (pred - price)
			mseMean += (mean - price) * (mean - price)
			n++
		}
		p.Observe(price)
		x = next
	}
	if mseAR >= mseMean {
		t.Errorf("AR MSE %v not below mean MSE %v", mseAR/float64(n), mseMean/float64(n))
	}
}

func TestARPredictorPhiClamped(t *testing.T) {
	p := NewARPredictor()
	// A deterministic exploding series would give phi > 1 without clamping.
	v := 1.0
	for i := 0; i < 30; i++ {
		p.Observe(v)
		v *= 1.5
	}
	if phi := p.Phi(); phi > 1 || phi < -1 {
		t.Errorf("Phi = %v outside [-1, 1]", phi)
	}
}
