package bandit

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// Empirical verification of Theorem 1: the regret-plus-switching-cost of
// Algorithm 1 grows sub-linearly in T. We estimate the growth exponent by
// regressing log(regret) on log(T) across a geometric horizon sweep and
// require it to be clearly below 1 (linear growth).

// clippedMean is E[max(0, X)] for X ~ N(mu, sigma²), μΦ(μ/σ) + σφ(μ/σ):
// an arm's mean loss as runStochastic draws it, clipping each loss at 0.
func clippedMean(mu, sigma float64) float64 {
	z := mu / sigma
	return mu*math.Erfc(-z/math.Sqrt2)/2 + sigma*math.Exp(-z*z/2)/math.Sqrt(2*math.Pi)
}

// regretPlusSwitching plays the policy against Gaussian arms and returns its
// pseudo-regret against the best fixed arm, Σₙ pullsₙ·(m̃ₙ − m̃*) over the
// clipped means m̃, plus u * switches. Measured against the unclipped best
// mean 0.3, every slot would add the clip's bias m̃* − 0.3 ≈ 0.0059, a
// linear term no policy can remove (EXPERIMENTS.md, Theorem 1 gate).
func regretPlusSwitching(t *testing.T, horizon int, u float64, seed int64) float64 {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	means := []float64{0.55, 0.3, 0.6, 0.45, 0.7, 0.5}
	const sigma = 0.2
	b, err := NewBlockedTsallisINF(len(means), u, rng)
	if err != nil {
		t.Fatal(err)
	}
	_, switches, pulls := runStochastic(t, b, means, sigma, horizon, rng)
	best := clippedMean(slices.Min(means), sigma)
	regret := u * float64(switches)
	for n, mu := range means {
		regret += float64(pulls[n]) * (clippedMean(mu, sigma) - best)
	}
	return regret
}

func TestTheorem1SublinearGrowthExponent(t *testing.T) {
	if testing.Short() {
		t.Skip("long horizon sweep")
	}
	horizons := []int{2000, 4000, 8000, 16000, 32000}
	const seeds = 8
	for _, u := range []float64{1, 4} {
		var logT, logR []float64
		for _, h := range horizons {
			sum := 0.0
			for s := int64(0); s < seeds; s++ {
				sum += regretPlusSwitching(t, h, u, 100+s)
			}
			logT = append(logT, math.Log(float64(h)))
			logR = append(logR, math.Log(sum/seeds))
		}
		slope := regressSlope(logT, logR)
		t.Logf("u = %g: empirical regret growth exponent %.3f (Theorem 1 predicts ~1/3 for the leading term)", u, slope)
		if slope > 0.85 {
			t.Errorf("u = %g: regret growth exponent %.3f looks linear", u, slope)
		}
	}
}

func TestTheorem1SwitchesGrowSublinearly(t *testing.T) {
	if testing.Short() {
		t.Skip("long horizon sweep")
	}
	// The number of switches is bounded by the number of blocks K ~
	// N^{1/3} (T/u)^{2/3}; estimate the exponent of switches vs T.
	horizons := []int{2000, 8000, 32000}
	var logT, logS []float64
	for _, h := range horizons {
		rng := rand.New(rand.NewSource(7))
		means := []float64{0.55, 0.3, 0.6, 0.45, 0.7, 0.5}
		b, err := NewBlockedTsallisINF(len(means), 1.0, rng)
		if err != nil {
			t.Fatal(err)
		}
		_, switches, _ := runStochastic(t, b, means, 0.2, h, rng)
		logT = append(logT, math.Log(float64(h)))
		logS = append(logS, math.Log(float64(switches)))
	}
	slope := regressSlope(logT, logS)
	t.Logf("empirical switch growth exponent: %.3f (block bound predicts <= 2/3)", slope)
	if slope > 0.8 {
		t.Errorf("switch count grows with exponent %.3f, want <= ~2/3", slope)
	}
}

// regressSlope returns the least-squares slope of y on x.
func regressSlope(x, y []float64) float64 {
	n := float64(len(x))
	var sx, sy, sxx, sxy float64
	for i := range x {
		sx += x[i]
		sy += y[i]
		sxx += x[i] * x[i]
		sxy += x[i] * y[i]
	}
	return (n*sxy - sx*sy) / (n*sxx - sx*sx)
}
