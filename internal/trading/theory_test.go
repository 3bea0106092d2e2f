package trading

import (
	"math"
	"slices"
	"testing"
)

// Empirical verification of Theorem 2: both the regret against the one-shot
// comparators and the fit grow as O(T^{2/3}). The fit's growth exponent is
// gated at 2/3 itself; the regret's time average must shrink.

// TestTheorem2FitGrowthExponent gates the fit's growth exponent at Theorem
// 2's own 2/3: the least-squares slope of log(mean fit over seeds) on log T
// across two and a half decades of horizon. The per-seed slopes and the
// decade-by-decade local slopes are logged so a drift toward the bound shows
// before it trips it.
func TestTheorem2FitGrowthExponent(t *testing.T) {
	if testing.Short() {
		t.Skip("long horizon sweep")
	}
	horizons := []int{1000, 3000, 10000, 30000, 100000}
	const seeds = 8
	logT := make([]float64, len(horizons))
	logMean := make([]float64, len(horizons))
	logSeed := make([][]float64, seeds)
	for i, h := range horizons {
		logT[i] = math.Log(float64(h))
		sum := 0.0
		for s := range logSeed {
			emissions, prices := makeSeries(t, h, 4, 500+int64(s))
			_, _, fit := runPD(t, 2*float64(h), emissions, prices)
			sum += fit
			logSeed[s] = append(logSeed[s], math.Log(math.Max(fit, 1e-9)))
		}
		logMean[i] = math.Log(math.Max(sum/seeds, 1e-9))
	}
	perSeed := make([]float64, seeds)
	for s, ys := range logSeed {
		perSeed[s] = slopeOf(logT, ys)
	}
	local := make([]float64, len(horizons)-1)
	for i := range local {
		local[i] = slopeOf(logT[i:i+2], logMean[i:i+2])
	}
	slope := slopeOf(logT, logMean)
	t.Logf("fit growth exponent of the mean: %.3f (Theorem 2: 2/3); per seed %.3f–%.3f %.3f; local %.3f",
		slope, slices.Min(perSeed), slices.Max(perSeed), perSeed, local)
	if slope > 2.0/3 {
		t.Errorf("fit growth exponent %.3f exceeds Theorem 2's 2/3", slope)
	}
}

func TestTheorem2TimeAveragedRegretVanishes(t *testing.T) {
	if testing.Short() {
		t.Skip("long horizon sweep")
	}
	// Reg_2^T / T must shrink as T grows (Theorem 2's O(T^{2/3}) regret).
	avgAt := func(h int) float64 {
		var sum float64
		const seeds = 3
		for s := int64(0); s < seeds; s++ {
			emissions, prices := makeSeries(t, h, 4, 900+s)
			initialCap := 2 * float64(h)
			cost, comparator, _ := runPD(t, initialCap, emissions, prices)
			sum += (cost - comparator) / float64(h)
		}
		return sum / seeds
	}
	short := avgAt(500)
	long := avgAt(8000)
	t.Logf("time-averaged P2 regret: T=500 -> %.4f, T=8000 -> %.4f", short, long)
	if long > short && long > 0.1*math.Abs(short)+0.5 {
		t.Errorf("time-averaged regret did not shrink: %v -> %v", short, long)
	}
}

// slopeOf returns the least-squares slope of y on x.
func slopeOf(x, y []float64) float64 {
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
