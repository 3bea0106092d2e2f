package trading

import (
	"math"
	"math/rand"
	"testing"

	"github.com/carbonedge/carbonedge/internal/market"
	"github.com/carbonedge/carbonedge/internal/numeric"
)

func newPD(t *testing.T, cap float64, horizon int) *PrimalDual {
	t.Helper()
	pd, err := NewPrimalDual(DefaultPrimalDualConfig(cap, horizon))
	if err != nil {
		t.Fatalf("NewPrimalDual: %v", err)
	}
	return pd
}

func TestNewPrimalDualErrors(t *testing.T) {
	base := DefaultPrimalDualConfig(500, 160)
	tests := []struct {
		name   string
		mutate func(*PrimalDualConfig)
	}{
		{"zero horizon", func(c *PrimalDualConfig) { c.Horizon = 0 }},
		{"negative cap", func(c *PrimalDualConfig) { c.InitialCap = -1 }},
		{"zero gamma1", func(c *PrimalDualConfig) { c.Gamma1 = 0 }},
		{"zero gamma2", func(c *PrimalDualConfig) { c.Gamma2 = 0 }},
		{"zero zmax", func(c *PrimalDualConfig) { c.ZMax = 0 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := base
			tt.mutate(&cfg)
			if _, err := NewPrimalDual(cfg); err == nil {
				t.Error("expected error")
			}
		})
	}
}

// TestScaledPrimalDualConfig pins the Theorem-2 sizing: at T = 1000 the steps
// are 0.4·P/E and 0.4·E/P, mult scales both and nothing else, and ZMax is
// twenty slots' emission.
func TestScaledPrimalDualConfig(t *testing.T) {
	const e, p = 2.5, 8.0
	cfg := ScaledPrimalDualConfig(3, 1000, e, p, 1)
	if cfg.InitialCap != 3 || cfg.Horizon != 1000 || cfg.ZMax != 20*e {
		t.Fatalf("cap/horizon/ZMax = %v/%v/%v", cfg.InitialCap, cfg.Horizon, cfg.ZMax)
	}
	if math.Abs(cfg.Gamma1-0.4*p/e) > 1e-15 || math.Abs(cfg.Gamma2-0.4*e/p) > 1e-15 {
		t.Errorf("gammas %v, %v; want %v, %v", cfg.Gamma1, cfg.Gamma2, 0.4*p/e, 0.4*e/p)
	}
	doubled := ScaledPrimalDualConfig(3, 1000, e, p, 2)
	if doubled.Gamma1 != 2*cfg.Gamma1 || doubled.Gamma2 != 2*cfg.Gamma2 || doubled.ZMax != cfg.ZMax {
		t.Errorf("mult 2 gave %+v from %+v", doubled, cfg)
	}
}

func TestPrimalDualFirstSlotIsZero(t *testing.T) {
	pd := newPD(t, 500, 160)
	d := pd.Decide(0, Quote{Buy: 10, Sell: 9})
	if d.Buy != 0 || d.Sell != 0 {
		t.Errorf("first decision = %+v, want zero", d)
	}
}

func TestPrimalDualIgnoresCurrentQuote(t *testing.T) {
	// Algorithm 2's headline property: the decision at t uses only history.
	run := func(currentQuote Quote) Decision {
		pd := newPD(t, 500, 160)
		q := Quote{Buy: 8, Sell: 7.2}
		d := pd.Decide(0, q)
		pd.Observe(0, 5, q, d)
		return pd.Decide(1, currentQuote)
	}
	d1 := run(Quote{Buy: 6, Sell: 5.4})
	d2 := run(Quote{Buy: 10.9, Sell: 9.81})
	if d1 != d2 {
		t.Errorf("decision depends on current quote: %+v vs %+v", d1, d2)
	}
}

func TestPrimalDualClosedFormMatchesNumericalProximal(t *testing.T) {
	pd := newPD(t, 500, 160)
	prevQ := Quote{Buy: 9, Sell: 8.1}
	d0 := pd.Decide(0, prevQ)
	pd.Observe(0, 7, prevQ, d0)
	closed := pd.Decide(1, Quote{Buy: 10, Sell: 9})
	numerical := pd.SolveProximal(d0, prevQ, pd.Lambda(), 4000)
	if math.Abs(closed.Buy-numerical.Buy) > 1e-6 || math.Abs(closed.Sell-numerical.Sell) > 1e-6 {
		t.Errorf("closed form %+v != numerical %+v", closed, numerical)
	}
}

func TestPrimalDualLambdaNonNegative(t *testing.T) {
	pd := newPD(t, 500, 160)
	rng := rand.New(rand.NewSource(3))
	for slot := 0; slot < 160; slot++ {
		q := Quote{Buy: 6 + rng.Float64()*5}
		q.Sell = q.Buy * 0.9
		d := pd.Decide(slot, q)
		pd.Observe(slot, rng.Float64()*4, q, d)
		if pd.Lambda() < 0 {
			t.Fatalf("lambda went negative: %v", pd.Lambda())
		}
	}
}

func TestPrimalDualBoundsDecisions(t *testing.T) {
	cfg := DefaultPrimalDualConfig(500, 160)
	cfg.ZMax = 1.5
	pd, err := NewPrimalDual(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	for slot := 0; slot < 160; slot++ {
		q := Quote{Buy: 6 + rng.Float64()*5}
		q.Sell = q.Buy * 0.9
		d := pd.Decide(slot, q)
		if d.Buy < 0 || d.Buy > cfg.ZMax || d.Sell < 0 || d.Sell > cfg.ZMax {
			t.Fatalf("decision %+v outside [0, %v]", d, cfg.ZMax)
		}
		pd.Observe(slot, rng.Float64()*10, q, d)
	}
}

// runPD plays PrimalDual against an emission/price series and returns the
// realized cost, the one-shot-comparator cost, and the fit.
func runPD(t *testing.T, initialCap float64, emissions []float64, prices *market.Prices) (cost, comparatorCost, fit float64) {
	t.Helper()
	horizon := len(emissions)
	pd := newPD(t, initialCap, horizon)
	capPerSlot := initialCap / float64(horizon)
	decisions := make([]Decision, horizon)
	for slot := 0; slot < horizon; slot++ {
		q := Quote{Buy: prices.Buy[slot], Sell: prices.Sell[slot]}
		d := pd.Decide(slot, q)
		decisions[slot] = d
		cost += d.Cost(q)
		opt := OneShotOptimum(emissions[slot], capPerSlot, q)
		comparatorCost += opt.Cost(q)
		pd.Observe(slot, emissions[slot], q, d)
	}
	f, err := Fit(emissions, decisions, initialCap)
	if err != nil {
		t.Fatal(err)
	}
	return cost, comparatorCost, f
}

func makeSeries(t *testing.T, horizon int, emissionMean float64, seed int64) ([]float64, *market.Prices) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	prices, err := market.GeneratePrices(market.DefaultPriceConfig(), horizon, rng)
	if err != nil {
		t.Fatal(err)
	}
	emissions := make([]float64, horizon)
	for i := range emissions {
		emissions[i] = emissionMean * (0.5 + rng.Float64())
	}
	return emissions, prices
}

func TestPrimalDualTimeAveragedRegretAndFitShrink(t *testing.T) {
	// Theorem 2: regret and fit are O(T^{2/3}), so their time averages must
	// shrink as T grows.
	avg := func(horizon int) (regretPerT, fitPerT float64) {
		var regretSum, fitSum float64
		const runs = 3
		for seed := int64(0); seed < runs; seed++ {
			emissions, prices := makeSeries(t, horizon, 4, 100+seed)
			initialCap := 2 * float64(horizon) // per-slot cap 2, mean emission 4 => must buy
			cost, comparator, fit := runPD(t, initialCap, emissions, prices)
			regretSum += (cost - comparator) / float64(horizon)
			fitSum += fit / float64(horizon)
		}
		return regretSum / runs, fitSum / runs
	}
	regShort, fitShort := avg(100)
	regLong, fitLong := avg(3000)
	if fitLong > fitShort*0.5 && fitLong > 0.05 {
		t.Errorf("time-averaged fit did not shrink: short=%v long=%v", fitShort, fitLong)
	}
	// Regret per slot must not diverge and should stay within a modest band
	// around the comparator (which peeks at the current slot's emission and
	// prices, so the online algorithm cannot match it exactly).
	if regLong > math.Max(regShort, 1.0) {
		t.Errorf("time-averaged regret grew: short=%v long=%v", regShort, regLong)
	}
}

func TestPrimalDualCoversEmissionsLongRun(t *testing.T) {
	// With persistent deficit the algorithm must end up buying roughly the
	// uncovered emission mass: fit well below doing nothing.
	horizon := 2000
	emissions, prices := makeSeries(t, horizon, 4, 7)
	initialCap := 2 * float64(horizon)
	_, _, fit := runPD(t, initialCap, emissions, prices)

	noTrade := make([]Decision, horizon)
	fitNoTrade, err := Fit(emissions, noTrade, initialCap)
	if err != nil {
		t.Fatal(err)
	}
	if fit > fitNoTrade*0.1 {
		t.Errorf("fit %v not well below no-trade fit %v", fit, fitNoTrade)
	}
}

func TestPrimalDualSellsSurplus(t *testing.T) {
	// With a generous cap the algorithm should sell allowances and earn
	// revenue (negative cost).
	horizon := 2000
	emissions, prices := makeSeries(t, horizon, 1, 8)
	initialCap := 5 * float64(horizon) // per-slot cap 5 vs mean emission 1
	cost, _, fit := runPD(t, initialCap, emissions, prices)
	if cost >= 0 {
		t.Errorf("cost = %v, want negative (net seller)", cost)
	}
	// Theorem 2 guarantees sub-linear fit, not zero: transient overshoot in
	// selling leaves a small violation relative to the cap.
	if fit > 0.05*initialCap {
		t.Errorf("fit = %v, want < 5%% of cap %v", fit, initialCap)
	}
}

func TestCapPerSlot(t *testing.T) {
	pd := newPD(t, 500, 160)
	if got := pd.CapPerSlot(); math.Abs(got-3.125) > 1e-12 {
		t.Errorf("CapPerSlot = %v, want 3.125", got)
	}
}

// SolveProximal solves P2^t numerically by projected gradient descent on the
// proximal objective: the oracle the closed-form Decide step is held to.
func (p *PrimalDual) SolveProximal(prev Decision, prevQ Quote, lambda float64, iters int) Decision {
	obj := func(z, w float64) (dz, dw float64) {
		dz = prevQ.Buy - lambda + (z-prev.Buy)/p.cfg.Gamma2
		dw = -prevQ.Sell + lambda + (w-prev.Sell)/p.cfg.Gamma2
		return dz, dw
	}
	z, w := prev.Buy, prev.Sell
	step := p.cfg.Gamma2 / 2
	for i := 0; i < iters; i++ {
		dz, dw := obj(z, w)
		z = numeric.Clamp(z-step*dz, 0, p.cfg.ZMax)
		w = numeric.Clamp(w-step*dw, 0, p.cfg.ZMax)
	}
	return Decision{Buy: z, Sell: w}
}
