package sim

import (
	"fmt"
	"math/rand"

	"github.com/carbonedge/carbonedge/internal/bandit"
	"github.com/carbonedge/carbonedge/internal/market"
	"github.com/carbonedge/carbonedge/internal/trading"
)

// The paper evaluates combinations of a model-selection scheme and a carbon
// trading scheme (Ran-Ran, Greedy-LY, TINF-Ran, UCB-TH, ...). The factories
// below materialize each named scheme against a scenario; Combos enumerates
// the cross product used in the figures.

// PolicyOurs is Algorithm 1 (BlockedTsallisINF) with u_i from the scenario.
func PolicyOurs(s *Scenario, edge int, rng *rand.Rand) (bandit.Policy, error) {
	return bandit.NewBlockedTsallisINF(s.NumModels(), s.Delays[edge], rng)
}

// PolicyRandom is the Random baseline.
func PolicyRandom(s *Scenario, _ int, rng *rand.Rand) (bandit.Policy, error) {
	return bandit.NewRandom(s.NumModels(), rng)
}

// PolicyGreedy is the lowest-energy Greedy baseline.
func PolicyGreedy(s *Scenario, _ int, _ *rand.Rand) (bandit.Policy, error) {
	scores := make([]float64, s.NumModels())
	for n := range scores {
		scores[n] = s.Zoo.Info(n).PhiKWh
	}
	return bandit.NewGreedy(scores)
}

// PolicyTsallisINF is unblocked Tsallis-INF (ignores switching cost).
func PolicyTsallisINF(s *Scenario, _ int, rng *rand.Rand) (bandit.Policy, error) {
	return bandit.NewTsallisINF(s.NumModels(), rng)
}

// PolicyUCB2 is the UCB2 baseline. Loss scale: worst mean loss plus worst
// compute cost, which upper-bounds per-slot observations loosely.
func PolicyUCB2(s *Scenario, edge int, _ *rand.Rand) (bandit.Policy, error) {
	scale := 0.0
	for n := 0; n < s.NumModels(); n++ {
		if v := s.Zoo.MeanLoss(n) + s.CompCost[edge][n]; v > scale {
			scale = v
		}
	}
	return bandit.NewUCB2(s.NumModels(), 0.5, float64(scale*1.5)+1e-9)
}

// emissionScale is the per-slot emission magnitude the traders are sized by:
// MeanEmissionPerSlot, or 1 when that is zero.
func emissionScale(s *Scenario) float64 {
	if scale := s.MeanEmissionPerSlot(); scale > 0 {
		return scale
	}
	return 1
}

// primalDualConfig assembles Algorithm 2's configuration for a scenario:
// Theorem-2 step sizes at its emission scale and mean buy price, both
// multiplied by gammaMult (the step-size ablation knob).
func primalDualConfig(s *Scenario, gammaMult float64) trading.PrimalDualConfig {
	return trading.ScaledPrimalDualConfig(s.Cfg.InitialCap, s.Cfg.Horizon,
		emissionScale(s), s.Prices.MeanBuy(s.Cfg.Horizon), gammaMult)
}

// TraderOurs is Algorithm 2 (PrimalDual) with Theorem-2 step sizes scaled by
// the scenario's per-slot emission magnitude.
func TraderOurs(s *Scenario, _ *rand.Rand) (trading.Trader, error) {
	return trading.NewPrimalDual(primalDualConfig(s, 1))
}

// TraderOursScaled returns Algorithm 2 with both step sizes multiplied by
// gammaMult — the step-size sensitivity ablation.
func TraderOursScaled(gammaMult float64) TraderFactory {
	return func(s *Scenario, _ *rand.Rand) (trading.Trader, error) {
		return trading.NewPrimalDual(primalDualConfig(s, gammaMult))
	}
}

// TraderPredictive is the future-work extension: Algorithm 2 driven by an
// online AR(1) price forecast instead of the last observed price.
func TraderPredictive(s *Scenario, _ *rand.Rand) (trading.Trader, error) {
	return trading.NewPredictivePrimalDual(primalDualConfig(s, 1), market.NewARPredictor(), market.DefaultSellRatio)
}

// TraderRandom trades random volumes up to four times the per-slot emission
// scale — uninformed trading churns far more volume than the workload
// warrants, which is exactly the waste the paper attributes to the "-Ran"
// combinations.
func TraderRandom(s *Scenario, rng *rand.Rand) (trading.Trader, error) {
	return trading.NewRandomTrader(4*emissionScale(s), rng)
}

// TraderThreshold buys below / sells above the band midpoints at the
// emission scale.
func TraderThreshold(s *Scenario, _ *rand.Rand) (trading.Trader, error) {
	scale := emissionScale(s)
	lo, hi := s.Prices.Buy[0], s.Prices.Buy[0]
	for _, c := range s.Prices.Buy {
		if c < lo {
			lo = c
		}
		if c > hi {
			hi = c
		}
	}
	mid := (lo + hi) / 2
	return trading.NewThresholdTrader(mid, scale, mid*0.9, scale)
}

// TraderLyapunov is the drift-plus-penalty baseline.
func TraderLyapunov(s *Scenario, _ *rand.Rand) (trading.Trader, error) {
	scale := emissionScale(s)
	// V balances cost against queue pressure: queue is in grams, V*price
	// must be reachable by a few slots of uncovered emissions.
	v := scale / s.Prices.MeanBuy(s.Cfg.Horizon) * 3
	return trading.NewLyapunovTrader(v, 2*scale, s.Cfg.InitialCap, s.Cfg.Horizon)
}

// Combo names one policy x trader pairing using the paper's labels.
type Combo struct {
	Name   string
	Policy PolicyFactory
	Trader TraderFactory
}

// Combos returns the paper's evaluated combinations: "Ours" (Alg 1 + Alg 2)
// first, then every baseline policy x baseline trader pairing.
func Combos() []Combo {
	policies := []struct {
		label   string
		factory PolicyFactory
	}{
		{"Ran", PolicyRandom},
		{"Greedy", PolicyGreedy},
		{"TINF", PolicyTsallisINF},
		{"UCB", PolicyUCB2},
	}
	traders := []struct {
		label   string
		factory TraderFactory
	}{
		{"Ran", TraderRandom},
		{"TH", TraderThreshold},
		{"LY", TraderLyapunov},
	}
	combos := []Combo{{Name: "Ours", Policy: PolicyOurs, Trader: TraderOurs}}
	for _, p := range policies {
		for _, tr := range traders {
			combos = append(combos, Combo{Name: p.label + "-" + tr.label, Policy: p.factory, Trader: tr.factory})
		}
	}
	return combos
}

// ComboByName finds one of Combos() by name, "Ours" included. The clairvoyant
// scheme is not a combo; run it with Offline.
func ComboByName(name string) (Combo, error) {
	for _, c := range Combos() {
		if c.Name == name {
			return c, nil
		}
	}
	return Combo{}, fmt.Errorf("sim: unknown combo %q", name)
}
