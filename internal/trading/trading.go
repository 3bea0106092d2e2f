// Package trading implements the paper's carbon-allowance subproblem P2.
//
// The centerpiece is Algorithm 2 — an online primal-dual method on the
// convex–concave reformulation of P2. The primal step solves the proximal
// one-shot problem P2^t in closed form; the dual ascent step accumulates the
// realized constraint violation g^t into the multiplier. It needs no future
// (and not even current-slot) prices or emissions, and achieves O(T^{2/3})
// regret and fit (Theorem 2).
//
// The package also carries the paper's baselines — Random, Threshold, and
// Lyapunov drift-plus-penalty — plus the analytic one-shot and offline-
// horizon optima used for regret/fit accounting and the "Offline" scheme.
package trading

import (
	"fmt"
	"math"

	"github.com/carbonedge/carbonedge/internal/numeric"
)

// Quote is the carbon market's current buy price c^t and sell price r^t.
type Quote struct {
	Buy  float64 // c^t
	Sell float64 // r^t
}

// Decision is the pair (z^t, w^t): allowances bought and sold this slot.
type Decision struct {
	Buy  float64 // z^t >= 0
	Sell float64 // w^t >= 0
}

// Cost returns the slot's trading cost f^t(Z) = z*c - w*r.
func (d Decision) Cost(q Quote) float64 { return float64(d.Buy*q.Buy) - float64(d.Sell*q.Sell) }

// Trader is a sequential carbon-trading strategy. Each slot the simulator
// calls Decide once (the current quote is provided because some baselines
// use it; Algorithm 2 deliberately ignores it) and then Observe once with
// the slot's realized emission.
type Trader interface {
	// Decide returns (z^t, w^t) for slot t (0-indexed).
	Decide(t int, q Quote) Decision
	// Observe reveals the slot's realized emission (kg CO2 to offset this
	// slot) after the decision, along with the quote and decision taken.
	Observe(t int, emission float64, q Quote, d Decision)
}

// ConstraintGap returns g^t(Z) = emission - R/T - z + w, the per-slot
// long-term-constraint term of the paper's P2.
func ConstraintGap(emission, capPerSlot float64, d Decision) float64 {
	return emission - capPerSlot - d.Buy + d.Sell
}

// OneShotOptimum returns the minimizer of f^t over {Z >= 0 : g^t(Z) <= 0}
// for one slot — the comparator sequence in Theorem 2's regret. Because
// selling earns r^t > 0, the constraint -z + w <= capPerSlot - emission is
// tight at the optimum: buy exactly the deficit or sell exactly the surplus.
func OneShotOptimum(emission, capPerSlot float64, q Quote) Decision {
	gap := emission - capPerSlot
	if gap > 0 {
		return Decision{Buy: gap}
	}
	return Decision{Sell: -gap}
}

// OfflineOptimum solves the full-horizon trading problem
//
//	min sum_t z^t c^t - w^t r^t   s.t.  sum_t emissions - R <= sum_t z - w
//
// under a no-speculation restriction: the operator trades to offset its own
// emissions, never to arbitrage the market (without this restriction the
// unbounded LP admits infinite profit whenever some slot's sell price
// exceeds another slot's buy price, which the paper's Offline clearly does
// not exploit). Among non-speculative plans the optimum buys the total
// deficit at the cheapest buy price or sells the total surplus at the
// dearest sell price. It returns the per-slot decisions and the optimal
// cost.
func OfflineOptimum(emissions []float64, buy, sell []float64, initialCap float64) ([]Decision, float64, error) {
	if len(emissions) != len(buy) || len(buy) != len(sell) {
		return nil, 0, fmt.Errorf("trading: series lengths differ: %d/%d/%d", len(emissions), len(buy), len(sell))
	}
	if len(emissions) == 0 {
		return nil, 0, fmt.Errorf("trading: empty horizon")
	}
	for t := range buy {
		if sell[t] >= buy[t] {
			return nil, 0, fmt.Errorf("trading: sell price %g >= buy price %g at t=%d breaks the LP structure", sell[t], buy[t], t)
		}
	}
	total := 0.0
	for _, e := range emissions {
		total += e
	}
	decisions := make([]Decision, len(emissions))
	deficit := total - initialCap
	if deficit > 0 {
		tBest := numeric.ArgMin(buy)
		decisions[tBest] = Decision{Buy: deficit}
		return decisions, deficit * buy[tBest], nil
	}
	tBest := numeric.ArgMax(sell)
	decisions[tBest] = Decision{Sell: -deficit}
	return decisions, deficit * sell[tBest], nil
}

// Fit returns the paper's constraint-violation metric
// ||[sum_t g^t(Z^t)]^+|| for a realized run.
func Fit(emissions []float64, decisions []Decision, initialCap float64) (float64, error) {
	if len(emissions) != len(decisions) {
		return 0, fmt.Errorf("trading: series lengths differ: %d/%d", len(emissions), len(decisions))
	}
	horizon := float64(len(emissions))
	if horizon == 0 {
		return 0, nil
	}
	capPerSlot := initialCap / horizon
	sum := 0.0
	for t, e := range emissions {
		sum += ConstraintGap(e, capPerSlot, decisions[t])
	}
	return math.Max(0, sum), nil
}
