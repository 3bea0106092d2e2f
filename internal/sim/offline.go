package sim

import (
	"fmt"

	"github.com/carbonedge/carbonedge/internal/bandit"
	"github.com/carbonedge/carbonedge/internal/engine"
	"github.com/carbonedge/carbonedge/internal/trading"
)

// Offline computes the paper's "Offline" scheme: each edge permanently
// hosts its posterior-best model (one download at the first slot), and the
// carbon trading problem is solved to optimality with the entire horizon's
// emissions and prices known in advance (the paper uses Gurobi; our LP has
// closed form, see trading.OfflineOptimum). The result doubles as the P*
// comparator for the P0 regret in Fig. 10.
//
// The slot protocol itself runs on the shared engine: fixed per-edge
// policies and a no-op trader produce the realized emission series, then
// the clairvoyant trade schedule is patched in.
func Offline(s *Scenario) (*engine.Result, error) {
	cfg := s.Cfg
	policies := make([]bandit.Policy, cfg.Edges)
	for i := range policies {
		p, err := bandit.NewFixed(s.BestArm(i), s.NumModels())
		if err != nil {
			return nil, fmt.Errorf("fixed policy for edge %d: %w", i, err)
		}
		policies[i] = p
	}
	res, err := s.play("Offline", policies, trading.NewNullTrader(), 1, 1)
	if err != nil {
		return nil, err
	}

	// Offline-optimal trading against the realized emission series; the
	// engine ran with the null trader, so trading costs are zero so far.
	decisions, _, err := trading.OfflineOptimum(
		res.Emissions, s.Prices.Buy, s.Prices.Sell, cfg.InitialCap)
	if err != nil {
		return nil, fmt.Errorf("offline trading: %w", err)
	}
	res.Decisions = decisions
	spend, bought, cumTrade := 0.0, 0.0, 0.0
	for t, d := range decisions {
		cumTrade += d.Cost(trading.Quote{Buy: s.Prices.Buy[t], Sell: s.Prices.Sell[t]})
		res.CumTotal[t] += cumTrade
		spend += d.Buy * s.Prices.Buy[t]
		bought += d.Buy
	}
	res.Cost.Trading = cumTrade
	fit, err := trading.Fit(res.Emissions, res.Decisions, cfg.InitialCap)
	if err != nil {
		return nil, err
	}
	res.Fit = fit
	res.AvgBuyPrice = 0
	if bought > 0 {
		res.AvgBuyPrice = spend / bought
	}
	return res, nil
}

// RegretP0 returns P(run) - P(offline), the paper's regret for the original
// problem P0 (Fig. 10).
func RegretP0(run, offline *engine.Result) float64 {
	return run.Cost.Total() - offline.Cost.Total()
}
