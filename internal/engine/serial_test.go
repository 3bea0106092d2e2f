package engine

import (
	"fmt"

	"github.com/carbonedge/carbonedge/internal/core"
	"github.com/carbonedge/carbonedge/internal/energy"
	"github.com/carbonedge/carbonedge/internal/market"
	"github.com/carbonedge/carbonedge/internal/trading"
)

// runSerial is the engine's historical single-loop implementation: the
// oracle TestShardedMatchesSerialProperty pins RunSharded byte-identical to,
// for random shard partitions and worker counts, including Degrade runs with
// injected faults. It takes only a config and fleet RunSharded accepts, starts
// no goroutine and ignores cfg.Shards and cfg.Workers, so the reference has
// no scheduling in it. Keep it in lockstep with any accounting change to
// RunSharded's fold; the property test fails loudly if the two drift.
func runSerial(cfg Config, ctrl *core.Controller, edges []EdgeStepper) (*Result, error) {
	meter, err := energy.NewMeter(cfg.EmissionRate)
	if err != nil {
		return nil, err
	}
	ledger, err := market.NewLedger(cfg.InitialCap)
	if err != nil {
		return nil, err
	}

	res := &Result{
		Name:          cfg.Name,
		CumTotal:      make([]float64, cfg.Horizon),
		Emissions:     make([]float64, cfg.Horizon),
		Decisions:     make([]trading.Decision, cfg.Horizon),
		WorkloadTotal: make([]int, cfg.Horizon),
		Accuracy:      make([]float64, cfg.Horizon),
		Selections:    make([][]int, len(edges)),
		Downtime:      make([]int, len(edges)),
		Retries:       make([]int, len(edges)),
		DownErrors:    make([]string, len(edges)),
	}
	for i := range res.Selections {
		res.Selections[i] = make([]int, cfg.NumModels)
	}

	obs := make([]Observation, len(edges))
	stepErrs := make([]error, len(edges))
	losses := make([]float64, len(edges))
	served := make([]bool, len(edges))
	down := make([]bool, len(edges))
	totalCorrect, totalSamples := 0, 0

	for t := 0; t < cfg.Horizon; t++ {
		arms, err := ctrl.SelectModels()
		if err != nil {
			return nil, err
		}
		downloads, err := ctrl.Downloads()
		if err != nil {
			return nil, err
		}

		for i, e := range edges {
			if down[i] {
				obs[i], stepErrs[i] = Observation{}, nil
				continue
			}
			obs[i], stepErrs[i] = safeStep(e, t, arms[i], downloads[i])
		}
		// Failures are handled once every edge has stepped, in edge-index
		// order, as a shard resolves them: the lowest-indexed failure aborts
		// under FailFast, and Degrade marks edges down in index order.
		for i, err := range stepErrs {
			if err == nil {
				continue
			}
			if cfg.Policy == FailFast {
				return nil, fmt.Errorf("engine: edge %d slot %d: %w", i, t, err)
			}
			// Degrade: keep the retries the stepper burned, zero the rest of
			// the failed observation, and mark the edge down for the
			// remainder of the run.
			down[i] = true
			res.DownErrors[i] = err.Error()
			obs[i] = Observation{Retries: obs[i].Retries}
			stepErrs[i] = nil
		}

		// Cross-edge accounting is serial and in edge-index order so the
		// result is independent of step completion order. A down edge
		// contributes the well-defined fallback: zero samples, zero energy,
		// no switch charge (nothing was shipped), and no bandit feedback.
		var slotCost CostBreakdown
		slotEmission := 0.0
		slotCorrect, slotSamples := 0, 0
		for i := range edges {
			o := obs[i]
			losses[i] = o.Loss
			served[i] = !down[i]
			res.Retries[i] += o.Retries
			if down[i] {
				res.Downtime[i]++
				res.DroppedSlots++
				continue
			}
			res.Selections[i][arms[i]]++
			slotCost.InferLoss += o.InferLoss
			slotCost.Compute += o.Compute
			if downloads[i] {
				slotCost.Switching += cfg.SwitchCosts[i]
				res.Switches++
				slotEmission += meter.Emission(o.TransferKWh)
			}
			slotEmission += meter.Emission(o.InferKWh)
			slotCorrect += o.Correct
			slotSamples += o.Samples
		}

		q := trading.Quote{Buy: cfg.Prices.Buy[t], Sell: cfg.Prices.Sell[t]}
		d, err := ctrl.DecideTrade(q)
		if err != nil {
			return nil, err
		}
		if err := ledger.Buy(d.Buy, q.Buy); err != nil {
			return nil, err
		}
		if err := ledger.Sell(d.Sell, q.Sell); err != nil {
			return nil, err
		}
		if err := ctrl.CompleteSlotServed(losses, served, slotEmission); err != nil {
			return nil, err
		}
		slotCost.Trading = d.Cost(q)

		res.Cost.Add(slotCost)
		res.CumTotal[t] = res.Cost.Total()
		res.Emissions[t] = slotEmission
		res.Decisions[t] = d
		res.WorkloadTotal[t] = slotSamples
		if slotSamples > 0 {
			res.Accuracy[t] = float64(slotCorrect) / float64(slotSamples)
		}
		totalCorrect += slotCorrect
		totalSamples += slotSamples
	}
	if totalSamples > 0 {
		res.OverallAccuracy = float64(totalCorrect) / float64(totalSamples)
	}
	fit, err := trading.Fit(res.Emissions, res.Decisions, cfg.InitialCap)
	if err != nil {
		return nil, err
	}
	res.Fit = fit
	if ledger.Bought() > 0 {
		res.AvgBuyPrice = ledger.Spend() / ledger.Bought()
	}
	return res, nil
}
