// Quickstart drives the paper's framework end to end through the public
// core.Controller API: three edges, six models, 160 slots of synthetic
// inference traffic and carbon prices. It is the smallest complete usage of
// the library — everything else (the simulator, the figure harness) is
// built from the same calls.
package main

import (
	"fmt"
	"io"
	"os"

	"github.com/carbonedge/carbonedge/internal/core"
	"github.com/carbonedge/carbonedge/internal/energy"
	"github.com/carbonedge/carbonedge/internal/market"
	"github.com/carbonedge/carbonedge/internal/numeric"
	"github.com/carbonedge/carbonedge/internal/trading"
)

func main() {
	if err := run(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "quickstart:", err)
		os.Exit(1)
	}
}

func run(stdout io.Writer) error {
	const (
		horizon = 160
		edges   = 3
		nModels = 6
	)
	// Per-slot emission of this toy system is around 0.02 g; the cap covers
	// roughly half the horizon, so the controller must buy allowances.
	ctrl, err := core.New(core.Config{
		NumModels:     nModels,
		DownloadCosts: []float64{1.2, 0.9, 1.5}, // seconds to ship a model
		Horizon:       horizon,
		InitialCap:    1.5,
		EmissionScale: 0.02,
		PriceScale:    8,
		Seed:          42,
	})
	if err != nil {
		return err
	}

	// Synthetic world: model quality and prices.
	meanLoss := []float64{1.1, 0.7, 0.55, 0.42, 0.38, 0.30}
	phi := []float64{6e-8, 7e-8, 7.5e-8, 8.2e-8, 9e-8, 1e-7} // kWh/sample
	rng := numeric.SplitRNG(42, "quickstart")
	prices, err := market.GeneratePrices(market.DefaultPriceConfig(), horizon, rng)
	if err != nil {
		return err
	}

	totalCost, totalEmission := 0.0, 0.0
	var decisions []trading.Decision
	emissions := make([]float64, horizon)
	switches := 0
	selections := make([][nModels]int, edges)
	for t := 0; t < horizon; t++ {
		// 1. Place one model per edge; an edge whose model changed (the
		// first slot included) downloads it.
		arms, err := ctrl.SelectModels()
		if err != nil {
			return err
		}
		downloads, err := ctrl.Downloads()
		if err != nil {
			return err
		}
		for i, arm := range arms {
			selections[i][arm]++
			if downloads[i] {
				switches++
			}
		}
		// 2. Trade allowances (Algorithm 2 ignores the current quote).
		q := trading.Quote{Buy: prices.Buy[t], Sell: prices.Sell[t]}
		d, err := ctrl.DecideTrade(q)
		if err != nil {
			return err
		}
		decisions = append(decisions, d)
		totalCost += d.Cost(q)

		// 3. "Run inference": draw losses and count energy.
		losses := make([]float64, edges)
		slotEmission := 0.0
		for i, arm := range arms {
			m := 50 + rng.Intn(100) // samples this slot
			losses[i] = meanLoss[arm] + rng.NormFloat64()*0.2
			totalCost += meanLoss[arm]
			slotEmission += phi[arm] * float64(m) * energy.DefaultEmissionRate // g
		}
		emissions[t] = slotEmission
		totalEmission += slotEmission

		// 4. Feed the observations back.
		if err := ctrl.CompleteSlotServed(losses, nil, slotEmission); err != nil {
			return err
		}
	}

	fit, err := trading.Fit(emissions, decisions, 1.5)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "ran %d slots on %d edges\n", horizon, edges)
	fmt.Fprintf(stdout, "total cost:          %.2f\n", totalCost)
	fmt.Fprintf(stdout, "total emissions:     %.3f g (cap %.1f g)\n", totalEmission, 1.5)
	fmt.Fprintf(stdout, "constraint violation (fit): %.4f g\n", fit)
	fmt.Fprintf(stdout, "model switches:      %d\n", switches)
	fmt.Fprintf(stdout, "final dual price λ:  %.2f\n", ctrl.Lambda())
	for i, row := range selections {
		fmt.Fprintf(stdout, "edge %d selections:   %v\n", i, row)
	}
	return nil
}
