// Carbonmarket isolates the trading subproblem P2: a fixed inference fleet
// emits carbon while allowance prices fluctuate and occasionally jump. The
// example pits Algorithm 2 (online primal-dual) against the Lyapunov,
// Threshold, and Random baselines and the clairvoyant per-slot optimum,
// reporting trading cost and constraint violation — the Fig. 9/11 story in
// miniature, including robustness to a mid-horizon price shock.
package main

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"slices"
	"text/tabwriter"

	"github.com/carbonedge/carbonedge/internal/market"
	"github.com/carbonedge/carbonedge/internal/numeric"
	"github.com/carbonedge/carbonedge/internal/trading"
)

func main() {
	if err := run(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "carbonmarket:", err)
		os.Exit(1)
	}
}

func run(stdout io.Writer) error {
	const (
		horizon    = 320
		initialCap = 4.0 // grams
	)
	rng := numeric.SplitRNG(11, "carbonmarket")

	// Price series with shocks (a volatile compliance period).
	priceCfg := market.DefaultPriceConfig()
	priceCfg.ShockProb = 0.05
	priceCfg.ShockSize = 2.5
	prices, err := market.GeneratePrices(priceCfg, horizon, rng)
	if err != nil {
		return err
	}

	// Emission series: diurnal double hump plus noise, mean ~0.04 g/slot,
	// so the horizon total (~12.8 g) far exceeds the cap: a structural
	// deficit that must be bought.
	emissions := make([]float64, horizon)
	for t := range emissions {
		base := 0.02 + 0.04*humps(t)
		emissions[t] = base * (0.8 + 0.4*rng.Float64())
	}

	scale := mean(emissions)
	traders := []struct {
		name string
		tr   trading.Trader
	}{
		{"PrimalDual", mustPrimalDual(initialCap, horizon, scale, mean(prices.Buy))},
		{"Lyapunov", mustLyapunov(initialCap, horizon, scale, mean(prices.Buy))},
		{"Threshold", mustThreshold(prices, scale)},
		{"Random", mustRandom(scale, rng)},
		{"OneShot", mustOneShot(emissions, initialCap)},
	}

	fmt.Fprintf(stdout, "carbon market: %d slots, cap %.1f g, total emissions %.1f g\n",
		horizon, initialCap, sum(emissions))
	fmt.Fprintf(stdout, "prices: %.1f-%.1f (shocks enabled)\n\n", slices.Min(prices.Buy), slices.Max(prices.Buy))
	tw := tabwriter.NewWriter(stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "trader\ttrading cost\tfit (g)\tbought\tsold")
	for _, row := range traders {
		cost, fit, bought, sold, err := play(row.tr, emissions, prices, initialCap)
		if err != nil {
			return err
		}
		fmt.Fprintf(tw, "%s\t%.2f\t%.3f\t%.2f\t%.2f\n", row.name, cost, fit, bought, sold)
	}
	return tw.Flush()
}

// play runs one trader over the series.
func play(tr trading.Trader, emissions []float64, prices *market.Prices, cap float64) (cost, fit, bought, sold float64, err error) {
	decisions := make([]trading.Decision, len(emissions))
	for t := range emissions {
		q := trading.Quote{Buy: prices.Buy[t], Sell: prices.Sell[t]}
		d := tr.Decide(t, q)
		decisions[t] = d
		cost += d.Cost(q)
		bought += d.Buy
		sold += d.Sell
		tr.Observe(t, emissions[t], q, d)
	}
	fit, err = trading.Fit(emissions, decisions, cap)
	return cost, fit, bought, sold, err
}

func mustPrimalDual(cap float64, horizon int, scale, avgPrice float64) trading.Trader {
	cfg := trading.DefaultPrimalDualConfig(cap, horizon)
	inv3 := 1.0 / math.Cbrt(float64(horizon))
	cfg.Gamma1 = 4 * inv3 * avgPrice / scale
	cfg.Gamma2 = 4 * inv3 * scale / avgPrice
	cfg.ZMax = 20 * scale
	tr, err := trading.NewPrimalDual(cfg)
	if err != nil {
		panic(err)
	}
	return tr
}

func mustLyapunov(cap float64, horizon int, scale, avgPrice float64) trading.Trader {
	tr, err := trading.NewLyapunovTrader(scale/avgPrice*3, 2*scale, cap, horizon)
	if err != nil {
		panic(err)
	}
	return tr
}

func mustThreshold(p *market.Prices, scale float64) trading.Trader {
	mid := (slices.Min(p.Buy) + slices.Max(p.Buy)) / 2
	tr, err := trading.NewThresholdTrader(mid, scale, mid*0.9, scale)
	if err != nil {
		panic(err)
	}
	return tr
}

func mustRandom(scale float64, rng *rand.Rand) trading.Trader {
	tr, err := trading.NewRandomTrader(4*scale, rng)
	if err != nil {
		panic(err)
	}
	return tr
}

func mustOneShot(emissions []float64, cap float64) trading.Trader {
	tr, err := trading.NewOneShotTrader(emissions, cap)
	if err != nil {
		panic(err)
	}
	return tr
}

// humps is a double-peak diurnal intensity in [0, 1].
func humps(t int) float64 {
	day := t % 96
	am := gauss(float64(day-34), 8)
	pm := gauss(float64(day-72), 8)
	if am > pm {
		return am
	}
	return pm
}

func gauss(d, sigma float64) float64 {
	x := d / sigma
	return math.Exp(-x * x / 2)
}

func mean(xs []float64) float64 { return sum(xs) / float64(len(xs)) }

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}
