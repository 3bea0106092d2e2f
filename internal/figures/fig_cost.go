package figures

import "github.com/carbonedge/carbonedge/internal/sim"

// fig3Combos is the subset of schemes the paper plots in Fig. 3 (for
// visualization clarity it omits some of the twelve combinations).
var fig3Combos = []string{"Ours", "Ran-Ran", "Greedy-LY", "TINF-Ran", "UCB-LY", "Offline"}

// Fig3CumulativeCost reproduces Fig. 3: normalized cumulative total cost
// over time with 10 edges for the main schemes plus Offline.
func Fig3CumulativeCost(o Options) (*Figure, error) {
	o = o.normalized()
	curves, err := meanCurves(o, fig3Combos, func(r *sim.Result) []float64 {
		return r.CumTotal
	})
	if err != nil {
		return nil, err
	}
	return &Figure{
		ID:     "Fig3",
		Title:  "Normalized cumulative total cost over time (10 edges)",
		XLabel: "slot",
		YLabel: "normalized cumulative cost",
		// All curves are normalized jointly, as the paper does.
		Series: labeled(fig3Combos, slotAxis(o.Horizon), normalize(curves...)),
	}, nil
}

// fig4Combos is the bar set of Fig. 4.
var fig4Combos = []string{
	"Ours",
	"Ran-Ran", "Ran-LY",
	"Greedy-Ran", "Greedy-LY",
	"TINF-Ran", "TINF-LY",
	"UCB-Ran", "UCB-LY",
	"Offline",
}

// Fig4CostVsEdges reproduces Fig. 4: total cost as the number of edges grows
// from 10 to 50, normalized by the largest value.
func Fig4CostVsEdges(o Options) (*Figure, error) {
	o = o.normalized()
	edgeCounts := []float64{10, 20, 30, 40, 50}
	raw, err := totalCosts(o, fig4Combos, len(edgeCounts), func(c *sim.Config, xi int) {
		c.Edges = int(edgeCounts[xi])
		// Cap scales with system size so the trading subproblem keeps the
		// same character at every scale.
		c.InitialCap = sim.DefaultConfig(10).InitialCap * edgeCounts[xi] / 10
	})
	if err != nil {
		return nil, err
	}
	return &Figure{
		ID:     "Fig4",
		Title:  "Normalized total cost vs number of edges",
		XLabel: "edges",
		YLabel: "normalized total cost",
		Series: labeled(fig4Combos, edgeCounts, normalize(raw...)),
	}, nil
}

// fig5Combos follows the paper's Fig. 5 line-up.
var fig5Combos = []string{"Ours", "Greedy-LY", "TINF-LY", "UCB-LY", "Offline"}

// Fig5SwitchWeight reproduces Fig. 5: total cost as the weight on the
// switching cost grows; Ours stays nearly flat because its block lengths
// grow with u_i.
func Fig5SwitchWeight(o Options) (*Figure, error) {
	o = o.normalized()
	weights := []float64{1, 2, 4, 8, 16}
	ys, err := totalCosts(o, fig5Combos, len(weights), func(c *sim.Config, xi int) {
		c.SwitchWeight = weights[xi]
	})
	if err != nil {
		return nil, err
	}
	return &Figure{
		ID:     "Fig5",
		Title:  "Total cost vs switching-cost weight",
		XLabel: "weight",
		YLabel: "total cost",
		Series: labeled(fig5Combos, weights, ys),
	}, nil
}

// capRateCombos is the line-up of the emission-rate and cap sweeps.
var capRateCombos = []string{"Ours", "UCB-Ran", "UCB-TH", "UCB-LY", "Offline"}

// Fig6EmissionRate reproduces Fig. 6: total cost as the carbon emission rate
// rho grows (multiples of the paper's 500 g/kWh). The sweep stays in the
// regime where the cost of honestly offsetting the deficit is below the
// inference advantage of the learned placement; beyond it, schemes that
// simply ignore the neutrality constraint (huge fit, see Fig. 11) would
// win the raw-cost comparison by construction.
func Fig6EmissionRate(o Options) (*Figure, error) {
	o = o.normalized()
	multipliers := []float64{0.5, 1, 1.5, 2, 2.5}
	ys, err := totalCosts(o, capRateCombos, len(multipliers), func(c *sim.Config, xi int) {
		c.EmissionRate *= multipliers[xi]
	})
	if err != nil {
		return nil, err
	}
	return &Figure{
		ID:     "Fig6",
		Title:  "Total cost vs carbon emission rate (x500 g/kWh)",
		XLabel: "rate multiplier",
		YLabel: "total cost",
		Series: labeled(capRateCombos, multipliers, ys),
	}, nil
}

// Fig7CarbonCap reproduces Fig. 7: total cost as the initial carbon cap R
// grows. Caps are expressed relative to the default scenario's total
// emissions so the sweep crosses the deficit/surplus boundary like the
// paper's 100..500 range does.
func Fig7CarbonCap(o Options) (*Figure, error) {
	o = o.normalized()
	base := sim.DefaultConfig(o.Edges).InitialCap
	caps := []float64{0.2 * base, 0.6 * base, base, 1.4 * base, 1.8 * base}
	ys, err := totalCosts(o, capRateCombos, len(caps), func(c *sim.Config, xi int) {
		c.InitialCap = caps[xi]
	})
	if err != nil {
		return nil, err
	}
	return &Figure{
		ID:     "Fig7",
		Title:  "Total cost vs initial carbon cap",
		XLabel: "cap (g)",
		YLabel: "total cost",
		Series: labeled(capRateCombos, caps, ys),
	}, nil
}
