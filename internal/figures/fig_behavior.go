package figures

import "github.com/carbonedge/carbonedge/internal/sim"

// Fig8SelectionHistogram reproduces Fig. 8: for a single randomly chosen
// edge, the number of times each model is selected against that model's
// expected loss. Ours selects low-loss models most; Greedy sticks to the
// cheapest; Offline sticks to the best.
func Fig8SelectionHistogram(o Options) (*Figure, error) {
	o = o.normalized()
	s, err := runScenario(o, 0, nil)
	if err != nil {
		return nil, err
	}
	edge := newRNG(o.Seed, "fig8-edge").Intn(o.Edges)

	fig := &Figure{
		ID:     "Fig8",
		Title:  "Selections per model vs expected loss (one edge)",
		XLabel: "expected loss",
		YLabel: "selections",
	}
	// X axis: per-model expected loss, in model-index order.
	x := make([]float64, s.NumModels())
	for n := range x {
		x[n] = s.Zoo.MeanLoss(n)
	}
	for _, name := range []string{"Ours", "Greedy-LY", "Offline"} {
		res, err := runCombo(s, name)
		if err != nil {
			return nil, err
		}
		ys := make([]float64, s.NumModels())
		for n := range ys {
			ys[n] = float64(res.Selections[edge][n])
		}
		fig.Series = append(fig.Series, Series{Label: name, X: x, Y: ys})
	}
	return fig, nil
}

// Fig9TradingVolume reproduces Fig. 9: the normalized net allowance
// purchase per slot against the inference workload, plus the average unit
// purchase price per scheme. Ours tracks the workload; UCB-Ran and UCB-TH
// do not.
func Fig9TradingVolume(o Options) (*Figure, error) {
	o = o.normalized()
	names := []string{"Ours", "UCB-Ran", "UCB-TH"}
	curves, err := meanCurves(o, names, func(r *sim.Result) []float64 {
		return r.NetBuySeries()
	})
	if err != nil {
		return nil, err
	}
	workload, err := meanCurves(o, []string{"Ours"}, func(r *sim.Result) []float64 {
		out := make([]float64, len(r.WorkloadTotal))
		for i, w := range r.WorkloadTotal {
			out[i] = float64(w)
		}
		return out
	})
	if err != nil {
		return nil, err
	}

	fig := &Figure{
		ID:     "Fig9",
		Title:  "Normalized net allowance purchase vs workload",
		XLabel: "slot",
		YLabel: "normalized value",
	}
	x := slotAxis(o.Horizon)
	fig.Series = append(fig.Series, Series{Label: "Workload", X: x, Y: normalize(workload[0])[0]})
	for i, name := range names {
		fig.Series = append(fig.Series, Series{Label: name, X: x, Y: normalize(curves[i])[0]})
	}

	// Companion series: average unit purchase price per scheme (single X
	// point per scheme index).
	priceX := make([]float64, len(names))
	priceY := make([]float64, len(names))
	for i, name := range names {
		avg, err := avgUnitBuyPrice(o, name)
		if err != nil {
			return nil, err
		}
		priceX[i] = float64(i)
		priceY[i] = avg
	}
	fig.Series = append(fig.Series, Series{Label: "UnitBuyPrice", X: priceX, Y: priceY})
	return fig, nil
}

// avgUnitBuyPrice averages Result.AvgBuyPrice over the runs that bought
// anything, each on a fresh scenario.
func avgUnitBuyPrice(o Options, name string) (float64, error) {
	total, counted := 0.0, 0
	for r := 0; r < o.Runs; r++ {
		res, err := playRun(o, r, name, nil)
		if err != nil {
			return 0, err
		}
		if res.AvgBuyPrice > 0 {
			total += res.AvgBuyPrice
			counted++
		}
	}
	if counted == 0 {
		return 0, nil
	}
	return total / float64(counted), nil
}
