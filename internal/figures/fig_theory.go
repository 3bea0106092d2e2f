package figures

import (
	"github.com/carbonedge/carbonedge/internal/sim"
)

// horizonSweep is the T axis of the regret/fit figures, centered on the
// paper's two-day, 160-slot horizon.
var horizonSweep = []float64{40, 80, 160, 240, 320}

// horizonScenario builds run r's scenario at the xi-th horizon of the sweep.
func horizonScenario(o Options, xi, r int) (*sim.Scenario, error) {
	return runScenario(o, r, func(c *sim.Config) {
		c.Horizon = int(horizonSweep[xi])
		// Scale the cap with T so the trading subproblem stays comparable
		// across horizons.
		c.InitialCap = c.InitialCap * horizonSweep[xi] / 160
	})
}

// Fig10Regret reproduces Fig. 10: the regret for P0 (total cost of the
// online scheme minus the Offline optimum on the same instance) as the
// horizon grows. Sub-linear growth means regret/T shrinks; Ours grows
// slowest.
func Fig10Regret(o Options) (*Figure, error) {
	o = o.normalized()
	combos := []string{"Ours", "TINF-LY", "UCB-LY", "Greedy-LY"}
	ys, err := sweep(o, len(combos), len(horizonSweep), func(si, xi, r int) (float64, error) {
		s, err := horizonScenario(o, xi, r)
		if err != nil {
			return 0, err
		}
		off, err := sim.Offline(s)
		if err != nil {
			return 0, err
		}
		res, err := runCombo(s, combos[si])
		if err != nil {
			return 0, err
		}
		return sim.RegretP0(res, off), nil
	})
	if err != nil {
		return nil, err
	}
	return &Figure{
		ID:     "Fig10",
		Title:  "Regret for P0 vs time horizon",
		XLabel: "horizon T",
		YLabel: "regret",
		Series: labeled(combos, horizonSweep, ys),
	}, nil
}

// Fig11Fit reproduces Fig. 11: the long-term constraint violation (fit) as
// the horizon grows; sub-linear for Ours (time-averaged fit vanishes).
func Fig11Fit(o Options) (*Figure, error) {
	o = o.normalized()
	combos := []string{"Ours", "UCB-Ran", "UCB-TH", "UCB-LY"}
	ys, err := sweep(o, len(combos), len(horizonSweep), func(si, xi, r int) (float64, error) {
		s, err := horizonScenario(o, xi, r)
		if err != nil {
			return 0, err
		}
		res, err := runCombo(s, combos[si])
		if err != nil {
			return 0, err
		}
		return res.Fit, nil
	})
	if err != nil {
		return nil, err
	}
	return &Figure{
		ID:     "Fig11",
		Title:  "Fit (long-term constraint violation) vs time horizon",
		XLabel: "horizon T",
		YLabel: "fit",
		Series: labeled(combos, horizonSweep, ys),
	}, nil
}
