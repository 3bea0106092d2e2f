package figures

import (
	"sort"

	"github.com/carbonedge/carbonedge/internal/dataset"
	"github.com/carbonedge/carbonedge/internal/market"
	"github.com/carbonedge/carbonedge/internal/models"
	"github.com/carbonedge/carbonedge/internal/numeric"
	"github.com/carbonedge/carbonedge/internal/sim"
)

// The ablations quantify the design choices DESIGN.md calls out: what the
// block schedule buys under switching cost, how sensitive Algorithm 2 is to
// its step sizes, and whether the price-prediction extension (the paper's
// future work) pays off.

// Ablations returns the named ablation generators.
func Ablations() map[string]func(Options) (*Figure, error) {
	return map[string]func(Options) (*Figure, error){
		"blocking":   AblationBlocking,
		"stepsizes":  AblationStepSizes,
		"prediction": AblationPricePrediction,
		"substrate":  AblationSubstrate,
	}
}

// AblationNames returns the ablation keys in sorted order.
func AblationNames() []string {
	m := Ablations()
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

// AblationBlocking isolates the paper's Insight 1: the same Tsallis-INF
// learner with and without the block schedule, under a sweep of the
// switching-cost weight. Blocking must keep the cumulative switching cost
// bounded while the unblocked learner's grows roughly linearly with the
// weight.
func AblationBlocking(o Options) (*Figure, error) {
	o = o.normalized()
	weights := []float64{1, 2, 4, 8, 16}
	labels := []string{"Blocked", "Unblocked"}
	policies := []sim.PolicyFactory{sim.PolicyOurs, sim.PolicyTsallisINF}
	ys, err := sweep(o, len(labels), len(weights), func(si, xi, r int) (float64, error) {
		s, err := runScenario(o, r, func(c *sim.Config) { c.SwitchWeight = weights[xi] })
		if err != nil {
			return 0, err
		}
		res, err := sim.Run(s, labels[si], policies[si], sim.TraderOurs)
		if err != nil {
			return 0, err
		}
		return res.Cost.Switching, nil
	})
	if err != nil {
		return nil, err
	}
	return &Figure{
		ID:     "AblBlocking",
		Title:  "Switching cost: blocked vs unblocked Tsallis-INF",
		XLabel: "switch weight",
		YLabel: "cumulative switching cost",
		Series: labeled(labels, weights, ys),
	}, nil
}

// AblationStepSizes sweeps a common multiplier on Algorithm 2's step sizes
// gamma1/gamma2 and reports trading cost and fit: too-small steps leave the
// constraint uncovered (large fit), too-large steps churn volume (higher
// cost). The Theorem-2 defaults sit in the flat middle.
func AblationStepSizes(o Options) (*Figure, error) {
	o = o.normalized()
	multipliers := []float64{0.25, 0.5, 1, 2, 4}
	costs := make([]float64, len(multipliers))
	fits := make([]float64, len(multipliers))
	for xi, mult := range multipliers {
		for r := 0; r < o.Runs; r++ {
			s, err := runScenario(o, r, nil)
			if err != nil {
				return nil, err
			}
			res, err := sim.Run(s, "Ours", sim.PolicyOurs, sim.TraderOursScaled(mult))
			if err != nil {
				return nil, err
			}
			costs[xi] += res.Cost.Trading / float64(o.Runs)
			fits[xi] += res.Fit / float64(o.Runs)
		}
	}
	return &Figure{
		ID:     "AblStepSizes",
		Title:  "Algorithm 2 sensitivity to step-size scaling",
		XLabel: "gamma multiplier",
		YLabel: "value",
		Series: []Series{
			{Label: "TradingCost", X: multipliers, Y: costs},
			{Label: "Fit", X: multipliers, Y: fits},
		},
	}, nil
}

// AblationSubstrate checks that the headline conclusion — Ours beats the
// strongest baseline family — is substrate-independent: the same comparison
// on the surrogate (parametric-loss) zoo and on a genuinely trained
// neural-network zoo. Series report the fractional cost reduction of Ours
// against each baseline (positive = Ours cheaper), one X point per
// baseline, for the two substrates.
func AblationSubstrate(o Options) (*Figure, error) {
	o = o.normalized()
	baselines := []string{"Greedy-LY", "TINF-LY", "UCB-LY"}
	fig := &Figure{
		ID:     "AblSubstrate",
		Title:  "Ours vs baselines: surrogate vs trained-NN loss substrate",
		XLabel: "baseline index",
		YLabel: "cost reduction of Ours",
	}
	x := make([]float64, len(baselines))
	for i := range x {
		x[i] = float64(i)
	}

	// reductions plays Ours and then the baselines on each run's one
	// scenario and averages Ours' reduction against each baseline.
	all := append([]string{"Ours"}, baselines...)
	reductions := func(scenario func(cfg sim.Config) (*sim.Scenario, error)) ([]float64, error) {
		out := make([]float64, len(baselines))
		for r := 0; r < o.Runs; r++ {
			s, err := scenario(runScenarioCfg(o, r, nil))
			if err != nil {
				return nil, err
			}
			totals := make([]float64, len(all))
			for i, name := range all {
				res, err := runCombo(s, name)
				if err != nil {
					return nil, err
				}
				totals[i] = res.Cost.Total()
			}
			for i := range baselines {
				out[i] += reduction(totals[0], totals[i+1]) / float64(o.Runs)
			}
		}
		return out, nil
	}

	surrogate, err := reductions(surrogateScenario)
	if err != nil {
		return nil, err
	}
	fig.Series = append(fig.Series, Series{Label: "Surrogate", X: x, Y: surrogate})

	// Trained-NN substrate: one zoo, kept small; workload and seeds vary.
	trainedZoo, err := models.NewTrainedZoo(models.TrainedZooConfig{
		Dataset: dataset.MNISTLike,
		TrainN:  500, TestN: 500, Epochs: 2, LR: 0.05, BatchSize: 16,
	}, numeric.SplitRNG(o.Seed, "abl-zoo"))
	if err != nil {
		return nil, err
	}
	trained, err := reductions(func(cfg sim.Config) (*sim.Scenario, error) {
		return sim.NewScenario(cfg, trainedZoo)
	})
	if err != nil {
		return nil, err
	}
	fig.Series = append(fig.Series, Series{Label: "TrainedNN", X: x, Y: trained})
	return fig, nil
}

// AblationPricePrediction compares vanilla Algorithm 2 against the
// AR(1)-predictive variant (the paper's future-work extension) on scenarios
// with strongly mean-reverting (predictable) allowance prices and a
// structural deficit. Reported series: trading cost and fit per variant
// across a volatility sweep.
func AblationPricePrediction(o Options) (*Figure, error) {
	o = o.normalized()
	volatilities := []float64{0.35, 0.7, 1.4}
	labels := []string{"Vanilla", "Predictive"}
	traders := []sim.TraderFactory{sim.TraderOurs, sim.TraderPredictive}
	ys, err := sweep(o, len(labels), len(volatilities), func(si, xi, r int) (float64, error) {
		s, err := runScenario(o, r, func(c *sim.Config) {
			c.Prices = market.DefaultPriceConfig()
			c.Prices.Reversion = 0.25 // predictable regime
			c.Prices.Volatility = volatilities[xi]
			// A tight cap forces sustained buying so price timing
			// matters.
			c.InitialCap = 0.5
		})
		if err != nil {
			return 0, err
		}
		res, err := sim.Run(s, labels[si], sim.PolicyOurs, traders[si])
		if err != nil {
			return 0, err
		}
		return res.Cost.Trading, nil
	})
	if err != nil {
		return nil, err
	}
	return &Figure{
		ID:     "AblPrediction",
		Title:  "Vanilla vs AR(1)-predictive primal-dual trading",
		XLabel: "price volatility",
		YLabel: "trading cost",
		Series: labeled(labels, volatilities, ys),
	}, nil
}
