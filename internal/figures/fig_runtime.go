package figures

import (
	"github.com/carbonedge/carbonedge/internal/bandit"
	"github.com/carbonedge/carbonedge/internal/sim"
	"github.com/carbonedge/carbonedge/internal/trading"
)

// Fig14AlgRuntime reproduces Fig. 14: wall-clock execution time per time
// slot of Algorithm 1 (all edges) and Algorithm 2 as the number of edges
// grows. The paper reports seconds per 15-minute slot on a commodity CPU;
// our pure-Go implementation runs in microseconds, but the shape — linear
// growth for Algorithm 1 in the edge count, constant for Algorithm 2 — is
// the claim being reproduced.
func Fig14AlgRuntime(o Options) (*Figure, error) {
	o = o.normalized()
	edgeCounts := []float64{10, 20, 30, 40, 50}
	alg1 := make([]float64, len(edgeCounts))
	alg2 := make([]float64, len(edgeCounts))
	for xi, ec := range edgeCounts {
		edges := int(ec)
		cfg := sim.DefaultConfig(edges)
		cfg.Horizon = o.Horizon
		cfg.Seed = o.Seed
		s, err := surrogateScenario(cfg)
		if err != nil {
			return nil, err
		}
		// Algorithm 1: time SelectArm+Update per slot across all edges.
		policies := make([]*bandit.BlockedTsallisINF, edges)
		for i := range policies {
			p, err := bandit.NewBlockedTsallisINF(s.NumModels(), s.Delays[i], newRNG(o.Seed, "fig14"))
			if err != nil {
				return nil, err
			}
			policies[i] = p
		}
		start := o.Clock()
		for t := 0; t < o.Horizon; t++ {
			for i := range policies {
				arm := policies[i].SelectArm()
				policies[i].Update(s.Zoo.MeanLoss(arm))
			}
		}
		alg1[xi] = o.Clock().Sub(start).Seconds() / float64(o.Horizon)

		// Algorithm 2: time Decide+Observe per slot.
		trader, err := sim.TraderOurs(s, newRNG(o.Seed, "fig14-trader"))
		if err != nil {
			return nil, err
		}
		emission := s.MeanEmissionPerSlot()
		start = o.Clock()
		for t := 0; t < o.Horizon; t++ {
			q := trading.Quote{Buy: s.Prices.Buy[t], Sell: s.Prices.Sell[t]}
			d := trader.Decide(t, q)
			trader.Observe(t, emission, q, d)
		}
		alg2[xi] = o.Clock().Sub(start).Seconds() / float64(o.Horizon)
	}
	return &Figure{
		ID:     "Fig14",
		Title:  "Algorithm running time per slot vs number of edges",
		XLabel: "edges",
		Series: []Series{
			{Label: "Algorithm1", X: edgeCounts, Y: alg1},
			{Label: "Algorithm2", X: edgeCounts, Y: alg2},
		},
	}, nil
}
