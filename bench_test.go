// Benchmarks regenerating every figure of the paper's evaluation section
// (Figs. 3-14) plus micro-benchmarks of the two online algorithms' per-slot
// steps. Each BenchmarkFigN times one full regeneration of that figure's
// data at reduced repetition counts; run cmd/benchgen for the full tables.
package carbonedge_test

import (
	"math/rand"
	"testing"

	"github.com/carbonedge/carbonedge/internal/bandit"
	"github.com/carbonedge/carbonedge/internal/dataset"
	"github.com/carbonedge/carbonedge/internal/figures"
	"github.com/carbonedge/carbonedge/internal/models"
	"github.com/carbonedge/carbonedge/internal/nn"
	"github.com/carbonedge/carbonedge/internal/numeric"
	"github.com/carbonedge/carbonedge/internal/sim"
	"github.com/carbonedge/carbonedge/internal/trading"
)

// benchOpts keeps figure benchmarks quick while preserving their structure.
func benchOpts() figures.Options {
	return figures.Options{Runs: 1, Seed: 1, Edges: 5, Horizon: 80}
}

func benchFigure(b *testing.B, gen func(figures.Options) (*figures.Figure, error), o figures.Options) {
	b.Helper()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fig, err := gen(o)
		if err != nil {
			b.Fatal(err)
		}
		if len(fig.Series) == 0 {
			b.Fatal("empty figure")
		}
	}
}

func BenchmarkFig3CumulativeCost(b *testing.B) {
	benchFigure(b, figures.Fig3CumulativeCost, benchOpts())
}

func BenchmarkFig4TotalCostVsEdges(b *testing.B) {
	benchFigure(b, figures.Fig4CostVsEdges, benchOpts())
}

func BenchmarkFig5SwitchWeight(b *testing.B) {
	benchFigure(b, figures.Fig5SwitchWeight, benchOpts())
}

func BenchmarkFig6EmissionRate(b *testing.B) {
	benchFigure(b, figures.Fig6EmissionRate, benchOpts())
}

func BenchmarkFig7CarbonCap(b *testing.B) {
	benchFigure(b, figures.Fig7CarbonCap, benchOpts())
}

func BenchmarkFig8SelectionHistogram(b *testing.B) {
	benchFigure(b, figures.Fig8SelectionHistogram, benchOpts())
}

func BenchmarkFig9TradingVolume(b *testing.B) {
	benchFigure(b, figures.Fig9TradingVolume, benchOpts())
}

func BenchmarkFig10Regret(b *testing.B) {
	benchFigure(b, figures.Fig10Regret, benchOpts())
}

func BenchmarkFig11Fit(b *testing.B) {
	benchFigure(b, figures.Fig11Fit, benchOpts())
}

// The accuracy figures train real networks; a tiny zoo keeps the benchmark
// honest about the full pipeline without minute-scale iterations.
func benchAccuracyOpts() figures.Options {
	return figures.Options{Runs: 1, Seed: 1, Edges: 2, Horizon: 40}
}

func BenchmarkFig12AccuracyMNIST(b *testing.B) {
	zooCfg := models.DefaultTrainedZooConfig(dataset.MNISTLike)
	zooCfg.TrainN, zooCfg.TestN, zooCfg.Epochs = 200, 200, 1
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := benchAccuracyPipeline(zooCfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig13AccuracyCIFAR(b *testing.B) {
	zooCfg := models.DefaultTrainedZooConfig(dataset.CIFARLike)
	zooCfg.TrainN, zooCfg.TestN, zooCfg.Epochs = 150, 150, 1
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := benchAccuracyPipeline(zooCfg); err != nil {
			b.Fatal(err)
		}
	}
}

// benchAccuracyPipeline runs the zoo-train + stream + Ours pipeline once.
func benchAccuracyPipeline(zooCfg models.TrainedZooConfig) error {
	zoo, err := models.NewTrainedZoo(zooCfg, numeric.SplitRNG(1, "bench-zoo"))
	if err != nil {
		return err
	}
	cfg := sim.DefaultConfig(2)
	cfg.Horizon = 40
	s, err := sim.NewScenario(cfg, zoo)
	if err != nil {
		return err
	}
	_, err = sim.Run(s, "Ours", sim.PolicyOurs, sim.TraderOurs)
	return err
}

func BenchmarkFig14AlgRuntime(b *testing.B) {
	benchFigure(b, figures.Fig14AlgRuntime, figures.Options{Runs: 1, Seed: 1, Horizon: 40})
}

// --- Ablation benchmarks (design-choice studies from DESIGN.md). ---

func BenchmarkAblationBlocking(b *testing.B) {
	benchFigure(b, figures.AblationBlocking, benchOpts())
}

func BenchmarkAblationStepSizes(b *testing.B) {
	benchFigure(b, figures.AblationStepSizes, benchOpts())
}

func BenchmarkAblationPricePrediction(b *testing.B) {
	benchFigure(b, figures.AblationPricePrediction, benchOpts())
}

// --- Micro-benchmarks: the per-slot cost of each algorithm. ---

// BenchmarkAlgorithm1Slot measures one SelectArm+Update cycle of the
// switching-aware bandit (the per-edge per-slot work of Algorithm 1).
func BenchmarkAlgorithm1Slot(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	p, err := bandit.NewBlockedTsallisINF(6, 1.2, rng)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		arm := p.SelectArm()
		p.Update(0.3 + 0.1*float64(arm))
	}
}

// BenchmarkAlgorithm2Slot measures one Decide+Observe cycle of the online
// primal-dual trader (the per-slot work of Algorithm 2).
func BenchmarkAlgorithm2Slot(b *testing.B) {
	cfg := trading.DefaultPrimalDualConfig(3, 160)
	tr, err := trading.NewPrimalDual(cfg)
	if err != nil {
		b.Fatal(err)
	}
	q := trading.Quote{Buy: 8, Sell: 7.2}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := tr.Decide(i, q)
		tr.Observe(i, 0.02, q, d)
	}
}

// BenchmarkFullScenarioRun measures one complete 10-edge, 160-slot run of
// the full system (Algorithm 1 + Algorithm 2 + substrates).
func BenchmarkFullScenarioRun(b *testing.B) {
	zoo, err := models.DefaultSurrogateZoo(numeric.SplitRNG(1, "zoo"))
	if err != nil {
		b.Fatal(err)
	}
	s, err := sim.NewScenario(sim.DefaultConfig(10), zoo)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Run(s, "Ours", sim.PolicyOurs, sim.TraderOurs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNNForward measures one forward pass of the largest MNIST-family
// network (the batched path at batch 1), the unit of inference work behind
// the per-sample energy numbers.
func BenchmarkNNForward(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	dist, err := dataset.NewDistribution(dataset.MNISTLike, rng)
	if err != nil {
		b.Fatal(err)
	}
	x := dist.Sample(rng).X
	zooCfg := models.DefaultTrainedZooConfig(dataset.MNISTLike)
	zooCfg.TrainN, zooCfg.TestN, zooCfg.Epochs = 50, 50, 1
	zoo, err := models.NewTrainedZoo(zooCfg, rng)
	if err != nil {
		b.Fatal(err)
	}
	net := zoo.Network(1) // cnn-l
	in := &nn.Tensor{Shape: append([]int{1}, x.Shape...), Data: x.Data}
	arena := nn.NewArena()
	net.ForwardBatch(in, arena) // warm the arena: steady state is 0 allocs
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		arena.Reset()
		net.ForwardBatch(in, arena)
	}
}
