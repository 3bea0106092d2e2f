package figures

import (
	"github.com/carbonedge/carbonedge/internal/dataset"
	"github.com/carbonedge/carbonedge/internal/models"
	"github.com/carbonedge/carbonedge/internal/numeric"
	"github.com/carbonedge/carbonedge/internal/sim"
)

// accuracyCombos mirrors the paper's Figs. 12-13 line-up.
var accuracyCombos = []string{"Ours", "Greedy-Ran", "TINF-Ran", "UCB-Ran", "Offline"}

// figAccuracy generates an accuracy-per-slot figure over a trained zoo.
func figAccuracy(o Options, id, title string, zooCfg models.TrainedZooConfig) (*Figure, error) {
	o = o.normalized()
	// The figure trains its zoo once, from its own "zoo-"+id stream, and
	// every run streams from it.
	zoo, err := models.NewTrainedZoo(zooCfg, numeric.SplitRNG(o.Seed, "zoo-"+id))
	if err != nil {
		return nil, err
	}
	// Average per-slot accuracy over runs; workload and streams vary with
	// the run's seed.
	acc := make([][]float64, len(accuracyCombos))
	for c := range acc {
		acc[c] = make([]float64, o.Horizon)
	}
	for r := 0; r < o.Runs; r++ {
		s, err := sim.NewScenario(runScenarioCfg(o, r, nil), zoo)
		if err != nil {
			return nil, err
		}
		for c, name := range accuracyCombos {
			res, err := runCombo(s, name)
			if err != nil {
				return nil, err
			}
			for t, a := range res.Accuracy {
				acc[c][t] += a / float64(o.Runs)
			}
		}
	}
	return &Figure{
		ID:     id,
		Title:  title,
		XLabel: "slot",
		YLabel: "accuracy",
		Series: labeled(accuracyCombos, slotAxis(o.Horizon), acc),
	}, nil
}

// Fig12AccuracyMNIST reproduces Fig. 12: per-slot inference accuracy over
// the MNIST-like streams.
func Fig12AccuracyMNIST(o Options) (*Figure, error) {
	return figAccuracy(o, "Fig12", "Inference accuracy over MNIST-like streams",
		models.DefaultTrainedZooConfig(dataset.MNISTLike))
}

// Fig13AccuracyCIFAR reproduces Fig. 13: per-slot inference accuracy over
// the CIFAR-like streams.
func Fig13AccuracyCIFAR(o Options) (*Figure, error) {
	return figAccuracy(o, "Fig13", "Inference accuracy over CIFAR-like streams",
		models.DefaultTrainedZooConfig(dataset.CIFARLike))
}
