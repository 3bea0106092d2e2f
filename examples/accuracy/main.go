// Accuracy runs the Figs. 12-13 pipeline over genuinely trained neural
// networks: it builds the MNIST-like model zoo (six networks of three
// architectures trained from scratch in pure Go), streams synthetic data to
// the edges, and reports the per-scheme inference accuracy alongside total
// cost — showing that the bandit's loss-driven selection also wins on the
// metric users feel.
package main

import (
	"fmt"
	"io"
	"os"
	"text/tabwriter"

	"github.com/carbonedge/carbonedge/internal/dataset"
	"github.com/carbonedge/carbonedge/internal/models"
	"github.com/carbonedge/carbonedge/internal/numeric"
	"github.com/carbonedge/carbonedge/internal/sim"
)

func main() {
	if err := run(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "accuracy:", err)
		os.Exit(1)
	}
}

func run(stdout io.Writer) error {
	const seed = 3
	fmt.Fprintln(stdout, "training the MNIST-like model zoo (6 networks)...")
	zooCfg := models.DefaultTrainedZooConfig(dataset.MNISTLike)
	zooCfg.TrainN = 800
	zooCfg.TestN = 1000
	zooCfg.Epochs = 2
	zoo, err := models.NewTrainedZoo(zooCfg, numeric.SplitRNG(seed, "zoo"))
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, "\nmodel zoo:")
	tw := tabwriter.NewWriter(stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "model\tparams (KB)\tenergy (kWh/sample)\tmean loss\taccuracy")
	for n := 0; n < zoo.NumModels(); n++ {
		info := zoo.Info(n)
		fmt.Fprintf(tw, "%s\t%.0f\t%.2g\t%.3f\t%.3f\n",
			info.Name, float64(info.SizeBytes)/1e3, info.PhiKWh, zoo.MeanLoss(n), zoo.MeanAccuracy(n))
	}
	if err := tw.Flush(); err != nil {
		return err
	}

	cfg := sim.DefaultConfig(5)
	cfg.Seed = seed
	scenario, err := sim.NewScenario(cfg, zoo)
	if err != nil {
		return err
	}

	fmt.Fprintln(stdout, "\nstreaming inference (160 slots, 5 edges):")
	tw = tabwriter.NewWriter(stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "scheme\taccuracy\ttotal cost\tfit (g)")
	for _, name := range []string{"Ours", "Greedy-Ran", "TINF-Ran", "UCB-Ran"} {
		combo, err := sim.ComboByName(name)
		if err != nil {
			return err
		}
		res, err := sim.Run(scenario, combo.Name, combo.Policy, combo.Trader)
		if err != nil {
			return err
		}
		fmt.Fprintf(tw, "%s\t%.3f\t%.1f\t%.3f\n", name, res.OverallAccuracy, res.Cost.Total(), res.Fit)
	}
	off, err := sim.Offline(scenario)
	if err != nil {
		return err
	}
	fmt.Fprintf(tw, "Offline\t%.3f\t%.1f\t%.3f\n", off.OverallAccuracy, off.Cost.Total(), off.Fit)
	return tw.Flush()
}
