// Llmedge explores the paper's second future-work direction: serving Large
// Language Models at the edge with quantization-aware carbon/energy control.
// The model zoo holds two LLM families, each in fp16 / int8 / int4
// quantizations — multi-gigabyte downloads, per-request energy thousands of
// times the CNN numbers, and a quality/energy trade-off per quantization
// level. The same Algorithm 1 + Algorithm 2 controller handles it untouched:
// the block schedule stretches to amortize the huge download cost, and the
// trader covers the correspondingly larger emissions.
package main

import (
	"fmt"
	"io"
	"os"
	"sort"
	"text/tabwriter"

	"github.com/carbonedge/carbonedge/internal/models"
	"github.com/carbonedge/carbonedge/internal/sim"
)

func main() {
	if err := run(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "llmedge:", err)
		os.Exit(1)
	}
}

// llmZoo builds six LLM variants: two base models x three quantizations.
// Loss here is 1 - answer quality; energy is kWh per request (an edge LLM
// inference costs on the order of 1e-4 kWh, ~1000x a CNN classification);
// sizes are the quantized checkpoint sizes.
func llmZoo() (models.Zoo, error) {
	ms := []models.SurrogateModel{
		{Name: "llm7b-fp16", MeanLoss: 0.30, LossSigma: 0.15, Accuracy: 0.74,
			SizeBytes: 14e9, PhiKWh: 4.0e-4, BaseLatencySec: 1.8},
		{Name: "llm7b-int8", MeanLoss: 0.33, LossSigma: 0.15, Accuracy: 0.71,
			SizeBytes: 7e9, PhiKWh: 2.4e-4, BaseLatencySec: 1.1},
		{Name: "llm7b-int4", MeanLoss: 0.40, LossSigma: 0.16, Accuracy: 0.64,
			SizeBytes: 3.5e9, PhiKWh: 1.5e-4, BaseLatencySec: 0.7},
		{Name: "llm3b-fp16", MeanLoss: 0.42, LossSigma: 0.16, Accuracy: 0.62,
			SizeBytes: 6e9, PhiKWh: 1.9e-4, BaseLatencySec: 0.9},
		{Name: "llm3b-int8", MeanLoss: 0.46, LossSigma: 0.17, Accuracy: 0.58,
			SizeBytes: 3e9, PhiKWh: 1.2e-4, BaseLatencySec: 0.55},
		{Name: "llm3b-int4", MeanLoss: 0.55, LossSigma: 0.18, Accuracy: 0.50,
			SizeBytes: 1.5e9, PhiKWh: 0.8e-4, BaseLatencySec: 0.35},
	}
	return models.NewSurrogateZoo(ms, 8000)
}

func run(stdout io.Writer) error {
	zoo, err := llmZoo()
	if err != nil {
		return err
	}
	cfg := sim.DefaultConfig(8)
	cfg.Seed = 5
	// LLM requests are fewer but heavier than CNN classifications.
	cfg.MeanPeakWorkload = 20
	// Shipping a multi-GB checkpoint over the backhaul takes minutes, so
	// switching is drastically more expensive than for CNNs.
	cfg.SwitchWeight = 60
	// Emissions are ~1000x larger; the cap scales accordingly.
	cfg.InitialCap = 300

	scenario, err := sim.NewScenario(cfg, zoo)
	if err != nil {
		return err
	}

	fmt.Fprintln(stdout, "LLM-at-the-edge: 8 edges, quantized model zoo")
	fmt.Fprintln(stdout, "model           size     kWh/req   quality-loss")
	for n := 0; n < zoo.NumModels(); n++ {
		info := zoo.Info(n)
		fmt.Fprintf(stdout, "%-14s  %4.1f GB  %.1e   %.2f\n",
			info.Name, float64(info.SizeBytes)/1e9, info.PhiKWh, zoo.MeanLoss(n))
	}
	fmt.Fprintln(stdout)

	type row struct {
		name     string
		total    float64
		switches int
		fit      float64
	}
	var rows []row
	for _, name := range []string{"Ours", "TINF-LY", "UCB-LY", "Greedy-LY"} {
		combo, err := sim.ComboByName(name)
		if err != nil {
			return err
		}
		res, err := sim.Run(scenario, combo.Name, combo.Policy, combo.Trader)
		if err != nil {
			return err
		}
		rows = append(rows, row{name, res.Cost.Total(), res.Switches, res.Fit})
	}
	off, err := sim.Offline(scenario)
	if err != nil {
		return err
	}
	rows = append(rows, row{"Offline", off.Cost.Total(), off.Switches, off.Fit})

	sort.Slice(rows, func(i, j int) bool { return rows[i].total < rows[j].total })
	tw := tabwriter.NewWriter(stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "scheme\ttotal cost\tmodel downloads\tfit (g)")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%.1f\t%d\t%.3f\n", r.name, r.total, r.switches, r.fit)
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Fprintln(stdout, "\nwith minute-scale downloads, the block schedule is what keeps")
	fmt.Fprintln(stdout, "the learned placement viable: compare the download counts above.")
	return nil
}
