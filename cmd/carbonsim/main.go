// Command carbonsim runs one scenario of the carbon-neutral edge-inference
// system and prints a cost comparison across every policy/trader combination
// plus the clairvoyant Offline scheme.
//
// Usage:
//
//	carbonsim                          # default 10-edge, 160-slot scenario
//	carbonsim -edges 50 -horizon 320
//	carbonsim -combo Ours              # run a single combination
//	carbonsim -cap 5 -rate 1000 -switch-weight 4
//	carbonsim -zoo mnist               # use a trained neural-network zoo
//	carbonsim -edges 100000 -horizon 8 -mean-workload 4 -combo Ours -shards 4
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"text/tabwriter"

	"github.com/carbonedge/carbonedge/internal/dataset"
	"github.com/carbonedge/carbonedge/internal/energy"
	"github.com/carbonedge/carbonedge/internal/market"
	"github.com/carbonedge/carbonedge/internal/models"
	"github.com/carbonedge/carbonedge/internal/numeric"
	"github.com/carbonedge/carbonedge/internal/profiling"
	"github.com/carbonedge/carbonedge/internal/sim"
	"github.com/carbonedge/carbonedge/internal/trace"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "carbonsim:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) (err error) {
	fs := flag.NewFlagSet("carbonsim", flag.ContinueOnError)
	var (
		edges        = fs.Int("edges", 10, "number of edges")
		horizon      = fs.Int("horizon", 160, "number of 15-minute slots")
		seed         = fs.Int64("seed", 1, "random seed")
		cap          = fs.Float64("cap", -1, "initial carbon cap in grams (-1 = default)")
		rate         = fs.Float64("rate", -1, fmt.Sprintf("carbon emission rate g/kWh (-1 = default %g)", energy.DefaultEmissionRate))
		switchWeight = fs.Float64("switch-weight", 1, "weight on the model switching cost")
		combo        = fs.String("combo", "", "run only this combination (e.g. Ours, UCB-LY)")
		workers      = fs.Int("workers", 1, "edge-stepping workers per shard (1 = serial; results are identical for any count)")
		shards       = fs.Int("shards", 1, "contiguous edge shards per slot (results are identical for any count)")
		meanWorkload = fs.Float64("mean-workload", -1, "average peak samples/slot per edge (-1 = default 200; lower it for very large fleets)")
		zooKind      = fs.String("zoo", "surrogate", "model zoo: surrogate | mnist | cifar | mnist-q8 | cifar-q8")
		jsonOut      = fs.String("json", "", "write full per-slot results (JSON lines, one object per scheme) to this file")
		workloadCSV  = fs.String("workload-csv", "", "load the workload trace from this CSV instead of generating it")
		pricesCSV    = fs.String("prices-csv", "", "load the allowance price trace from this CSV instead of generating it")
		exportTraces = fs.String("export-traces", "", "write the scenario's workload.csv and prices.csv into this directory")
		cpuProf      = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memProf      = fs.String("memprofile", "", "write an allocs heap profile to this file")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	stopProf, err := profiling.Start(*cpuProf, *memProf)
	if err != nil {
		return err
	}
	defer func() {
		if perr := stopProf(); perr != nil && err == nil {
			err = perr
		}
	}()

	cfg := sim.DefaultConfig(*edges)
	cfg.Horizon = *horizon
	cfg.Seed = *seed
	cfg.SwitchWeight = *switchWeight
	if err := errors.Join(
		override(&cfg.InitialCap, "cap", *cap),
		override(&cfg.EmissionRate, "rate", *rate),
		override(&cfg.MeanPeakWorkload, "mean-workload", *meanWorkload),
	); err != nil {
		return err
	}

	zoo, err := buildZoo(*zooKind, *seed)
	if err != nil {
		return err
	}
	workloadTrace, priceTrace, err := loadTraces(*workloadCSV, *pricesCSV)
	if err != nil {
		return err
	}
	if workloadTrace != nil {
		cfg.Horizon = len(workloadTrace)
		cfg.Edges = len(workloadTrace[0])
	}
	if priceTrace != nil {
		cfg.Horizon = priceTrace.Horizon()
	}
	scenario, err := sim.NewScenarioWithTraces(cfg, zoo, workloadTrace, priceTrace)
	if err != nil {
		return err
	}
	if *exportTraces != "" {
		if err := exportScenarioTraces(*exportTraces, scenario); err != nil {
			return err
		}
	}

	var results []*sim.Result
	if *combo != "" {
		c, err := sim.ComboByName(*combo)
		if err != nil {
			return err
		}
		res, err := sim.RunSharded(scenario, c.Name, c.Policy, c.Trader, *shards, *workers)
		if err != nil {
			return err
		}
		results = append(results, res)
	} else {
		for _, c := range sim.Combos() {
			res, err := sim.RunSharded(scenario, c.Name, c.Policy, c.Trader, *shards, *workers)
			if err != nil {
				return fmt.Errorf("run %s: %w", c.Name, err)
			}
			results = append(results, res)
		}
	}
	offline, err := sim.Offline(scenario)
	if err != nil {
		return err
	}
	results = append(results, offline)

	sort.Slice(results, func(i, j int) bool {
		return results[i].Cost.Total() < results[j].Cost.Total()
	})

	if *jsonOut != "" {
		f, err := os.Create(*jsonOut)
		if err != nil {
			return err
		}
		defer f.Close()
		for _, r := range results {
			if err := r.WriteJSON(f); err != nil {
				return err
			}
		}
	}

	fmt.Fprintf(stdout, "scenario: %d edges, %d slots, cap=%.3g g, rate=%.4g g/kWh, seed=%d, zoo=%s\n\n",
		cfg.Edges, cfg.Horizon, cfg.InitialCap, cfg.EmissionRate, cfg.Seed, *zooKind)
	tw := tabwriter.NewWriter(stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "scheme\ttotal\tinfer-loss\tcompute\tswitching\ttrading\tfit\tswitches\taccuracy")
	for _, r := range results {
		fmt.Fprintf(tw, "%s\t%.2f\t%.2f\t%.2f\t%.2f\t%.2f\t%.4f\t%d\t%.3f\n",
			r.Name, r.Cost.Total(), r.Cost.InferLoss, r.Cost.Compute,
			r.Cost.Switching, r.Cost.Trading, r.Fit, r.Switches, r.OverallAccuracy)
	}
	return tw.Flush()
}

// override sets *dst to flag -name's value v unless v is negative, the "keep
// the default" sentinel. NaN is neither and is refused; any other value is
// left to the scenario's own checks.
func override(dst *float64, name string, v float64) error {
	if math.IsNaN(v) {
		return fmt.Errorf("-%s: NaN is not a value", name)
	}
	if v >= 0 {
		*dst = v
	}
	return nil
}

// loadTraces reads the optional workload/price CSVs.
func loadTraces(workloadPath, pricesPath string) ([][]int, *market.Prices, error) {
	var workloadTrace [][]int
	var priceTrace *market.Prices
	if workloadPath != "" {
		f, err := os.Open(workloadPath)
		if err != nil {
			return nil, nil, err
		}
		defer f.Close()
		workloadTrace, err = trace.ReadWorkload(f)
		if err != nil {
			return nil, nil, fmt.Errorf("read workload trace: %w", err)
		}
	}
	if pricesPath != "" {
		f, err := os.Open(pricesPath)
		if err != nil {
			return nil, nil, err
		}
		defer f.Close()
		priceTrace, err = trace.ReadPrices(f)
		if err != nil {
			return nil, nil, fmt.Errorf("read price trace: %w", err)
		}
	}
	return workloadTrace, priceTrace, nil
}

// exportScenarioTraces writes the scenario's realized traces as CSV.
func exportScenarioTraces(dir string, s *sim.Scenario) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	wf, err := os.Create(filepath.Join(dir, "workload.csv"))
	if err != nil {
		return err
	}
	defer wf.Close()
	if err := trace.WriteWorkload(wf, s.Workload); err != nil {
		return fmt.Errorf("write workload trace: %w", err)
	}
	pf, err := os.Create(filepath.Join(dir, "prices.csv"))
	if err != nil {
		return err
	}
	defer pf.Close()
	if err := trace.WritePrices(pf, s.Prices); err != nil {
		return fmt.Errorf("write price trace: %w", err)
	}
	return nil
}

// buildZoo constructs the requested model zoo. The "-q8" variants double
// the arm set with int8-quantized siblings (quantization-aware selection),
// scored through the INT8 engine.
func buildZoo(kind string, seed int64) (models.Zoo, error) {
	rng := numeric.SplitRNG(seed, "zoo")
	switch kind {
	case "surrogate":
		return models.DefaultSurrogateZoo(rng)
	case "mnist":
		return models.NewTrainedZoo(models.DefaultTrainedZooConfig(dataset.MNISTLike), rng)
	case "cifar":
		return models.NewTrainedZoo(models.DefaultTrainedZooConfig(dataset.CIFARLike), rng)
	case "mnist-q8", "cifar-q8":
		spec := dataset.MNISTLike
		if kind == "cifar-q8" {
			spec = dataset.CIFARLike
		}
		return models.NewQuantizedTrainedZoo(models.DefaultTrainedZooConfig(spec), rng)
	default:
		return nil, fmt.Errorf("unknown zoo %q (surrogate | mnist | cifar | mnist-q8 | cifar-q8)", kind)
	}
}
