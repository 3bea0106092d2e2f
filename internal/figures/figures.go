// Package figures regenerates the data behind every figure in the paper's
// evaluation (Figs. 3-14). Each FigN function runs the required simulations
// and returns a Figure — labeled data series — that cmd/benchgen renders as
// aligned text tables and the repository's benchmarks time. Absolute values
// are substrate-dependent; the claims the paper makes about each figure's
// *shape* are asserted by this package's tests.
package figures

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"time"

	"github.com/carbonedge/carbonedge/internal/engine"
	"github.com/carbonedge/carbonedge/internal/models"
	"github.com/carbonedge/carbonedge/internal/numeric"
	"github.com/carbonedge/carbonedge/internal/sim"
)

// Series is one labeled curve.
type Series struct {
	Label string
	X     []float64
	Y     []float64
}

// Figure is the data behind one paper figure.
type Figure struct {
	ID     string
	Title  string
	XLabel string
	YLabel string
	Series []Series
}

// Options tunes figure generation globally.
type Options struct {
	// Runs averages each data point over this many seeds (paper: 10).
	Runs int
	// Seed is the base seed.
	Seed int64
	// Edges and Horizon default to the paper's 10 and 160.
	Edges   int
	Horizon int
	// Clock supplies the timestamps behind Fig. 14's runtime measurement —
	// the one figure whose y-axis is wall time. It defaults to the system
	// clock; tests inject a fake to keep the figure harness deterministic.
	Clock func() time.Time
}

func (o Options) normalized() Options {
	if o.Runs <= 0 {
		o.Runs = 3
	}
	if o.Edges <= 0 {
		o.Edges = 10
	}
	if o.Horizon <= 0 {
		o.Horizon = 160
	}
	if o.Clock == nil {
		// Fig. 14 measures real runtime, so the default clock is the wall
		// clock; every other figure is seed-deterministic and never ticks it.
		//lint:allow nodeterm Fig. 14's y-axis is wall-clock seconds; this is the injected default, overridable in tests
		o.Clock = time.Now
	}
	return o
}

// runScenarioCfg builds the run-r config for the normalized options.
func runScenarioCfg(o Options, r int, mutate func(*sim.Config)) sim.Config {
	cfg := sim.DefaultConfig(o.Edges)
	cfg.Horizon = o.Horizon
	cfg.Seed = o.Seed + int64(r)
	if mutate != nil {
		mutate(&cfg)
	}
	return cfg
}

// surrogateScenario builds a scenario over a fresh surrogate zoo.
func surrogateScenario(cfg sim.Config) (*sim.Scenario, error) {
	zoo, err := models.DefaultSurrogateZoo(numeric.SplitRNG(cfg.Seed, "zoo"))
	if err != nil {
		return nil, err
	}
	return sim.NewScenario(cfg, zoo)
}

// runScenario builds run r's surrogate scenario.
func runScenario(o Options, r int, mutate func(*sim.Config)) (*sim.Scenario, error) {
	return surrogateScenario(runScenarioCfg(o, r, mutate))
}

// runCombo runs a named combo ("Ours", "UCB-LY", ..., or "Offline").
// Combos played one after another on a scenario see consecutive windows of
// its sample streams, so the order a figure lists them in is part of its
// output.
func runCombo(s *sim.Scenario, name string) (*engine.Result, error) {
	if name == "Offline" {
		return sim.Offline(s)
	}
	combo, err := sim.ComboByName(name)
	if err != nil {
		return nil, err
	}
	return sim.Run(s, combo.Name, combo.Policy, combo.Trader)
}

// playRun plays one named combo on a fresh run-r surrogate scenario.
func playRun(o Options, r int, name string, mutate func(*sim.Config)) (*engine.Result, error) {
	s, err := runScenario(o, r, mutate)
	if err != nil {
		return nil, err
	}
	return runCombo(s, name)
}

// sweep evaluates a run-averaged metric over a series x point grid, walking
// series, then points, then runs. cell builds run r's scenario, plays it and
// returns the metric; a grid point is the sum of its cells in run order
// divided once by o.Runs (golden bytes depend on that order of operations).
func sweep(o Options, series, points int, cell func(si, xi, run int) (float64, error)) ([][]float64, error) {
	ys := make([][]float64, series)
	for si := range ys {
		ys[si] = make([]float64, points)
		for xi := range ys[si] {
			sum := 0.0
			for r := 0; r < o.Runs; r++ {
				v, err := cell(si, xi, r)
				if err != nil {
					return nil, err
				}
				sum += v
			}
			ys[si][xi] = sum / float64(o.Runs)
		}
	}
	return ys, nil
}

// totalCosts sweeps the run-averaged total cost of each named combo over n
// settings of one scenario knob (Figs. 4-7).
func totalCosts(o Options, combos []string, n int, set func(c *sim.Config, xi int)) ([][]float64, error) {
	return sweep(o, len(combos), n, func(si, xi, r int) (float64, error) {
		res, err := playRun(o, r, combos[si], func(c *sim.Config) { set(c, xi) })
		if err != nil {
			return 0, err
		}
		return res.Cost.Total(), nil
	})
}

// labeled pairs each label with its row of ys over the shared axis x.
func labeled(labels []string, x []float64, ys [][]float64) []Series {
	out := make([]Series, len(labels))
	for i, label := range labels {
		out[i] = Series{Label: label, X: x, Y: ys[i]}
	}
	return out
}

// Render prints a figure as an aligned text table: the X column followed by
// one column per series.
func Render(f *Figure) string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", f.ID, f.Title)
	if len(f.Series) == 0 {
		b.WriteString("(no data)\n")
		return b.String()
	}
	fmt.Fprintf(&b, "%-14s", f.XLabel)
	for _, s := range f.Series {
		fmt.Fprintf(&b, "%16s", s.Label)
	}
	b.WriteString("\n")
	// Assume aligned X across series (true for all our figures); use the
	// longest series' X as the axis.
	axis := f.Series[0].X
	for _, s := range f.Series[1:] {
		if len(s.X) > len(axis) {
			axis = s.X
		}
	}
	for i := range axis {
		fmt.Fprintf(&b, "%-14.4g", axis[i])
		for _, s := range f.Series {
			if i < len(s.Y) {
				fmt.Fprintf(&b, "%16.5g", s.Y[i])
			} else {
				fmt.Fprintf(&b, "%16s", "-")
			}
		}
		b.WriteString("\n")
	}
	return b.String()
}

// All returns every figure generator keyed by its paper number.
func All() map[int]func(Options) (*Figure, error) {
	return map[int]func(Options) (*Figure, error){
		3:  Fig3CumulativeCost,
		4:  Fig4CostVsEdges,
		5:  Fig5SwitchWeight,
		6:  Fig6EmissionRate,
		7:  Fig7CarbonCap,
		8:  Fig8SelectionHistogram,
		9:  Fig9TradingVolume,
		10: Fig10Regret,
		11: Fig11Fit,
		12: Fig12AccuracyMNIST,
		13: Fig13AccuracyCIFAR,
		14: Fig14AlgRuntime,
	}
}

// sortedKeys returns the figure IDs in order.
func sortedKeys(m map[int]func(Options) (*Figure, error)) []int {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}

// RenderAll generates and renders every figure.
func RenderAll(o Options) (string, error) {
	var b strings.Builder
	gens := All()
	for _, id := range sortedKeys(gens) {
		fig, err := gens[id](o)
		if err != nil {
			return "", fmt.Errorf("figure %d: %w", id, err)
		}
		b.WriteString(Render(fig))
		b.WriteString("\n")
	}
	return b.String(), nil
}

// meanCurves averages per-slot series across runs for several combos,
// played in the listed order on each run's one scenario; row i of the result
// belongs to names[i].
func meanCurves(o Options, names []string, extract func(*engine.Result) []float64) ([][]float64, error) {
	curves := make([][][]float64, len(names))
	for r := 0; r < o.Runs; r++ {
		s, err := runScenario(o, r, nil)
		if err != nil {
			return nil, err
		}
		for i, name := range names {
			res, err := runCombo(s, name)
			if err != nil {
				return nil, err
			}
			curves[i] = append(curves[i], extract(res))
		}
	}
	out := make([][]float64, len(names))
	for i, runs := range curves {
		mean, err := meanOf(runs...)
		if err != nil {
			return nil, err
		}
		out[i] = mean
	}
	return out, nil
}

// normalize divides every element of series by the largest absolute value
// across all the given series, returning normalized copies (the paper's
// "normalized cumulative total cost" style). A zero max leaves values as-is.
func normalize(series ...[]float64) [][]float64 {
	maxAbs := 0.0
	for _, s := range series {
		for _, v := range s {
			if a := math.Abs(v); a > maxAbs {
				maxAbs = a
			}
		}
	}
	out := make([][]float64, len(series))
	for i, s := range series {
		out[i] = make([]float64, len(s))
		for j, v := range s {
			if maxAbs > 0 {
				out[i][j] = v / maxAbs
			} else {
				out[i][j] = v
			}
		}
	}
	return out
}

// reduction returns the paper's headline metric: the fractional cost
// reduction of ours relative to a baseline ((baseline - ours) / baseline).
// A zero baseline yields 0.
func reduction(ours, baseline float64) float64 {
	if baseline == 0 {
		return 0
	}
	return (baseline - ours) / baseline
}

// meanOf averages aligned series element-wise; all series must share a
// length.
func meanOf(series ...[]float64) ([]float64, error) {
	if len(series) == 0 {
		return nil, fmt.Errorf("figures: no series")
	}
	n := len(series[0])
	for i, s := range series {
		if len(s) != n {
			return nil, fmt.Errorf("figures: series %d has length %d, want %d", i, len(s), n)
		}
	}
	out := make([]float64, n)
	for _, s := range series {
		for j, v := range s {
			out[j] += v
		}
	}
	for j := range out {
		out[j] /= float64(len(series))
	}
	return out, nil
}

// slotAxis builds the X axis 1..T.
func slotAxis(horizon int) []float64 {
	x := make([]float64, horizon)
	for i := range x {
		x[i] = float64(i + 1)
	}
	return x
}

// newRNG is a helper for figure-local randomness.
func newRNG(seed int64, label string) *rand.Rand {
	return numeric.SplitRNG(seed, label)
}
