package figures

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"github.com/carbonedge/carbonedge/internal/dataset"
	"github.com/carbonedge/carbonedge/internal/models"
)

// fastOpts keeps test runtime small while preserving shape claims.
func fastOpts() Options {
	return Options{Runs: 2, Seed: 1, Edges: 5, Horizon: 120}
}

// last returns the final value of a series.
func last(s Series) float64 { return s.Y[len(s.Y)-1] }

// byLabel indexes a figure's series.
func byLabel(t *testing.T, f *Figure) map[string]Series {
	t.Helper()
	out := make(map[string]Series, len(f.Series))
	for _, s := range f.Series {
		out[s.Label] = s
	}
	return out
}

func TestFig3ShapeOursLowestOnline(t *testing.T) {
	fig, err := Fig3CumulativeCost(fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	series := byLabel(t, fig)
	ours := last(series["Ours"])
	for _, name := range []string{"Ran-Ran", "Greedy-LY", "TINF-Ran", "UCB-LY"} {
		if ours >= last(series[name]) {
			t.Errorf("Ours (%v) not below %s (%v)", ours, name, last(series[name]))
		}
	}
	// Cumulative curves are non-decreasing apart from trading revenue; the
	// total must end positive and normalized to <= 1.
	for _, s := range fig.Series {
		if last(s) > 1+1e-9 {
			t.Errorf("%s not normalized: %v", s.Label, last(s))
		}
	}
}

func TestFig4ShapeOursLowestAtEveryScale(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-scale sweep")
	}
	o := fastOpts()
	o.Runs = 1
	o.Horizon = 160 // Greedy only loses once exploration has paid off
	fig, err := Fig4CostVsEdges(o)
	if err != nil {
		t.Fatal(err)
	}
	series := byLabel(t, fig)
	ours := series["Ours"]
	for xi := range ours.Y {
		for _, name := range fig4Combos {
			if name == "Ours" || name == "Offline" {
				continue
			}
			if ours.Y[xi] >= series[name].Y[xi] {
				t.Errorf("edges=%v: Ours (%v) not below %s (%v)",
					ours.X[xi], ours.Y[xi], name, series[name].Y[xi])
			}
		}
	}
	// Total cost grows with system size.
	if ours.Y[len(ours.Y)-1] <= ours.Y[0] {
		t.Errorf("Ours cost did not grow with edges: %v", ours.Y)
	}
}

func TestFig5ShapeOursFlat(t *testing.T) {
	if testing.Short() {
		t.Skip("weight sweep")
	}
	o := fastOpts()
	o.Runs = 2
	fig, err := Fig5SwitchWeight(o)
	if err != nil {
		t.Fatal(err)
	}
	series := byLabel(t, fig)
	ours := series["Ours"]
	tinf := series["TINF-LY"]
	// The paper's claim: as the switching weight grows 16x, Ours stays
	// nearly flat while switching-oblivious TINF inflates. Compare relative
	// growth.
	oursGrowth := ours.Y[len(ours.Y)-1] / ours.Y[0]
	tinfGrowth := tinf.Y[len(tinf.Y)-1] / tinf.Y[0]
	if oursGrowth > tinfGrowth {
		t.Errorf("Ours growth %v exceeds TINF growth %v", oursGrowth, tinfGrowth)
	}
	if oursGrowth > 2.0 {
		t.Errorf("Ours not flat across 16x weight: growth %v", oursGrowth)
	}
}

func TestFig6ShapeCostRisesWithEmissionRate(t *testing.T) {
	if testing.Short() {
		t.Skip("rate sweep")
	}
	o := fastOpts()
	o.Runs = 2
	fig, err := Fig6EmissionRate(o)
	if err != nil {
		t.Fatal(err)
	}
	series := byLabel(t, fig)
	ours := series["Ours"]
	if ours.Y[len(ours.Y)-1] <= ours.Y[0] {
		t.Errorf("Ours cost did not rise with emission rate: %v", ours.Y)
	}
	// Ours below the UCB baselines at every rate.
	for xi := range ours.Y {
		for _, name := range []string{"UCB-Ran", "UCB-TH"} {
			if ours.Y[xi] >= series[name].Y[xi] {
				t.Errorf("rate x%v: Ours (%v) not below %s (%v)",
					ours.X[xi], ours.Y[xi], name, series[name].Y[xi])
			}
		}
	}
}

func TestFig7ShapeCostFallsWithCap(t *testing.T) {
	if testing.Short() {
		t.Skip("cap sweep")
	}
	o := fastOpts()
	o.Runs = 2
	fig, err := Fig7CarbonCap(o)
	if err != nil {
		t.Fatal(err)
	}
	series := byLabel(t, fig)
	// Schemes whose trading reacts to the cap (Ours, Offline) get cheaper
	// as the cap grows.
	for _, name := range []string{"Ours", "Offline"} {
		s := series[name]
		if s.Y[len(s.Y)-1] >= s.Y[0] {
			t.Errorf("%s cost did not fall with cap: %v", name, s.Y)
		}
	}
	// UCB-Ran and UCB-TH ignore the cap: flat within noise. Compare their
	// spread to Ours' spread.
	spread := func(s Series) float64 {
		lo, hi := s.Y[0], s.Y[0]
		for _, v := range s.Y {
			lo, hi = math.Min(lo, v), math.Max(hi, v)
		}
		return hi - lo
	}
	if spread(series["UCB-TH"]) > spread(series["Ours"]) {
		t.Errorf("cap-oblivious UCB-TH varied (%v) more than Ours (%v)",
			spread(series["UCB-TH"]), spread(series["Ours"]))
	}
}

func TestFig8ShapeSelectionAntiCorrelatesWithLoss(t *testing.T) {
	o := fastOpts()
	fig, err := Fig8SelectionHistogram(o)
	if err != nil {
		t.Fatal(err)
	}
	series := byLabel(t, fig)
	ours := series["Ours"]
	// The paper's claim: as the expected loss decreases, the selection
	// frequency increases — i.e. loss and selections anti-correlate. (The
	// bandit optimizes loss + compute cost, so the raw-loss winner need not
	// be the most-selected arm.)
	if c := correlation(ours.X, ours.Y); c >= 0 {
		t.Errorf("selections correlate positively (%v) with expected loss: losses %v, selections %v",
			c, ours.X, ours.Y)
	}
	// The worst-loss model is never the most selected.
	worst, most := 0, 0
	for n := range ours.Y {
		if ours.X[n] > ours.X[worst] {
			worst = n
		}
		if ours.Y[n] > ours.Y[most] {
			most = n
		}
	}
	if worst == most {
		t.Errorf("worst model is the most selected: losses %v, selections %v", ours.X, ours.Y)
	}
	// Offline concentrates on exactly one model.
	off := series["Offline"]
	nonzero := 0
	for _, v := range off.Y {
		if v > 0 {
			nonzero++
		}
	}
	if nonzero != 1 {
		t.Errorf("Offline used %d models", nonzero)
	}
}

func TestFig9ShapeNetPurchaseTracksWorkload(t *testing.T) {
	o := fastOpts()
	fig, err := Fig9TradingVolume(o)
	if err != nil {
		t.Fatal(err)
	}
	series := byLabel(t, fig)
	w := series["Workload"]
	ours := series["Ours"]
	ucbRan := series["UCB-Ran"]
	// Correlation between net purchase and workload: Ours positive and
	// stronger than UCB-Ran (which ignores workload).
	oursCorr := correlation(w.Y, ours.Y)
	ranCorr := correlation(w.Y, ucbRan.Y)
	if oursCorr <= math.Abs(ranCorr) {
		t.Errorf("Ours workload correlation %v not above UCB-Ran %v", oursCorr, ranCorr)
	}
	if _, ok := series["UnitBuyPrice"]; !ok {
		t.Error("missing UnitBuyPrice companion series")
	}
}

func TestFig10ShapeRegretSublinear(t *testing.T) {
	if testing.Short() {
		t.Skip("horizon sweep")
	}
	o := fastOpts()
	o.Runs = 2
	fig, err := Fig10Regret(o)
	if err != nil {
		t.Fatal(err)
	}
	series := byLabel(t, fig)
	ours := series["Ours"]
	n := len(ours.Y)
	// Sub-linearity: regret/T shrinks from the smallest to the largest
	// horizon.
	first := ours.Y[0] / ours.X[0]
	lastAvg := ours.Y[n-1] / ours.X[n-1]
	if lastAvg >= first {
		t.Errorf("Ours regret/T did not shrink: %v -> %v (regret %v)", first, lastAvg, ours.Y)
	}
	// Ours has the smallest regret at the paper's horizon (T=160)...
	t160 := -1
	for i, x := range ours.X {
		if x == 160 {
			t160 = i
		}
	}
	if t160 < 0 {
		t.Fatal("sweep does not include T=160")
	}
	for _, name := range []string{"TINF-LY", "UCB-LY", "Greedy-LY"} {
		if ours.Y[t160] >= series[name].Y[t160] {
			t.Errorf("T=160: Ours regret %v not below %s %v", ours.Y[t160], name, series[name].Y[t160])
		}
	}
	// ...and stays at worst within 15%% of the best baseline at the longest
	// horizon (UCB2's logarithmic switching catches up asymptotically in
	// easy stochastic instances).
	for _, name := range []string{"TINF-LY", "UCB-LY", "Greedy-LY"} {
		if ours.Y[n-1] >= series[name].Y[n-1]*1.15 {
			t.Errorf("longest T: Ours regret %v well above %s %v", ours.Y[n-1], name, series[name].Y[n-1])
		}
	}
}

func TestFig11ShapeFitVanishes(t *testing.T) {
	if testing.Short() {
		t.Skip("horizon sweep")
	}
	o := fastOpts()
	o.Runs = 2
	fig, err := Fig11Fit(o)
	if err != nil {
		t.Fatal(err)
	}
	series := byLabel(t, fig)
	ours := series["Ours"]
	n := len(ours.Y)
	firstAvg := ours.Y[0] / ours.X[0]
	lastAvg := ours.Y[n-1] / ours.X[n-1]
	if lastAvg > firstAvg && lastAvg > 1e-6 {
		t.Errorf("Ours time-averaged fit did not vanish: %v -> %v", firstAvg, lastAvg)
	}
}

func TestFigAccuracySmallZoo(t *testing.T) {
	// Exercise the Fig. 12/13 pipeline with a tiny zoo; assert the paper's
	// ordering claim: Ours is above Greedy-Ran and close to Offline.
	o := Options{Runs: 1, Seed: 2, Edges: 3, Horizon: 60}
	zooCfg := models.TrainedZooConfig{
		Dataset: dataset.MNISTLike,
		TrainN:  400, TestN: 400, Epochs: 1, LR: 0.05, BatchSize: 16,
	}
	fig, err := figAccuracy(o, "Fig12", "test", zooCfg)
	if err != nil {
		t.Fatal(err)
	}
	series := byLabel(t, fig)
	mean := func(s Series) float64 {
		sum := 0.0
		for _, v := range s.Y {
			sum += v
		}
		return sum / float64(len(s.Y))
	}
	oursAcc := mean(series["Ours"])
	offAcc := mean(series["Offline"])
	greedyAcc := mean(series["Greedy-Ran"])
	t.Logf("accuracy: ours=%.3f offline=%.3f greedy=%.3f", oursAcc, offAcc, greedyAcc)
	if oursAcc < greedyAcc-0.05 {
		t.Errorf("Ours accuracy %v clearly below Greedy %v", oursAcc, greedyAcc)
	}
	if oursAcc < offAcc-0.25 {
		t.Errorf("Ours accuracy %v far from Offline %v", oursAcc, offAcc)
	}
}

func TestFig14Runtime(t *testing.T) {
	o := Options{Runs: 1, Seed: 1, Edges: 10, Horizon: 40}
	fig, err := Fig14AlgRuntime(o)
	if err != nil {
		t.Fatal(err)
	}
	series := byLabel(t, fig)
	for _, name := range []string{"Algorithm1", "Algorithm2"} {
		s, ok := series[name]
		if !ok {
			t.Fatalf("missing %s", name)
		}
		for _, v := range s.Y {
			if v < 0 {
				t.Errorf("%s negative runtime", name)
			}
			// The paper's bar: well within a 15-minute slot.
			if v > 900 {
				t.Errorf("%s exceeds a slot: %v s", name, v)
			}
		}
	}
}

func TestRenderOutput(t *testing.T) {
	fig := &Figure{
		ID: "FigX", Title: "test", XLabel: "x", YLabel: "y",
		Series: []Series{
			{Label: "a", X: []float64{1, 2}, Y: []float64{3, 4}},
			{Label: "b", X: []float64{1, 2}, Y: []float64{5}},
		},
	}
	out := Render(fig)
	for _, want := range []string{"FigX", "a", "b", "3", "5", "-"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
	empty := Render(&Figure{ID: "E", Title: "none"})
	if !strings.Contains(empty, "no data") {
		t.Error("empty figure should say so")
	}
}

func TestAllRegistryComplete(t *testing.T) {
	gens := All()
	for id := 3; id <= 14; id++ {
		if _, ok := gens[id]; !ok {
			t.Errorf("missing generator for Fig %d", id)
		}
	}
	keys := sortedKeys(gens)
	for i := 1; i < len(keys); i++ {
		if keys[i] <= keys[i-1] {
			t.Error("keys not sorted")
		}
	}
}

// correlation computes the Pearson correlation of two aligned series.
func correlation(a, b []float64) float64 {
	n := len(a)
	if n == 0 || n != len(b) {
		return 0
	}
	var ma, mb float64
	for i := range a {
		ma += a[i]
		mb += b[i]
	}
	ma /= float64(n)
	mb /= float64(n)
	var cov, va, vb float64
	for i := range a {
		da, db := a[i]-ma, b[i]-mb
		cov += da * db
		va += da * da
		vb += db * db
	}
	if va == 0 || vb == 0 {
		return 0
	}
	return cov / math.Sqrt(va*vb)
}

// TestFig14InjectedClock pins the clock-injection seam: with a fake clock
// ticking a fixed step per reading, Fig. 14 is fully deterministic — each
// per-slot runtime is exactly one tick divided by the horizon.
func TestFig14InjectedClock(t *testing.T) {
	const step = time.Millisecond
	var now time.Time
	o := Options{Runs: 1, Seed: 1, Edges: 10, Horizon: 40, Clock: func() time.Time {
		now = now.Add(step)
		return now
	}}
	fig, err := Fig14AlgRuntime(o)
	if err != nil {
		t.Fatal(err)
	}
	want := step.Seconds() / float64(o.Horizon)
	series := byLabel(t, fig)
	for _, name := range []string{"Algorithm1", "Algorithm2"} {
		s, ok := series[name]
		if !ok {
			t.Fatalf("missing %s", name)
		}
		for i, v := range s.Y {
			if v != want {
				t.Errorf("%s[%d] = %v, want exactly %v (one fake tick per measurement)", name, i, v, want)
			}
		}
	}
}

func TestNormalize(t *testing.T) {
	out := normalize([]float64{1, 2}, []float64{-4, 2})
	// Max abs = 4.
	want0 := []float64{0.25, 0.5}
	want1 := []float64{-1, 0.5}
	for i := range want0 {
		if out[0][i] != want0[i] {
			t.Errorf("out[0] = %v", out[0])
		}
		if out[1][i] != want1[i] {
			t.Errorf("out[1] = %v", out[1])
		}
	}
	// All-zero series pass through.
	z := normalize([]float64{0, 0})
	if z[0][0] != 0 || z[0][1] != 0 {
		t.Errorf("zero normalize = %v", z[0])
	}
}

func TestNormalizeBounded(t *testing.T) {
	prop := func(xs []float64) bool {
		for _, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return true
			}
		}
		out := normalize(xs)
		for _, v := range out[0] {
			if math.Abs(v) > 1+1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestReduction(t *testing.T) {
	if got := reduction(50, 100); got != 0.5 {
		t.Errorf("reduction = %v, want 0.5", got)
	}
	if got := reduction(100, 100); got != 0 {
		t.Errorf("equal values = %v", got)
	}
	if got := reduction(150, 100); got != -0.5 {
		t.Errorf("worse than baseline = %v", got)
	}
	if got := reduction(1, 0); got != 0 {
		t.Errorf("zero baseline = %v", got)
	}
}

func TestMeanOf(t *testing.T) {
	out, err := meanOf([]float64{1, 2}, []float64{3, 4})
	if err != nil {
		t.Fatal(err)
	}
	if out[0] != 2 || out[1] != 3 {
		t.Errorf("meanOf = %v", out)
	}
	if _, err := meanOf(); err == nil {
		t.Error("expected error for no series")
	}
	if _, err := meanOf([]float64{1}, []float64{1, 2}); err == nil {
		t.Error("expected error for ragged series")
	}
}
