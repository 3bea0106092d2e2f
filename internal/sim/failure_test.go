package sim

import (
	"math"
	"testing"

	"github.com/carbonedge/carbonedge/internal/market"
	"github.com/carbonedge/carbonedge/internal/models"
	"github.com/carbonedge/carbonedge/internal/numeric"
)

// Failure-injection and degenerate-input tests: the engine must stay
// well-defined when the world misbehaves.

func TestRunWithZeroWorkload(t *testing.T) {
	// An idle system: no samples ever arrive. Emissions stay zero, accuracy
	// is zero by convention, and the trader sells the whole surplus cap
	// without the cost going NaN.
	zoo, err := models.DefaultSurrogateZoo(numeric.SplitRNG(1, "zoo"))
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(3)
	cfg.Horizon = 30
	wl := make([][]int, cfg.Horizon)
	for t2 := range wl {
		wl[t2] = make([]int, cfg.Edges)
	}
	s, err := NewScenarioWithTraces(cfg, zoo, wl, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(s, "Ours", PolicyOurs, TraderOurs)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	for t2, e := range res.Emissions {
		if res.WorkloadTotal[t2] != 0 {
			t.Fatal("workload should be zero")
		}
		// Transfer energy on downloads is the only possible emission.
		if e < 0 {
			t.Fatal("negative emission")
		}
	}
	if math.IsNaN(res.Cost.Total()) {
		t.Fatal("NaN cost under zero workload")
	}
	if res.OverallAccuracy != 0 {
		t.Errorf("accuracy = %v with no samples", res.OverallAccuracy)
	}
	// With zero emissions the trader sells the surplus; the primal-dual
	// transient oversells slightly before lambda catches up (Theorem 2's
	// sub-linear fit), but the violation must stay well under the cap.
	if res.Fit > cfg.InitialCap {
		t.Errorf("fit = %v exceeds the cap %v", res.Fit, cfg.InitialCap)
	}
}

func TestRunWithBurstyWorkload(t *testing.T) {
	// A pathological trace: everything arrives in one slot.
	zoo, err := models.DefaultSurrogateZoo(numeric.SplitRNG(2, "zoo"))
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(2)
	cfg.Horizon = 20
	wl := make([][]int, cfg.Horizon)
	for t2 := range wl {
		wl[t2] = make([]int, cfg.Edges)
	}
	wl[10][0] = 100000
	wl[10][1] = 100000
	s, err := NewScenarioWithTraces(cfg, zoo, wl, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(s, "Ours", PolicyOurs, TraderOurs)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Emissions[10] <= 0 {
		t.Error("burst slot produced no emission")
	}
	for t2 := 11; t2 < cfg.Horizon; t2++ {
		if res.WorkloadTotal[t2] != 0 {
			t.Error("non-burst slot has workload")
		}
	}
	if math.IsNaN(res.Cost.Total()) || math.IsInf(res.Cost.Total(), 0) {
		t.Fatal("non-finite cost under burst")
	}
}

func TestRunWithSingleModelZoo(t *testing.T) {
	// With N=1 every policy must pin the only model and never switch after
	// the initial download.
	zoo, err := models.NewSurrogateZoo([]models.SurrogateModel{{
		Name: "only", MeanLoss: 0.4, LossSigma: 0.1, Accuracy: 0.8,
		SizeBytes: 1000, PhiKWh: 7e-8, BaseLatencySec: 0.05,
	}}, 100)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(3)
	cfg.Horizon = 40
	s, err := NewScenario(cfg, zoo)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(s, "Ours", PolicyOurs, TraderOurs)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Switches != 3 {
		t.Errorf("switches = %d, want exactly one download per edge", res.Switches)
	}
}

func TestRunWithConstantPrices(t *testing.T) {
	// Flat prices remove all trading signal; the system must still satisfy
	// the constraint sub-linearly and never trade negative quantities.
	zoo, err := models.DefaultSurrogateZoo(numeric.SplitRNG(3, "zoo"))
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(3)
	cfg.Horizon = 50
	prices := &market.Prices{Buy: make([]float64, 50), Sell: make([]float64, 50)}
	for i := range prices.Buy {
		prices.Buy[i] = 8
		prices.Sell[i] = 7.2
	}
	s, err := NewScenarioWithTraces(cfg, zoo, nil, prices)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(s, "Ours", PolicyOurs, TraderOurs)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	for _, d := range res.Decisions {
		if d.Buy < 0 || d.Sell < 0 {
			t.Fatal("negative trade")
		}
	}
}

func TestRunWithZeroCapAndZeroRate(t *testing.T) {
	// rate=0: no emissions at all; the trader has nothing to do.
	zoo, err := models.DefaultSurrogateZoo(numeric.SplitRNG(5, "zoo"))
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(2)
	cfg.Horizon = 30
	cfg.EmissionRate = 0
	cfg.InitialCap = 0
	s, err := NewScenario(cfg, zoo)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(s, "Ours", PolicyOurs, TraderOurs)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	for _, e := range res.Emissions {
		if e != 0 {
			t.Fatal("emission with zero rate")
		}
	}
	// With R=0 any sale is a violation; only the bounded sell transient of
	// the primal-dual update may appear.
	if math.IsNaN(res.Fit) || res.Fit > 1 {
		t.Errorf("fit = %v, want a small bounded transient", res.Fit)
	}
}
