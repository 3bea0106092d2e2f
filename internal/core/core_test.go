package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"github.com/carbonedge/carbonedge/internal/bandit"
	"github.com/carbonedge/carbonedge/internal/market"
	"github.com/carbonedge/carbonedge/internal/trading"
)

func validConfig() Config {
	return Config{
		NumModels:     6,
		DownloadCosts: []float64{1.0, 1.5, 0.8},
		Horizon:       160,
		InitialCap:    3,
		EmissionScale: 0.02,
		PriceScale:    80,
		Seed:          1,
	}
}

func TestNewErrors(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*Config)
	}{
		{"zero models", func(c *Config) { c.NumModels = 0 }},
		{"no edges", func(c *Config) { c.DownloadCosts = nil }},
		{"zero horizon", func(c *Config) { c.Horizon = 0 }},
		{"negative cap", func(c *Config) { c.InitialCap = -1 }},
		{"negative scale", func(c *Config) { c.EmissionScale = -1 }},
		{"negative download cost", func(c *Config) { c.DownloadCosts = []float64{1, -1} }},
		{"NaN cap", func(c *Config) { c.InitialCap = math.NaN() }},
		{"infinite cap", func(c *Config) { c.InitialCap = math.Inf(1) }},
		{"NaN emission scale", func(c *Config) { c.EmissionScale = math.NaN() }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := validConfig()
			tt.mutate(&cfg)
			if _, err := New(cfg); err == nil {
				t.Error("expected error")
			}
		})
	}
}

func TestZeroScaleHintsDefault(t *testing.T) {
	cfg := validConfig()
	cfg.EmissionScale = 0
	cfg.PriceScale = 0
	if _, err := New(cfg); err != nil {
		t.Fatalf("zero hints should default, got %v", err)
	}
}

func TestProtocolHappyPath(t *testing.T) {
	c, err := New(validConfig())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	switches := 0
	selections := make([][6]int, 3)
	for slot := 0; slot < 160; slot++ {
		if c.slot != slot {
			t.Fatalf("slot = %d, want %d", c.slot, slot)
		}
		arms, err := c.SelectModels()
		if err != nil {
			t.Fatal(err)
		}
		if len(arms) != 3 {
			t.Fatalf("got %d arms", len(arms))
		}
		for _, a := range arms {
			if a < 0 || a >= 6 {
				t.Fatalf("arm %d out of range", a)
			}
		}
		downloads, err := c.Downloads()
		if err != nil {
			t.Fatal(err)
		}
		for i, d := range downloads {
			if slot == 0 && !d {
				t.Errorf("edge %d must download at slot 0", i)
			}
			if d {
				switches++
			}
			selections[i][arms[i]]++
		}
		q := trading.Quote{Buy: 60 + rng.Float64()*50}
		q.Sell = q.Buy * 0.9
		d, err := c.DecideTrade(q)
		if err != nil {
			t.Fatal(err)
		}
		if d.Buy < 0 || d.Sell < 0 {
			t.Fatalf("negative trade %+v", d)
		}
		losses := make([]float64, 3)
		for i, arm := range arms {
			losses[i] = 0.2 + 0.1*float64(arm) + rng.NormFloat64()*0.05
		}
		if err := c.CompleteSlotServed(losses, nil, 0.02); err != nil {
			t.Fatal(err)
		}
	}
	if c.Lambda() < 0 {
		t.Error("negative dual multiplier")
	}
	if switches < 3 {
		t.Errorf("switches = %d, want at least initial downloads", switches)
	}
	for i, row := range selections {
		total := 0
		for _, v := range row {
			total += v
		}
		if total != 160 {
			t.Errorf("edge %d selections sum to %d", i, total)
		}
	}
}

func TestProtocolOrderingEnforced(t *testing.T) {
	c, err := New(validConfig())
	if err != nil {
		t.Fatal(err)
	}
	q := trading.Quote{Buy: 80, Sell: 72}
	// Trade before select.
	if _, err := c.DecideTrade(q); err == nil {
		t.Error("DecideTrade before SelectModels must fail")
	}
	// Complete before select.
	if err := c.CompleteSlotServed([]float64{0, 0, 0}, nil, 0); err == nil {
		t.Error("CompleteSlotServed before SelectModels must fail")
	}
	if _, err := c.Downloads(); err == nil {
		t.Error("Downloads before SelectModels must fail")
	}
	if _, err := c.SelectModels(); err != nil {
		t.Fatal(err)
	}
	// Double select.
	if _, err := c.SelectModels(); err == nil {
		t.Error("double SelectModels must fail")
	}
	// Complete before trade.
	if err := c.CompleteSlotServed([]float64{0, 0, 0}, nil, 0); err == nil {
		t.Error("CompleteSlotServed before DecideTrade must fail")
	}
	if _, err := c.DecideTrade(q); err != nil {
		t.Fatal(err)
	}
	// Wrong loss count.
	if err := c.CompleteSlotServed([]float64{0}, nil, 0); err == nil {
		t.Error("wrong loss count must fail")
	}
	// Negative emission.
	if err := c.CompleteSlotServed([]float64{0, 0, 0}, nil, -1); err == nil {
		t.Error("negative emission must fail")
	}
	if err := c.CompleteSlotServed([]float64{0, 0, 0}, nil, 0.5); err != nil {
		t.Fatal(err)
	}
	if c.slot != 1 {
		t.Errorf("slot = %d after one complete cycle", c.slot)
	}
}

func TestControllerConvergesToGoodModels(t *testing.T) {
	cfg := validConfig()
	cfg.Horizon = 4000
	cfg.DownloadCosts = []float64{0.5}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	meanLoss := []float64{1.0, 0.8, 0.3, 0.9, 1.1, 0.7} // best = 2
	sel := make([]int, len(meanLoss))
	for slot := 0; slot < cfg.Horizon; slot++ {
		arms, err := c.SelectModels()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.DecideTrade(trading.Quote{Buy: 80, Sell: 72}); err != nil {
			t.Fatal(err)
		}
		sel[arms[0]]++
		loss := meanLoss[arms[0]] + rng.NormFloat64()*0.1
		if err := c.CompleteSlotServed([]float64{loss}, nil, 0.02); err != nil {
			t.Fatal(err)
		}
	}
	frac := float64(sel[2]) / float64(cfg.Horizon)
	if frac < 0.6 {
		t.Errorf("best-model fraction = %v (selections %v)", frac, sel)
	}
}

func TestControllerDeterministic(t *testing.T) {
	run := func() float64 {
		c, err := New(validConfig())
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(4))
		total := 0.0
		for slot := 0; slot < 100; slot++ {
			arms, err := c.SelectModels()
			if err != nil {
				t.Fatal(err)
			}
			q := trading.Quote{Buy: 70 + rng.Float64()*30}
			q.Sell = q.Buy * 0.9
			d, err := c.DecideTrade(q)
			if err != nil {
				t.Fatal(err)
			}
			total += d.Cost(q)
			losses := make([]float64, len(arms))
			for i, a := range arms {
				losses[i] = float64(a)*0.1 + rng.Float64()*0.05
				total += losses[i]
			}
			if err := c.CompleteSlotServed(losses, nil, 0.03); err != nil {
				t.Fatal(err)
			}
		}
		return total
	}
	a, b := run(), run()
	if math.Abs(a-b) > 1e-12 {
		t.Errorf("non-deterministic: %v vs %v", a, b)
	}
}

// TestCompleteSlotServedMask drives the controller through the full protocol
// with a down edge: the served mask must be accepted, validated for length,
// and leave the protocol in a clean state for the next slot; the whole run
// must stay deterministic under a fixed mask pattern.
func TestCompleteSlotServedMask(t *testing.T) {
	run := func() []int {
		c, err := New(validConfig())
		if err != nil {
			t.Fatal(err)
		}
		var armsSeen []int
		for slot := 0; slot < 60; slot++ {
			arms, err := c.SelectModels()
			if err != nil {
				t.Fatal(err)
			}
			armsSeen = append(armsSeen, arms...)
			if _, err := c.DecideTrade(trading.Quote{Buy: 80, Sell: 72}); err != nil {
				t.Fatal(err)
			}
			losses := []float64{0.2, 0.3, 0.4}
			served := []bool{true, slot < 20, true} // edge 1 down from slot 20
			if !served[1] {
				losses[1] = 0 // down edges report the zero fallback
			}
			if err := c.CompleteSlotServed(losses, served, 0.02); err != nil {
				t.Fatal(err)
			}
		}
		return armsSeen
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("length mismatch %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("non-deterministic selections under served mask at %d", i)
		}
	}
}

// recordingPolicy plays a fixed arm and logs the feedback the controller
// routes to it.
type recordingPolicy struct {
	arm    int
	events []string
}

func (p *recordingPolicy) NumArms() int   { return 2 }
func (p *recordingPolicy) SelectArm() int { return p.arm }
func (p *recordingPolicy) Update(loss float64) {
	p.events = append(p.events, fmt.Sprint("update ", loss))
}
func (p *recordingPolicy) Skip() { p.events = append(p.events, "skip") }

// TestCompleteSlotServedRouting pins where CompleteSlotServed sends each
// edge's feedback — Update when the edge was served or the mask is nil, Skip
// when served[i] is false — and that Lambda reads the installed trader's dual
// variable, or 0 for a trader without one.
func TestCompleteSlotServedRouting(t *testing.T) {
	cfg := validConfig()
	cfg.NumModels = 2
	pdCfg := trading.ScaledPrimalDualConfig(cfg.InitialCap, cfg.Horizon, cfg.EmissionScale, cfg.PriceScale, 1)
	pd, err := trading.NewPrimalDual(pdCfg)
	if err != nil {
		t.Fatal(err)
	}
	ppd, err := trading.NewPredictivePrimalDual(pdCfg, market.NewARPredictor(), market.DefaultSellRatio)
	if err != nil {
		t.Fatal(err)
	}
	threshold, err := trading.NewThresholdTrader(85, 1, 95, 1)
	if err != nil {
		t.Fatal(err)
	}
	masks := [][]bool{nil, {true, false, true}, {false, false, true}}
	want := [][]string{
		{"update 1", "update 1", "skip"},
		{"update 2", "skip", "skip"},
		{"update 3", "update 3", "update 3"},
	}
	for _, tc := range []struct {
		name   string
		trader trading.Trader
		lambda func() float64
	}{
		{"PrimalDual", pd, pd.Lambda},
		{"PredictivePrimalDual", ppd, ppd.Lambda},
		{"Threshold", threshold, func() float64 { return 0 }},
	} {
		recs := []*recordingPolicy{{arm: 0}, {arm: 1}, {arm: 1}}
		c, err := NewWithComponents(cfg, []bandit.Policy{recs[0], recs[1], recs[2]}, tc.trader)
		if err != nil {
			t.Fatal(err)
		}
		for _, served := range masks {
			if _, err := c.SelectModels(); err != nil {
				t.Fatal(err)
			}
			if _, err := c.DecideTrade(trading.Quote{Buy: 80, Sell: 72}); err != nil {
				t.Fatal(err)
			}
			// Far above the per-slot cap, so Algorithm 2's λ rises.
			if err := c.CompleteSlotServed([]float64{1, 2, 3}, served, 0.5); err != nil {
				t.Fatal(err)
			}
		}
		name := tc.name
		for i, r := range recs {
			if !slices.Equal(r.events, want[i]) {
				t.Errorf("%s: edge %d got %q, want %q", name, i, r.events, want[i])
			}
		}
		if got, want := c.Lambda(), tc.lambda(); got != want {
			t.Errorf("%s: Lambda() = %v, trader's λ = %v", name, got, want)
		}
		if _, dual := tc.trader.(interface{ Lambda() float64 }); dual && c.Lambda() <= 0 {
			t.Errorf("%s: λ = %v after three slots over the cap, want > 0", name, c.Lambda())
		}
	}
}

func TestCompleteSlotServedValidation(t *testing.T) {
	c, err := New(validConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.SelectModels(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.DecideTrade(trading.Quote{Buy: 80, Sell: 72}); err != nil {
		t.Fatal(err)
	}
	if err := c.CompleteSlotServed([]float64{0.1, 0.1, 0.1}, []bool{true}, 0.01); err == nil {
		t.Error("expected error for short served mask")
	}
	for _, emission := range []float64{-1, math.NaN(), math.Inf(1)} {
		if err := c.CompleteSlotServed([]float64{0.1, 0.1, 0.1}, nil, emission); err == nil {
			t.Errorf("expected error for emission %v", emission)
		}
	}
	// The protocol state survives the rejected call.
	if err := c.CompleteSlotServed([]float64{0.1, 0.1, 0.1}, nil, 0.01); err != nil {
		t.Fatalf("clean completion after rejected mask: %v", err)
	}
}
