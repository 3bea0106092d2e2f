package trading

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestOneShotOptimum(t *testing.T) {
	q := Quote{Buy: 10, Sell: 9}
	tests := []struct {
		name       string
		emission   float64
		capPerSlot float64
		want       Decision
	}{
		{"deficit", 5, 3, Decision{Buy: 2}},
		{"surplus", 1, 3, Decision{Sell: 2}},
		{"balanced", 3, 3, Decision{}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got := OneShotOptimum(tt.emission, tt.capPerSlot, q)
			if math.Abs(got.Buy-tt.want.Buy) > 1e-12 || math.Abs(got.Sell-tt.want.Sell) > 1e-12 {
				t.Errorf("got %+v, want %+v", got, tt.want)
			}
			// Feasibility: g <= 0.
			if gap := ConstraintGap(tt.emission, tt.capPerSlot, got); gap > 1e-12 {
				t.Errorf("one-shot optimum infeasible: gap=%v", gap)
			}
		})
	}
}

// Property: the one-shot optimum is never beaten by random feasible points.
func TestOneShotOptimumIsOptimalProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	prop := func(seed int64) bool {
		emission := rng.Float64() * 10
		capPerSlot := rng.Float64() * 10
		q := Quote{Buy: 5 + rng.Float64()*5}
		q.Sell = q.Buy * 0.9
		opt := OneShotOptimum(emission, capPerSlot, q)
		best := opt.Cost(q)
		for trial := 0; trial < 30; trial++ {
			d := Decision{Buy: rng.Float64() * 20, Sell: rng.Float64() * 20}
			if ConstraintGap(emission, capPerSlot, d) > 0 {
				continue // infeasible
			}
			if d.Cost(q) < best-1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestOfflineOptimumDeficit(t *testing.T) {
	emissions := []float64{5, 5, 5}
	buy := []float64{10, 7, 9}
	sell := []float64{9, 6.3, 8.1}
	decisions, cost, err := OfflineOptimum(emissions, buy, sell, 10)
	if err != nil {
		t.Fatalf("OfflineOptimum: %v", err)
	}
	// Deficit = 5, cheapest buy = 7 at t=1.
	if math.Abs(cost-35) > 1e-12 {
		t.Errorf("cost = %v, want 35", cost)
	}
	if decisions[1].Buy != 5 || decisions[0].Buy != 0 || decisions[2].Buy != 0 {
		t.Errorf("decisions = %+v", decisions)
	}
}

func TestOfflineOptimumSurplus(t *testing.T) {
	emissions := []float64{1, 1}
	buy := []float64{10, 8}
	sell := []float64{9, 7.2}
	decisions, cost, err := OfflineOptimum(emissions, buy, sell, 10)
	if err != nil {
		t.Fatalf("OfflineOptimum: %v", err)
	}
	// Surplus = 8, best sell = 9 at t=0 -> revenue 72 -> cost -72.
	if math.Abs(cost+72) > 1e-12 {
		t.Errorf("cost = %v, want -72", cost)
	}
	if decisions[0].Sell != 8 {
		t.Errorf("decisions = %+v", decisions)
	}
}

func TestOfflineOptimumErrors(t *testing.T) {
	if _, _, err := OfflineOptimum(nil, nil, nil, 1); err == nil {
		t.Error("expected error for empty horizon")
	}
	if _, _, err := OfflineOptimum([]float64{1}, []float64{1, 2}, []float64{1}, 1); err == nil {
		t.Error("expected error for mismatched lengths")
	}
	if _, _, err := OfflineOptimum([]float64{1}, []float64{5}, []float64{6}, 1); err == nil {
		t.Error("expected error when sell >= buy")
	}
}

// Property: the no-speculation offline optimum is feasible and never beaten
// by random feasible plans of the same class (plans that only buy when the
// horizon has a deficit, or only sell when it has a surplus).
func TestOfflineOptimumIsOptimalProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	prop := func(seed int64) bool {
		horizon := 3 + int(seed%5+5)%5
		emissions := make([]float64, horizon)
		buy := make([]float64, horizon)
		sell := make([]float64, horizon)
		for i := range emissions {
			emissions[i] = rng.Float64() * 10
			buy[i] = 6 + rng.Float64()*5
			sell[i] = buy[i] * 0.9
		}
		initialCap := rng.Float64() * 30
		decisions, cost, err := OfflineOptimum(emissions, buy, sell, initialCap)
		if err != nil {
			return false
		}
		// Feasibility.
		if fit, err := Fit(emissions, decisions, initialCap); err != nil || fit > 1e-9 {
			return false
		}
		total := 0.0
		for _, e := range emissions {
			total += e
		}
		deficit := total > initialCap
		// Random feasible same-class plans cannot beat it.
		for trial := 0; trial < 30; trial++ {
			plan := make([]Decision, horizon)
			for i := range plan {
				if deficit {
					plan[i] = Decision{Buy: rng.Float64() * 10}
				} else {
					plan[i] = Decision{Sell: rng.Float64() * 5}
				}
			}
			fit, err := Fit(emissions, plan, initialCap)
			if err != nil {
				return false
			}
			if fit > 0 {
				continue
			}
			planCost := 0.0
			for i, d := range plan {
				planCost += d.Cost(Quote{Buy: buy[i], Sell: sell[i]})
			}
			if planCost < cost-1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestFit(t *testing.T) {
	emissions := []float64{4, 4}
	// Cap 6 => capPerSlot 3; decisions cover 1 of the 2-unit total gap.
	decisions := []Decision{{Buy: 1}, {}}
	fit, err := Fit(emissions, decisions, 6)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fit-1) > 1e-12 {
		t.Errorf("fit = %v, want 1", fit)
	}
	// Over-covered constraint clips at zero.
	fit, err = Fit(emissions, []Decision{{Buy: 5}, {}}, 6)
	if err != nil {
		t.Fatal(err)
	}
	if fit != 0 {
		t.Errorf("fit = %v, want 0", fit)
	}
	if _, err := Fit([]float64{1}, nil, 6); err == nil {
		t.Error("expected error for mismatched lengths")
	}
	fit, err = Fit(nil, nil, 6)
	if err != nil || fit != 0 {
		t.Errorf("empty fit = %v, %v", fit, err)
	}
}

func TestDecisionCost(t *testing.T) {
	d := Decision{Buy: 2, Sell: 3}
	q := Quote{Buy: 10, Sell: 9}
	if got := d.Cost(q); math.Abs(got-(20-27)) > 1e-12 {
		t.Errorf("Cost = %v, want -7", got)
	}
}
