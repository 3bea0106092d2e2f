package market

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestGeneratePricesBand(t *testing.T) {
	p, err := GeneratePrices(DefaultPriceConfig(), 160, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatalf("GeneratePrices: %v", err)
	}
	if p.Horizon() != 160 {
		t.Fatalf("horizon = %d", p.Horizon())
	}
	for t2 := 0; t2 < p.Horizon(); t2++ {
		c, r := p.Buy[t2], p.Sell[t2]
		if c < DefaultPriceMin || c > DefaultPriceMax {
			t.Fatalf("buy price %v outside [%v, %v]", c, DefaultPriceMin, DefaultPriceMax)
		}
		if math.Abs(r-c*DefaultSellRatio) > 1e-12 {
			t.Fatalf("sell price %v != 0.9 * %v", r, c)
		}
		if r >= c {
			t.Fatal("sell price must stay below buy price")
		}
	}
}

func TestGeneratePricesVariability(t *testing.T) {
	p, err := GeneratePrices(DefaultPriceConfig(), 160, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := p.Buy[0], p.Buy[0]
	for _, c := range p.Buy {
		lo, hi = math.Min(lo, c), math.Max(hi, c)
	}
	if hi-lo < 1 {
		t.Errorf("price range too flat: [%v, %v]", lo, hi)
	}
}

func TestGeneratePricesErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	if _, err := GeneratePrices(DefaultPriceConfig(), 0, rng); err == nil {
		t.Error("expected error for zero horizon")
	}
}

func TestGeneratePricesWithShocks(t *testing.T) {
	cfg := DefaultPriceConfig()
	cfg.ShockProb = 0.3
	cfg.ShockSize = 3
	p, err := GeneratePrices(cfg, 200, rand.New(rand.NewSource(4)))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range p.Buy {
		if c < DefaultPriceMin || c > DefaultPriceMax {
			t.Fatal("shocked price escaped the band")
		}
	}
}

func TestGeneratePricesDeterministic(t *testing.T) {
	p1, err := GeneratePrices(DefaultPriceConfig(), 50, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	p2, err := GeneratePrices(DefaultPriceConfig(), 50, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	for i := range p1.Buy {
		if p1.Buy[i] != p2.Buy[i] {
			t.Fatal("same seed produced different prices")
		}
	}
}

func TestMeanBuyOverPrefix(t *testing.T) {
	p := &Prices{Buy: []float64{6, 8, 10, 100}, Sell: []float64{5.4, 7.2, 9, 90}}
	if got := p.MeanBuy(3); got != 8 {
		t.Errorf("MeanBuy(3) = %v, want 8 (the slot past the horizon is not read)", got)
	}
	if got := p.MeanBuy(0); got != 0 {
		t.Errorf("MeanBuy(0) = %v, want 0", got)
	}
}

func TestLedgerAccounting(t *testing.T) {
	l, err := NewLedger(500)
	if err != nil {
		t.Fatalf("NewLedger: %v", err)
	}
	if err := l.Buy(10, 8); err != nil {
		t.Fatal(err)
	}
	if err := l.Sell(4, 7.2); err != nil {
		t.Fatal(err)
	}
	if got := l.Allowances(); got != 506 {
		t.Errorf("Allowances = %v, want 506", got)
	}
	if l.Bought() != 10 || l.Spend() != 80 {
		t.Errorf("Bought/Spend = %v/%v", l.Bought(), l.Spend())
	}
}

func TestLedgerZeroAndInvalidTrades(t *testing.T) {
	l, err := NewLedger(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Buy(0, 10); err != nil {
		t.Errorf("zero buy should be a no-op, got %v", err)
	}
	if err := l.Sell(0, 10); err != nil {
		t.Errorf("zero sell should be a no-op, got %v", err)
	}
	if l.Allowances() != 0 || l.Bought() != 0 || l.Spend() != 0 {
		t.Errorf("zero trades moved the ledger: allowances=%g bought=%g spend=%g", l.Allowances(), l.Bought(), l.Spend())
	}
	if err := l.Buy(-1, 10); err == nil {
		t.Error("expected error on negative buy qty")
	}
	if err := l.Sell(1, -1); err == nil {
		t.Error("expected error on negative sell price")
	}
	if _, err := NewLedger(-1); err == nil {
		t.Error("expected error on negative cap")
	}
}

// TestLedgerRejectsNonFinite: a cap, quantity or price that is negative, NaN
// or infinite is an error and leaves the ledger untouched; `x < 0` alone let
// NaN and +Inf through and every derived figure went NaN silently.
func TestLedgerRejectsNonFinite(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, r := range []float64{-1, nan, inf, -inf} {
		if _, err := NewLedger(r); err == nil {
			t.Errorf("NewLedger(%g) accepted", r)
		}
	}
	l, err := NewLedger(10)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ qty, price float64 }{
		{-1, 5}, {1, -5},
		{nan, 5}, {1, nan},
		{inf, 5}, {1, inf},
		{-inf, 5}, {1, -inf},
		{0, nan}, // a zero quantity does not excuse a bad price
	} {
		if err := l.Buy(tc.qty, tc.price); err == nil {
			t.Errorf("Buy(%g, %g) accepted", tc.qty, tc.price)
		}
		if err := l.Sell(tc.qty, tc.price); err == nil {
			t.Errorf("Sell(%g, %g) accepted", tc.qty, tc.price)
		}
	}
	if l.Allowances() != 10 || l.Bought() != 0 || l.Spend() != 0 {
		t.Errorf("rejected trades moved the ledger: allowances=%g bought=%g spend=%g",
			l.Allowances(), l.Bought(), l.Spend())
	}
}

// Property: ledger invariants hold under arbitrary trade sequences.
func TestLedgerInvariantsProperty(t *testing.T) {
	prop := func(ops []struct {
		Buy   bool
		Qty   float64
		Price float64
	}) bool {
		l, err := NewLedger(100)
		if err != nil {
			return false
		}
		wantAllow, wantBought, wantSpend := 100.0, 0.0, 0.0
		for _, op := range ops {
			qty := math.Abs(op.Qty)
			price := math.Abs(op.Price)
			if math.IsNaN(qty) || qty > 1e9 || math.IsNaN(price) || price > 1e9 {
				continue
			}
			if op.Buy {
				if err := l.Buy(qty, price); err != nil {
					return false
				}
				wantAllow += qty
				wantBought += qty
				wantSpend += qty * price
			} else {
				if err := l.Sell(qty, price); err != nil {
					return false
				}
				wantAllow -= qty
			}
		}
		return closeRel(l.Allowances(), wantAllow) && closeRel(l.Bought(), wantBought) && closeRel(l.Spend(), wantSpend)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func closeRel(a, b float64) bool {
	scale := math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
	return math.Abs(a-b) <= 1e-9*scale
}
