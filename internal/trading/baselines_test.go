package trading

import (
	"math"
	"math/rand"
	"testing"
)

func TestRandomTrader(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	tr, err := NewRandomTrader(5, rng)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		d := tr.Decide(i, Quote{Buy: 8, Sell: 7.2})
		if d.Buy < 0 || d.Buy > 5 || d.Sell < 0 || d.Sell > 5 {
			t.Fatalf("decision %+v outside [0,5]", d)
		}
		tr.Observe(i, 1, Quote{}, d)
	}
	if _, err := NewRandomTrader(0, rng); err == nil {
		t.Error("expected error for zero maxQty")
	}
}

func TestThresholdTrader(t *testing.T) {
	tr, err := NewThresholdTrader(7 /* buyBelow */, 2 /* buyQty */, 9 /* sellAbove */, 3 /* sellQty */)
	if err != nil {
		t.Fatal(err)
	}
	tests := []struct {
		name string
		q    Quote
		want Decision
	}{
		{"cheap buys", Quote{Buy: 6, Sell: 5.4}, Decision{Buy: 2}},
		{"expensive sells", Quote{Buy: 10.5, Sell: 9.45}, Decision{Sell: 3}},
		{"middle does nothing", Quote{Buy: 8, Sell: 7.2}, Decision{}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tr.Decide(0, tt.q); got != tt.want {
				t.Errorf("Decide(%+v) = %+v, want %+v", tt.q, got, tt.want)
			}
		})
	}
	if _, err := NewThresholdTrader(7, -1, 9, 1); err == nil {
		t.Error("expected error for negative quantity")
	}
}

func TestThresholdIgnoresWorkload(t *testing.T) {
	tr, err := NewThresholdTrader(7, 2, 9, 3)
	if err != nil {
		t.Fatal(err)
	}
	q := Quote{Buy: 6, Sell: 5.4}
	d1 := tr.Decide(0, q)
	tr.Observe(0, 1000 /* huge emission */, q, d1)
	d2 := tr.Decide(1, q)
	if d1 != d2 {
		t.Error("Threshold must not react to emissions")
	}
}

func TestLyapunovConstructorErrors(t *testing.T) {
	if _, err := NewLyapunovTrader(0, 1, 10, 10); err == nil {
		t.Error("expected error for V = 0")
	}
	if _, err := NewLyapunovTrader(1, 0, 10, 10); err == nil {
		t.Error("expected error for zMax = 0")
	}
	if _, err := NewLyapunovTrader(1, 1, 10, 0); err == nil {
		t.Error("expected error for zero horizon")
	}
	if _, err := NewLyapunovTrader(1, 1, -1, 10); err == nil {
		t.Error("expected error for negative cap")
	}
}

func TestLyapunovQueueDynamics(t *testing.T) {
	// Cap 0 => capPerSlot 0; every emission inflates the queue until the
	// trader starts buying.
	tr, err := NewLyapunovTrader(1 /* V */, 2 /* zMax */, 0, 100)
	if err != nil {
		t.Fatal(err)
	}
	q := Quote{Buy: 8, Sell: 7.2}
	// Initially the queue is empty: no buying, and selling looks free
	// revenue (V*r > Q = 0).
	d := tr.Decide(0, q)
	if d.Buy != 0 {
		t.Errorf("empty queue should not buy, got %+v", d)
	}
	// Push emissions until the queue exceeds V*c = 8.
	for slot := 0; tr.queue <= 8 && slot < 100; slot++ {
		d := tr.Decide(slot, q)
		tr.Observe(slot, 3, q, d)
	}
	if tr.queue <= 8 {
		t.Fatal("queue never built up")
	}
	d = tr.Decide(99, q)
	if d.Buy != 2 {
		t.Errorf("pressured queue should buy at full rate, got %+v", d)
	}
	if d.Sell != 0 {
		t.Errorf("pressured queue should not sell, got %+v", d)
	}
}

func TestLyapunovQueueNonNegative(t *testing.T) {
	tr, err := NewLyapunovTrader(1, 5, 1000, 10)
	if err != nil {
		t.Fatal(err)
	}
	q := Quote{Buy: 8, Sell: 7.2}
	for slot := 0; slot < 50; slot++ {
		d := tr.Decide(slot, q)
		tr.Observe(slot, 0, q, d) // zero emissions, generous cap
		if tr.queue < 0 {
			t.Fatal("queue went negative")
		}
	}
}

func TestLyapunovTradeoffWithV(t *testing.T) {
	// Larger V weights cost more heavily, so buying starts later (queue
	// must grow larger first) and the final violation is larger.
	run := func(v float64) float64 {
		tr, err := NewLyapunovTrader(v, 2, 0, 200)
		if err != nil {
			t.Fatal(err)
		}
		q := Quote{Buy: 8, Sell: 7.2}
		emissions := make([]float64, 200)
		decisions := make([]Decision, 200)
		for slot := 0; slot < 200; slot++ {
			d := tr.Decide(slot, q)
			decisions[slot] = d
			emissions[slot] = 1
			tr.Observe(slot, 1, q, d)
		}
		fit, err := Fit(emissions, decisions, 0)
		if err != nil {
			t.Fatal(err)
		}
		return fit
	}
	if fitSmall, fitLarge := run(0.5), run(20); fitSmall > fitLarge {
		t.Errorf("fit(V=0.5)=%v > fit(V=20)=%v; V should trade cost for violation", fitSmall, fitLarge)
	}
}

func TestOneShotTrader(t *testing.T) {
	emissions := []float64{5, 1, 3}
	tr, err := NewOneShotTrader(emissions, 9) // capPerSlot 3
	if err != nil {
		t.Fatal(err)
	}
	q := Quote{Buy: 10, Sell: 9}
	wants := []Decision{{Buy: 2}, {Sell: 2}, {}}
	for slot, want := range wants {
		got := tr.Decide(slot, q)
		if math.Abs(got.Buy-want.Buy) > 1e-12 || math.Abs(got.Sell-want.Sell) > 1e-12 {
			t.Errorf("slot %d: got %+v, want %+v", slot, got, want)
		}
		tr.Observe(slot, emissions[slot], q, got)
	}
	// Out-of-range slots trade nothing.
	if d := tr.Decide(99, q); d != (Decision{}) {
		t.Errorf("out-of-range decision = %+v", d)
	}
	if _, err := NewOneShotTrader(nil, 1); err == nil {
		t.Error("expected error for empty series")
	}
}
