package workload

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func newGen(t *testing.T, edges int, seed int64) *Generator {
	t.Helper()
	g, err := NewGenerator(Config{Edges: edges, MeanPeak: 100, Spread: 5}, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatalf("NewGenerator: %v", err)
	}
	return g
}

func TestNewGeneratorErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	tests := []struct {
		name string
		cfg  Config
	}{
		{"zero edges", Config{Edges: 0, MeanPeak: 10, Spread: 2}},
		{"zero peak", Config{Edges: 3, MeanPeak: 0, Spread: 2}},
		{"spread below one", Config{Edges: 3, MeanPeak: 10, Spread: 0.5}},
		{"NaN peak", Config{Edges: 3, MeanPeak: math.NaN(), Spread: 2}},
		{"infinite peak", Config{Edges: 3, MeanPeak: math.Inf(1), Spread: 2}},
		{"peak past an int count", Config{Edges: 3, MeanPeak: 1e300, Spread: 2}},
		{"NaN spread", Config{Edges: 3, MeanPeak: 10, Spread: math.NaN()}},
		{"spread past an int count", Config{Edges: 3, MeanPeak: 10, Spread: 1e300}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := NewGenerator(tt.cfg, rng); err == nil {
				t.Error("expected error")
			}
		})
	}
}

// TestPeakBound holds the busiest edge's scale to maxPeak: at the bound the
// counts fit an int32, just past it the generator refuses.
func TestPeakBound(t *testing.T) {
	g, err := NewGenerator(Config{Edges: 4, MeanPeak: maxPeak / 2, Spread: 4}, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	for slot := 0; slot < SlotsPerDay; slot++ {
		for _, m := range g.Draw(slot) {
			if m <= 0 || m > math.MaxInt32 {
				t.Fatalf("slot %d: count %d outside (0, MaxInt32]", slot, m)
			}
		}
	}
	if _, err := NewGenerator(Config{Edges: 4, MeanPeak: maxPeak/2 + 1, Spread: 4}, rand.New(rand.NewSource(1))); err == nil {
		t.Error("a busiest edge past maxPeak was accepted")
	}
}

func TestIntensityShape(t *testing.T) {
	g := newGen(t, 1, 2)
	p := DefaultProfile()
	// Peaks are local maxima and above the floor.
	am := g.Intensity(p.AMPeak)
	pm := g.Intensity(p.PMPeak)
	night := g.Intensity(0)
	if am < 0.95 || pm < 0.95 {
		t.Errorf("peak intensities = %v, %v, want near 1", am, pm)
	}
	if night > 0.4 {
		t.Errorf("night intensity = %v, want low", night)
	}
	for slot := 0; slot < 2*SlotsPerDay; slot++ {
		v := g.Intensity(slot)
		if v <= 0 || v > 1 {
			t.Fatalf("intensity(%d) = %v out of (0,1]", slot, v)
		}
	}
	// Second day repeats the first (deterministic diurnal component).
	for slot := 0; slot < SlotsPerDay; slot++ {
		if g.Intensity(slot) != g.Intensity(slot+SlotsPerDay) {
			t.Fatal("intensity not periodic over a day")
		}
	}
}

func TestDrawCountsNonNegative(t *testing.T) {
	g := newGen(t, 10, 3)
	for slot := 0; slot < 160; slot++ {
		counts := g.Draw(slot)
		if len(counts) != 10 {
			t.Fatalf("len = %d", len(counts))
		}
		for _, c := range counts {
			if c < 0 {
				t.Fatal("negative arrival count")
			}
		}
	}
}

func TestPeakBusierThanNight(t *testing.T) {
	g := newGen(t, 5, 4)
	p := DefaultProfile()
	peakSum, nightSum := 0, 0
	for rep := 0; rep < 50; rep++ {
		for _, c := range g.Draw(p.AMPeak) {
			peakSum += c
		}
		for _, c := range g.Draw(0) {
			nightSum += c
		}
	}
	if peakSum <= nightSum*2 {
		t.Errorf("peak total %d not clearly above night total %d", peakSum, nightSum)
	}
}

func TestSeriesDimensions(t *testing.T) {
	g := newGen(t, 7, 5)
	s := g.Series(160)
	if len(s) != 160 {
		t.Fatalf("series length %d", len(s))
	}
	for _, row := range s {
		if len(row) != 7 {
			t.Fatalf("row length %d", len(row))
		}
	}
}

func TestScalesSpread(t *testing.T) {
	g, err := NewGenerator(Config{Edges: 200, MeanPeak: 100, Spread: 9}, rand.New(rand.NewSource(6)))
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := g.scales[0], g.scales[0]
	for _, s := range g.scales {
		lo = math.Min(lo, s)
		hi = math.Max(hi, s)
	}
	if lo < 100/3.01 || hi > 100*3.01 {
		t.Errorf("scales outside log-uniform band: [%v, %v]", lo, hi)
	}
	if hi/lo < 2 {
		t.Errorf("spread too tight: [%v, %v]", lo, hi)
	}
}

func TestGeneratorDeterministic(t *testing.T) {
	g1 := newGen(t, 4, 7)
	g2 := newGen(t, 4, 7)
	for slot := 0; slot < 20; slot++ {
		a, b := g1.Draw(slot), g2.Draw(slot)
		for i := range a {
			if a[i] != b[i] {
				t.Fatal("same seed produced different draws")
			}
		}
	}
}

func TestPoissonMean(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for _, mean := range []float64{0.5, 3, 20, 120} {
		sum := 0
		const n = 20000
		for i := 0; i < n; i++ {
			sum += poisson(rng, mean)
		}
		got := float64(sum) / n
		if math.Abs(got-mean) > mean*0.05+0.1 {
			t.Errorf("poisson(%v) empirical mean %v", mean, got)
		}
	}
	if poisson(rng, 0) != 0 {
		t.Error("poisson(0) != 0")
	}
	if poisson(rng, -5) != 0 {
		t.Error("poisson(negative) != 0")
	}
}

// Property: intensity is bounded and arrival counts scale with the per-edge
// scale ordering on average.
func TestIntensityBoundedProperty(t *testing.T) {
	g := newGen(t, 1, 9)
	prop := func(slot uint16) bool {
		v := g.Intensity(int(slot))
		return v > 0 && v <= 1
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
