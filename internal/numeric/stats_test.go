package numeric

import (
	"math"
	"testing"
	"testing/quick"
)

func TestClampPositive(t *testing.T) {
	if got := Clamp(5, 0, 3); got != 3 {
		t.Errorf("Clamp high = %v", got)
	}
	if got := Clamp(-5, 0, 3); got != 0 {
		t.Errorf("Clamp low = %v", got)
	}
	if got := Clamp(2, 0, 3); got != 2 {
		t.Errorf("Clamp mid = %v", got)
	}
	if got := Positive(-2); got != 0 {
		t.Errorf("Positive(-2) = %v", got)
	}
	if got := Positive(2); got != 2 {
		t.Errorf("Positive(2) = %v", got)
	}
}

func TestSplitRNGIndependentStreams(t *testing.T) {
	a := SplitRNG(1, "workload")
	b := SplitRNG(1, "market")
	same := 0
	for i := 0; i < 100; i++ {
		if a.Int63() == b.Int63() {
			same++
		}
	}
	if same > 0 {
		t.Errorf("streams collided %d times", same)
	}
}

func TestSplitRNGDeterministic(t *testing.T) {
	a := SplitRNG(99, "bandit")
	b := SplitRNG(99, "bandit")
	for i := 0; i < 10; i++ {
		if a.Int63() != b.Int63() {
			t.Fatal("same seed+stream must reproduce")
		}
	}
}

func TestArgMinMax(t *testing.T) {
	xs := []float64{3, 1, 4, 1, 5}
	if got := ArgMin(xs); got != 1 {
		t.Errorf("ArgMin = %d, want 1", got)
	}
	if got := ArgMax(xs); got != 4 {
		t.Errorf("ArgMax = %d, want 4", got)
	}
	if got := ArgMin(nil); got != -1 {
		t.Errorf("ArgMin(nil) = %d", got)
	}
	if got := ArgMax(nil); got != -1 {
		t.Errorf("ArgMax(nil) = %d", got)
	}
}

// Property: Clamp output always lies in [lo, hi] and is idempotent.
func TestClampProperty(t *testing.T) {
	prop := func(x, a, b float64) bool {
		if math.IsNaN(x) || math.IsNaN(a) || math.IsNaN(b) {
			return true
		}
		lo, hi := a, b
		if lo > hi {
			lo, hi = hi, lo
		}
		y := Clamp(x, lo, hi)
		return y >= lo && y <= hi && Clamp(y, lo, hi) == y
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

// TestSplitRNGStreamPinned locks the exact (seed, label) -> stream mapping.
// SplitRNG is the repository's single blessed RNG constructor (the nodeterm
// analyzer forbids the alternatives), so this mapping is a compatibility
// surface: golden results across the simulator, figures, and deployment
// parity tests all replay through it. If this test fails, the derivation in
// SplitRNG changed and every recorded result is invalidated — that is a
// breaking change to announce, not a test to update in passing.
func TestSplitRNGStreamPinned(t *testing.T) {
	cases := []struct {
		seed   int64
		stream string
		u64    []uint64
		f64    []float64
	}{
		{1, "topology",
			[]uint64{0x708ef227b1016b9b, 0x225c35255c515a0c, 0x36f8ce3beed783fb, 0xf8d278ab2e2ece2e},
			[]float64{0.8793623632245827, 0.2684389526772389, 0.4294679443971142}},
		{42, "workload",
			[]uint64{0xd3f8ef0f7998da4, 0xf2027020d4c0b368, 0x27d4737e0c1b5df0, 0xaf2a5463610cbb01},
			[]float64{0.1035021473500816, 0.8906994018848359, 0.31117099432614287}},
		{42, "market",
			[]uint64{0x3b37e212292a9750, 0x3885db77b381cad6, 0x1e2126bfdc37b4bc, 0xb99c292fdca842a7},
			[]float64{0.46264291655309786, 0.4415850004652511, 0.2353866993730073}},
		{-7, "loss-Ours-0",
			[]uint64{0xea6f3e52242bf54f, 0x8fc4bd3096945983, 0x80681cb7f9edb4f8, 0xe818e64226615ed8},
			[]float64{0.8315198803978486, 0.12319149849386939, 0.00317725165574037}},
	}
	for _, c := range cases {
		rng := SplitRNG(c.seed, c.stream)
		for i, want := range c.u64 {
			if got := rng.Uint64(); got != want {
				t.Errorf("SplitRNG(%d, %q).Uint64()[%d] = %#x, want %#x", c.seed, c.stream, i, got, want)
			}
		}
		rng = SplitRNG(c.seed, c.stream)
		for i, want := range c.f64 {
			if got := rng.Float64(); got != want {
				t.Errorf("SplitRNG(%d, %q).Float64()[%d] = %v, want %v", c.seed, c.stream, i, got, want)
			}
		}
	}
}

func TestApproxEqual(t *testing.T) {
	inf, nan := math.Inf(1), math.NaN()
	cases := []struct {
		a, b, tol float64
		want      bool
	}{
		{1, 1, 0, true},
		{0, 0, 0, true},
		{1, 1 + 1e-12, 1e-9, true},
		{1, 1 + 1e-6, 1e-9, false},
		// Relative scaling: 1e12 vs 1e12+1 differ by 1 but agree to 1e-9.
		{1e12, 1e12 + 1, 1e-9, true},
		// Absolute below magnitude 1: 1e-12 vs 2e-12 agree to 1e-9.
		{1e-12, 2e-12, 1e-9, true},
		{0.1, 0.2, 1e-3, false},
		{inf, inf, 1e-9, true},
		{inf, -inf, 1e-9, false},
		{inf, 1, 1e-9, false},
		{nan, nan, 1e-9, false},
		{nan, 1, 1e-9, false},
	}
	for _, c := range cases {
		if got := ApproxEqual(c.a, c.b, c.tol); got != c.want {
			t.Errorf("ApproxEqual(%v, %v, %v) = %v, want %v", c.a, c.b, c.tol, got, c.want)
		}
	}
}
