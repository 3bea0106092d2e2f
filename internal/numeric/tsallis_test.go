package numeric

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestTsallisWeightsUniformOnEqualLosses(t *testing.T) {
	c := []float64{5, 5, 5, 5}
	p, err := TsallisWeights(c, 0.3, nil)
	if err != nil {
		t.Fatalf("TsallisWeights: %v", err)
	}
	for i := range p {
		if math.Abs(p[i]-0.25) > 1e-9 {
			t.Errorf("p[%d] = %v, want 0.25", i, p[i])
		}
	}
}

func TestTsallisWeightsSingleArm(t *testing.T) {
	p, err := TsallisWeights([]float64{3.2}, 0.5, nil)
	if err != nil {
		t.Fatalf("TsallisWeights: %v", err)
	}
	if p[0] != 1 {
		t.Errorf("p = %v, want [1]", p)
	}
}

func TestTsallisWeightsOrdering(t *testing.T) {
	// Lower cumulative loss must receive higher probability.
	c := []float64{0, 1, 5, 20}
	p, err := TsallisWeights(c, 0.4, nil)
	if err != nil {
		t.Fatalf("TsallisWeights: %v", err)
	}
	for i := 1; i < len(p); i++ {
		if p[i] > p[i-1] {
			t.Errorf("p not monotone with loss: %v", p)
		}
	}
	if !IsDistribution(p) {
		t.Errorf("not a distribution: %v", p)
	}
}

func TestTsallisWeightsShiftInvariance(t *testing.T) {
	// Adding a constant to all losses must not change the distribution
	// (the normalizer absorbs the shift).
	c1 := []float64{1, 2, 3, 10}
	c2 := []float64{101, 102, 103, 110}
	p1, err := TsallisWeights(c1, 0.25, nil)
	if err != nil {
		t.Fatalf("TsallisWeights: %v", err)
	}
	p2, err := TsallisWeights(c2, 0.25, nil)
	if err != nil {
		t.Fatalf("TsallisWeights: %v", err)
	}
	for i := range p1 {
		if math.Abs(p1[i]-p2[i]) > 1e-9 {
			t.Errorf("shift changed weights: %v vs %v", p1, p2)
		}
	}
}

func TestTsallisWeightsErrors(t *testing.T) {
	if _, err := TsallisWeights(nil, 0.5, nil); err == nil {
		t.Error("expected error on empty vector")
	}
	if _, err := TsallisWeights([]float64{1, 2}, 0, nil); err == nil {
		t.Error("expected error on eta = 0")
	}
	if _, err := TsallisWeights([]float64{1, 2}, -1, nil); err == nil {
		t.Error("expected error on eta < 0")
	}
	if _, err := TsallisWeights([]float64{1, 2}, 0.5, make([]float64, 3)); err == nil {
		t.Error("expected error on mismatched out length")
	}
}

func TestTsallisWeightsReusesOut(t *testing.T) {
	out := make([]float64, 3)
	p, err := TsallisWeights([]float64{0, 1, 2}, 0.5, out)
	if err != nil {
		t.Fatalf("TsallisWeights: %v", err)
	}
	if &p[0] != &out[0] {
		t.Error("result did not reuse the provided slice")
	}
}

// Property: the returned vector is a distribution and (approximately)
// minimizes the OMD objective compared to random simplex perturbations.
func TestTsallisWeightsMinimizesObjective(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	prop := func(seed uint32) bool {
		n := int(seed%5) + 2
		eta := 0.05 + float64(seed%97)/97.0
		c := make([]float64, n)
		for i := range c {
			c[i] = rng.Float64() * 50
		}
		p, err := TsallisWeights(c, eta, nil)
		if err != nil || !IsDistribution(p) {
			return false
		}
		best := TsallisObjective(p, c, eta)
		// Compare against random alternatives projected to the simplex.
		for trial := 0; trial < 20; trial++ {
			q := make([]float64, n)
			for i := range q {
				q[i] = math.Abs(p[i] + rng.NormFloat64()*0.1)
			}
			Normalize(q)
			if TsallisObjective(q, c, eta) < best-1e-7 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestTsallisWeightsExtremeEta(t *testing.T) {
	c := []float64{0, 10, 20}
	// Tiny eta: near-uniform exploration.
	p, err := TsallisWeights(c, 1e-6, nil)
	if err != nil {
		t.Fatalf("TsallisWeights tiny eta: %v", err)
	}
	for i := range p {
		if math.Abs(p[i]-1.0/3) > 0.01 {
			t.Errorf("tiny eta should be near uniform, got %v", p)
		}
	}
	// Large eta: concentrates on the best arm.
	p, err = TsallisWeights(c, 100, nil)
	if err != nil {
		t.Fatalf("TsallisWeights large eta: %v", err)
	}
	if p[0] < 0.99 {
		t.Errorf("large eta should concentrate on arm 0, got %v", p)
	}
}

func BenchmarkTsallisWeights(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	const n = 6
	c := make([]float64, n)
	for i := range c {
		c[i] = rng.Float64() * 100
	}
	out := make([]float64, n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := TsallisWeights(c, 0.3, out); err != nil {
			b.Fatal(err)
		}
	}
}

// tsallisWeightsClosures is TsallisWeights as it stood while the solver ran
// through NewtonBisect over closures and a fresh scratch slice. It is the
// oracle for the plain-loop version: every iterate, and so every returned
// bit, must match.
func tsallisWeightsClosures(c []float64, eta float64) ([]float64, error) {
	n := len(c)
	out := make([]float64, n)
	if n == 1 {
		out[0] = 1
		return out, nil
	}
	minC := c[0]
	for _, v := range c[1:] {
		if v < minC {
			minC = v
		}
	}
	d := make([]float64, n)
	for i, v := range c {
		d[i] = v - minC
	}
	sum := func(t float64) float64 {
		s := 0.0
		for _, di := range d {
			x := eta * (di + t)
			s += 4 / (x * x)
		}
		return s
	}
	f := func(t float64) float64 { return sum(t) - 1 }
	df := func(t float64) float64 {
		s := 0.0
		for _, di := range d {
			x := di + t
			s += -8 / (eta * eta * x * x * x)
		}
		return s
	}
	lo := 2 / eta
	hi := 2 * math.Sqrt(float64(n)) / eta
	for i := 0; f(hi) > 0 && i < 64; i++ {
		hi *= 1 + math.Ldexp(1, i-30)
	}
	t, err := NewtonBisect(f, df, lo, hi, 1e-13*lo)
	if err != nil {
		return nil, err
	}
	total := 0.0
	for i, di := range d {
		x := eta * (di + t)
		out[i] = 4 / (x * x)
		total += out[i]
	}
	for i := range out {
		out[i] /= total
	}
	return out, nil
}

func TestTsallisWeightsMatchesClosureSolver(t *testing.T) {
	rng := SplitRNG(11, "tsallis-bits")
	for trial := 0; trial < 20000; trial++ {
		n := []int{1, 2, 6, 64}[trial%4]
		c := make([]float64, n)
		for i := range c {
			switch trial / 4 % 4 {
			case 0: // losses as a young block sees them
				c[i] = rng.Float64() * 100
			case 1: // importance-weighted estimates late in a run: huge gaps
				c[i] = math.Ldexp(rng.Float64(), rng.Intn(80))
			case 2: // ties and near-ties
				c[i] = float64(rng.Intn(3)) + rng.Float64()*1e-12
			case 3: // negative and shifted
				c[i] = rng.NormFloat64()*1e6 - 1e9
			}
		}
		eta := math.Ldexp(0.5+rng.Float64(), rng.Intn(60)-50) // 2^-51 .. 2^10
		want, wantErr := tsallisWeightsClosures(c, eta)
		out := make([]float64, n)
		got, err := TsallisWeights(c, eta, out)
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("c=%v eta=%g: error %v, closure solver %v", c, eta, err, wantErr)
		}
		if err != nil {
			continue
		}
		if &got[0] != &out[0] {
			t.Fatal("result is not the caller's out")
		}
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("c=%v eta=%g: p[%d] = %x, closure solver %x", c, eta, i,
					math.Float64bits(got[i]), math.Float64bits(want[i]))
			}
		}
	}
}

func TestTsallisWeightsReusedOutAllocatesNothing(t *testing.T) {
	c := []float64{3, 1, 4, 1, 5, 9}
	out := make([]float64, len(c))
	if n := testing.AllocsPerRun(100, func() {
		if _, err := TsallisWeights(c, 0.3, out); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("TsallisWeights with a reused out: %v allocs per call, want 0", n)
	}
}

// TsallisObjective evaluates the OMD objective <p, C> - sum(4*sqrt(p)-2p)/eta
// for a candidate distribution p: what TsallisWeights minimizes.
func TsallisObjective(p, c []float64, eta float64) float64 {
	obj := 0.0
	for i, pi := range p {
		obj += pi*c[i] - (4*math.Sqrt(pi)-2*pi)/eta
	}
	return obj
}
