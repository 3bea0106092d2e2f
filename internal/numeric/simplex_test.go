package numeric

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// simplexTol is the tolerance used when validating probability vectors.
const simplexTol = 1e-6

// IsDistribution reports whether p is a valid probability vector: all
// entries non-negative (within tolerance) and summing to one.
func IsDistribution(p []float64) bool {
	sum := 0.0
	for _, v := range p {
		if v < -simplexTol || math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
		sum += v
	}
	return math.Abs(sum-1) <= simplexTol*float64(len(p)+1)
}

// Normalize scales the non-negative vector p in place so it sums to one.
// A zero vector becomes uniform.
func Normalize(p []float64) {
	sum := 0.0
	for _, v := range p {
		sum += v
	}
	if sum <= 0 {
		u := 1 / float64(len(p))
		for i := range p {
			p[i] = u
		}
		return
	}
	for i := range p {
		p[i] /= sum
	}
}

func TestIsDistribution(t *testing.T) {
	tests := []struct {
		name string
		p    []float64
		want bool
	}{
		{"uniform", []float64{0.25, 0.25, 0.25, 0.25}, true},
		{"point mass", []float64{0, 0, 1}, true},
		{"negative entry", []float64{-0.1, 0.6, 0.5}, false},
		{"sums over one", []float64{0.6, 0.6}, false},
		{"sums under one", []float64{0.2, 0.2}, false},
		{"nan entry", []float64{math.NaN(), 1}, false},
		{"inf entry", []float64{math.Inf(1), 0}, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := IsDistribution(tt.p); got != tt.want {
				t.Errorf("IsDistribution(%v) = %v, want %v", tt.p, got, tt.want)
			}
		})
	}
}

func TestNormalize(t *testing.T) {
	p := []float64{2, 3, 5}
	Normalize(p)
	want := []float64{0.2, 0.3, 0.5}
	for i := range p {
		if math.Abs(p[i]-want[i]) > 1e-12 {
			t.Errorf("p[%d] = %v, want %v", i, p[i], want[i])
		}
	}
}

func TestNormalizeZeroVector(t *testing.T) {
	p := []float64{0, 0, 0, 0}
	Normalize(p)
	for i := range p {
		if math.Abs(p[i]-0.25) > 1e-12 {
			t.Errorf("p[%d] = %v, want 0.25", i, p[i])
		}
	}
}

// weightedSampler is the prefix-table-and-binary-search sampler the policies
// used to build once per draw; it stays here as SampleWeighted's reference.
type weightedSampler struct {
	prefix []float64
}

func newWeightedSampler(weights []float64) (*weightedSampler, error) {
	if len(weights) == 0 {
		return nil, fmt.Errorf("numeric: empty weight vector")
	}
	prefix := make([]float64, len(weights))
	sum := 0.0
	for i, w := range weights {
		if w < 0 || math.IsNaN(w) || math.IsInf(w, 0) {
			return nil, fmt.Errorf("numeric: invalid weight %g at index %d", w, i)
		}
		sum += w
		prefix[i] = sum
	}
	if sum <= 0 {
		return nil, fmt.Errorf("numeric: weights sum to zero")
	}
	return &weightedSampler{prefix: prefix}, nil
}

func (s *weightedSampler) sample(rng *rand.Rand) int {
	total := s.prefix[len(s.prefix)-1]
	u := rng.Float64() * total
	i := sort.Search(len(s.prefix), func(i int) bool { return s.prefix[i] > u })
	if i >= len(s.prefix) {
		i = len(s.prefix) - 1
	}
	return i
}

func TestWeightedSamplerErrors(t *testing.T) {
	rng, untouched := SplitRNG(3, "sampler"), SplitRNG(3, "sampler")
	for _, weights := range [][]float64{nil, {1, -1}, {0, 0}, {math.NaN()}, {1, math.Inf(1)}} {
		_, err := SampleWeighted(rng, weights)
		_, refErr := newWeightedSampler(weights)
		if err == nil || refErr == nil || err.Error() != refErr.Error() {
			t.Errorf("weights %v: error %v, reference %v", weights, err, refErr)
		}
	}
	if rng.Uint64() != untouched.Uint64() {
		t.Error("a rejected weight vector consumed a draw")
	}
}

func TestWeightedSamplerDistribution(t *testing.T) {
	weights := []float64{1, 2, 3, 4}
	rng := SplitRNG(42, "sampler")
	const draws = 200000
	counts := make([]int, len(weights))
	for i := 0; i < draws; i++ {
		arm, err := SampleWeighted(rng, weights)
		if err != nil {
			t.Fatalf("SampleWeighted: %v", err)
		}
		counts[arm]++
	}
	for i, w := range weights {
		got := float64(counts[i]) / draws
		want := w / 10
		if math.Abs(got-want) > 0.01 {
			t.Errorf("empirical p[%d] = %v, want %v", i, got, want)
		}
	}
}

func TestWeightedSamplerZeroWeightNeverDrawn(t *testing.T) {
	rng := SplitRNG(1, "sampler")
	for i := 0; i < 10000; i++ {
		if got, err := SampleWeighted(rng, []float64{0, 1, 0}); err != nil || got != 1 {
			t.Fatalf("drew zero-weight index %d (err %v)", got, err)
		}
	}
}

// TestSampleWeightedMatchesPrefixSearch pins the in-place scan to the table
// sampler it replaced: the same index from the same stream position, for
// weight vectors with zeros, ties and twenty orders of magnitude between
// entries, and exactly one draw consumed either way.
func TestSampleWeightedMatchesPrefixSearch(t *testing.T) {
	gen := SplitRNG(7, "weights")
	rng, refRNG := SplitRNG(7, "draws"), SplitRNG(7, "draws")
	for trial := 0; trial < 5000; trial++ {
		n := []int{1, 2, 6, 64}[trial%4]
		weights := make([]float64, n)
		for i := range weights {
			switch gen.Intn(4) {
			case 0: // stays zero
			case 1:
				weights[i] = gen.Float64()
			case 2:
				weights[i] = math.Ldexp(gen.Float64(), gen.Intn(140)-70)
			case 3:
				weights[i] = 0.25
			}
		}
		weights[gen.Intn(n)] += 1e-9
		ref, err := newWeightedSampler(weights)
		if err != nil {
			t.Fatalf("reference rejected %v: %v", weights, err)
		}
		for k := 0; k < 4; k++ {
			got, err := SampleWeighted(rng, weights)
			if err != nil {
				t.Fatalf("SampleWeighted rejected %v: %v", weights, err)
			}
			if want := ref.sample(refRNG); got != want {
				t.Fatalf("trial %d: drew %d, reference %d, weights %v", trial, got, want, weights)
			}
		}
	}
	if rng.Uint64() != refRNG.Uint64() {
		t.Error("streams diverged: SampleWeighted does not consume exactly one draw")
	}
}
