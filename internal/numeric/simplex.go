package numeric

import (
	"fmt"
	"math"
	"math/rand"
)

// SimplexTol is the tolerance used when validating probability vectors.
const SimplexTol = 1e-6

// IsDistribution reports whether p is a valid probability vector: all
// entries non-negative (within tolerance) and summing to one.
func IsDistribution(p []float64) bool {
	sum := 0.0
	for _, v := range p {
		if v < -SimplexTol || math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
		sum += v
	}
	return math.Abs(sum-1) <= SimplexTol*float64(len(p)+1)
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

// SampleWeighted draws one index proportionally to a non-negative weight
// vector: one pass validates and totals the weights, one uniform draw picks a
// point in [0, total), and a second pass returns the first index whose prefix
// sum exceeds it. Nothing is stored, so the paper's O(N) sampling step costs
// a block start no allocation. It returns an error, before drawing, when the
// weights are empty, contain negatives/NaNs, or sum to zero.
func SampleWeighted(rng *rand.Rand, weights []float64) (int, error) {
	if len(weights) == 0 {
		return 0, fmt.Errorf("numeric: empty weight vector")
	}
	total := 0.0
	for i, w := range weights {
		if w < 0 || math.IsNaN(w) || math.IsInf(w, 0) {
			return 0, fmt.Errorf("numeric: invalid weight %g at index %d", w, i)
		}
		total += w
	}
	if total <= 0 {
		return 0, fmt.Errorf("numeric: weights sum to zero")
	}
	u := rng.Float64() * total
	prefix := 0.0
	for i, w := range weights {
		prefix += w
		if prefix > u {
			return i, nil
		}
	}
	return len(weights) - 1, nil
}
