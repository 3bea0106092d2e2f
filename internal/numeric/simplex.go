package numeric

import (
	"fmt"
	"math"
	"math/rand"
)

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
