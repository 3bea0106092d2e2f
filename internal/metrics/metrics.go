// Package metrics provides the accounting helpers shared by the simulator
// and the benchmark harness: cost breakdowns, regret and fit series, and
// normalization utilities used to render the paper's normalized figures.
package metrics

import (
	"fmt"
	"math"
)

// CostBreakdown decomposes the paper's objective P into its terms.
type CostBreakdown struct {
	// InferLoss is sum_t sum_i x * E[l_n] (expected inference loss, using
	// the posterior test-pool mean exactly as the paper's Offline does).
	InferLoss float64
	// Compute is sum_t sum_i x * v_{i,n}.
	Compute float64
	// Switching is sum_t sum_i u_i * y_i^t (weighted).
	Switching float64
	// Trading is sum_t (z^t c^t - w^t r^t).
	Trading float64
}

// Total returns the full objective value.
func (c CostBreakdown) Total() float64 {
	return c.InferLoss + c.Compute + c.Switching + c.Trading
}

// Add accumulates another breakdown in place.
func (c *CostBreakdown) Add(o CostBreakdown) {
	c.InferLoss += o.InferLoss
	c.Compute += o.Compute
	c.Switching += o.Switching
	c.Trading += o.Trading
}

// String renders the breakdown compactly.
func (c CostBreakdown) String() string {
	return fmt.Sprintf("total=%.3f (loss=%.3f compute=%.3f switch=%.3f trade=%.3f)",
		c.Total(), c.InferLoss, c.Compute, c.Switching, c.Trading)
}

// Normalize divides every element of series by the largest absolute value
// across all the given series, returning normalized copies (the paper's
// "normalized cumulative total cost" style). A zero max leaves values as-is.
func Normalize(series ...[]float64) [][]float64 {
	maxAbs := 0.0
	for _, s := range series {
		for _, v := range s {
			if a := math.Abs(v); a > maxAbs {
				maxAbs = a
			}
		}
	}
	out := make([][]float64, len(series))
	for i, s := range series {
		out[i] = make([]float64, len(s))
		for j, v := range s {
			if maxAbs > 0 {
				out[i][j] = v / maxAbs
			} else {
				out[i][j] = v
			}
		}
	}
	return out
}

// Reduction returns the paper's headline metric: the fractional cost
// reduction of ours relative to a baseline ((baseline - ours) / baseline).
// A zero baseline yields 0.
func Reduction(ours, baseline float64) float64 {
	if baseline == 0 {
		return 0
	}
	return (baseline - ours) / baseline
}

// MeanOf averages aligned series element-wise; all series must share a
// length.
func MeanOf(series ...[]float64) ([]float64, error) {
	if len(series) == 0 {
		return nil, fmt.Errorf("metrics: no series")
	}
	n := len(series[0])
	for i, s := range series {
		if len(s) != n {
			return nil, fmt.Errorf("metrics: series %d has length %d, want %d", i, len(s), n)
		}
	}
	out := make([]float64, n)
	for _, s := range series {
		for j, v := range s {
			out[j] += v
		}
	}
	for j := range out {
		out[j] /= float64(len(series))
	}
	return out, nil
}
