package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a tail percentile before the
// harness will print it: a p90 from 40 slots is four samples of noise.
const minBeyond = 10

// sample is a set of measurements of one quantity, sorted ascending.
type sample []float64

// newSample copies and sorts the values.
func newSample(values []float64) sample {
	s := make(sample, len(values))
	copy(s, values)
	sort.Float64s(s)
	return s
}

// median returns the middle value (mean of the middle two for an even
// count), or 0 for an empty sample.
func (s sample) median() float64 {
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank p-th percentile (0.5 < p < 1). It
// refuses when fewer than minBeyond samples lie beyond the returned value.
func (s sample) percentile(p float64) (float64, error) {
	if p <= 0.5 || p >= 1 {
		return 0, fmt.Errorf("stats: percentile %g outside (0.5, 1)", p)
	}
	n := len(s)
	idx := int(math.Ceil(p*float64(n))) - 1
	if beyond := n - 1 - idx; beyond < minBeyond {
		return 0, fmt.Errorf("stats: p%g of %d samples has %d beyond it, need %d", p*100, n, beyond, minBeyond)
	}
	return s[idx], nil
}

// tail returns the highest percentile that still has minBeyond samples beyond
// it, and that percentile's rank in (0, 1). A sample too small to have one
// returns its median and 0.5.
func (s sample) tail() (value, rank float64) {
	n := len(s)
	idx := n - 1 - minBeyond
	if idx <= n/2 {
		return s.median(), 0.5
	}
	return s[idx], float64(idx+1) / float64(n)
}

// quartiles returns the first and third quartile by the exclusive method
// (what Python's statistics.quantiles(values, n=4) computes), so a spread
// printed here is the spread the acceptance check computes. It needs two
// samples.
func (s sample) quartiles() (q1, q3 float64, err error) {
	n := len(s)
	if n < 2 {
		return 0, 0, fmt.Errorf("stats: quartiles need 2 samples, have %d", n)
	}
	at := func(k int) float64 {
		j := k * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := k*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3), nil
}

// describe renders "median [q1, q3] n=N" for diagnostics on stderr.
func (s sample) describe() string {
	if len(s) < 2 {
		return fmt.Sprintf("%.4g n=%d", s.median(), len(s))
	}
	q1, q3, _ := s.quartiles()
	return fmt.Sprintf("%.4g [q1 %.4g, q3 %.4g] n=%d", s.median(), q1, q3, len(s))
}
