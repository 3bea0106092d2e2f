package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = float64(n - i) // descending: newSample must sort
	}
	return v
}

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		values []float64
		want   float64
	}{
		{nil, 0},
		{[]float64{7}, 7},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := newSample(c.values).median(); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.values, got, c.want)
		}
	}
}

func TestPercentileRefusesThinTails(t *testing.T) {
	// p90 of 100 samples is the 90th smallest, with exactly ten beyond it.
	if got, err := newSample(seq(100)).percentile(0.90); err != nil || got != 90 {
		t.Errorf("p90 of 1..100 = %v, %v; want 90", got, err)
	}
	// One sample fewer leaves nine beyond: refused.
	if _, err := newSample(seq(99)).percentile(0.90); err == nil {
		t.Error("p90 of 99 samples was printed with nine samples beyond it")
	}
	if _, err := newSample(seq(500)).percentile(0.99); err == nil {
		t.Error("p99 of 500 samples was printed with four samples beyond it")
	}
	if got, err := newSample(seq(1100)).percentile(0.99); err != nil || got != 1089 {
		t.Errorf("p99 of 1..1100 = %v, %v; want 1089", got, err)
	}
	for _, p := range []float64{0, 0.5, 1, 1.5} {
		if _, err := newSample(seq(1000)).percentile(p); err == nil {
			t.Errorf("percentile(%v) accepted", p)
		}
	}
}

func TestTail(t *testing.T) {
	v, rank := newSample(seq(300)).tail()
	if v != 290 || math.Abs(rank-290.0/300) > 1e-12 {
		t.Errorf("tail of 1..300 = %v at rank %v, want 290 at %v", v, rank, 290.0/300)
	}
	// Too small to have ten samples beyond anything above the median.
	if v, rank := newSample(seq(15)).tail(); v != 8 || rank != 0.5 {
		t.Errorf("tail of 1..15 = %v at rank %v, want the median 8 at 0.5", v, rank)
	}
}

// TestQuartilesMatchPython pins quartiles against the values Python's
// statistics.quantiles(values, n=4) prints — the spread the acceptance check
// computes.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		values []float64
		q1, q3 float64
	}{
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10.2, 9.7, 10.9, 10.1, 9.9, 10.4, 10.0, 10.3, 9.8, 10.6}, 9.875, 10.45},
		{[]float64{5, 1, 3}, 1, 5},
	} {
		q1, q3, err := newSample(c.values).quartiles()
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(q1-c.q1) > 1e-9 || math.Abs(q3-c.q3) > 1e-9 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.values, q1, q3, c.q1, c.q3)
		}
	}
	if _, _, err := newSample([]float64{1}).quartiles(); err == nil {
		t.Error("quartiles of one sample accepted")
	}
}
