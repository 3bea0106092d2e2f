package metrics

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestCostBreakdown(t *testing.T) {
	c := CostBreakdown{InferLoss: 1, Compute: 2, Switching: 3, Trading: -0.5}
	if got := c.Total(); got != 5.5 {
		t.Errorf("Total = %v", got)
	}
	c.Add(CostBreakdown{InferLoss: 1, Compute: 1, Switching: 1, Trading: 1})
	if got := c.Total(); got != 9.5 {
		t.Errorf("after Add, Total = %v", got)
	}
	s := c.String()
	for _, field := range []string{"total=", "loss=", "compute=", "switch=", "trade="} {
		if !strings.Contains(s, field) {
			t.Errorf("String missing %q: %s", field, s)
		}
	}
}

func TestNormalize(t *testing.T) {
	out := Normalize([]float64{1, 2}, []float64{-4, 2})
	// Max abs = 4.
	want0 := []float64{0.25, 0.5}
	want1 := []float64{-1, 0.5}
	for i := range want0 {
		if out[0][i] != want0[i] {
			t.Errorf("out[0] = %v", out[0])
		}
		if out[1][i] != want1[i] {
			t.Errorf("out[1] = %v", out[1])
		}
	}
	// All-zero series pass through.
	z := Normalize([]float64{0, 0})
	if z[0][0] != 0 || z[0][1] != 0 {
		t.Errorf("zero normalize = %v", z[0])
	}
}

func TestNormalizeBounded(t *testing.T) {
	prop := func(xs []float64) bool {
		for _, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return true
			}
		}
		out := Normalize(xs)
		for _, v := range out[0] {
			if math.Abs(v) > 1+1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestReduction(t *testing.T) {
	if got := Reduction(50, 100); got != 0.5 {
		t.Errorf("Reduction = %v, want 0.5", got)
	}
	if got := Reduction(100, 100); got != 0 {
		t.Errorf("equal values = %v", got)
	}
	if got := Reduction(150, 100); got != -0.5 {
		t.Errorf("worse than baseline = %v", got)
	}
	if got := Reduction(1, 0); got != 0 {
		t.Errorf("zero baseline = %v", got)
	}
}

func TestMeanOf(t *testing.T) {
	out, err := MeanOf([]float64{1, 2}, []float64{3, 4})
	if err != nil {
		t.Fatal(err)
	}
	if out[0] != 2 || out[1] != 3 {
		t.Errorf("MeanOf = %v", out)
	}
	if _, err := MeanOf(); err == nil {
		t.Error("expected error for no series")
	}
	if _, err := MeanOf([]float64{1}, []float64{1, 2}); err == nil {
		t.Error("expected error for ragged series")
	}
}
