//go:build amd64

package ok

import "testing"

func TestAddEquivalence(t *testing.T) {
	x := []float64{1}
	addAVX2(x, []float64{2})
	if x[0] != 3 {
		t.Fatal(x[0])
	}
}

func TestScaleEquivalence(t *testing.T) {
	scaleAVX2(nil, 2)
	_ = t
}
