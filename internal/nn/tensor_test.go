package nn

import (
	"testing"
)

func TestNewTensorAndLen(t *testing.T) {
	ts := NewTensor(2, 3, 4)
	if ts.Len() != 24 {
		t.Errorf("Len = %d, want 24", ts.Len())
	}
	for _, v := range ts.Data {
		if v != 0 {
			t.Fatal("new tensor not zeroed")
		}
	}
}

func TestNewTensorPanicsOnBadShape(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on zero dimension")
		}
	}()
	NewTensor(2, 0)
}

func TestCloneIndependence(t *testing.T) {
	a := NewTensor(3)
	a.Data[0] = 7
	b := a.Clone()
	b.Data[0] = 9
	if a.Data[0] != 7 {
		t.Error("Clone shares storage")
	}
}

func TestAt3Set3(t *testing.T) {
	ts := NewTensor(2, 3, 4)
	ts.Set3(1, 2, 3, 42)
	if got := ts.At3(1, 2, 3); got != 42 {
		t.Errorf("At3 = %v", got)
	}
	// Row-major layout: index (1,2,3) = (1*3+2)*4+3 = 23.
	if ts.Data[23] != 42 {
		t.Error("unexpected memory layout")
	}
}

func TestMaxIndex(t *testing.T) {
	ts := &Tensor{Shape: []int{3}, Data: []float64{1, 9, 3}}
	if got := ts.MaxIndex(); got != 1 {
		t.Errorf("MaxIndex = %d", got)
	}
}

func TestZero(t *testing.T) {
	ts := &Tensor{Shape: []int{3}, Data: []float64{1, 2, 3}}
	ts.Zero()
	for _, v := range ts.Data {
		if v != 0 {
			t.Fatal("Zero did not clear")
		}
	}
}
