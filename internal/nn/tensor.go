package nn

import (
	"fmt"
	"math"
)

// Tensor is a dense n-dimensional array of float64 in row-major order.
type Tensor struct {
	Shape []int
	Data  []float64
}

// NewTensor allocates a zero tensor with the given shape.
func NewTensor(shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		if d <= 0 {
			panic(fmt.Sprintf("nn: non-positive dimension %d in shape %v", d, shape))
		}
		n *= d
	}
	s := make([]int, len(shape))
	copy(s, shape)
	return &Tensor{Shape: s, Data: make([]float64, n)}
}

// shapeLen is the element count of a shape: the product of its dimensions.
func shapeLen(shape []int) int {
	n := 1
	for _, d := range shape {
		n *= d
	}
	return n
}

// Len returns the number of elements.
func (t *Tensor) Len() int { return len(t.Data) }

// Clone returns a deep copy.
func (t *Tensor) Clone() *Tensor {
	out := NewTensor(t.Shape...)
	copy(out.Data, t.Data)
	return out
}

// Zero sets all elements to zero.
func (t *Tensor) Zero() {
	for i := range t.Data {
		t.Data[i] = 0
	}
}

// At3 reads element (c, y, x) of a CHW tensor.
func (t *Tensor) At3(c, y, x int) float64 {
	_, h, w := t.Shape[0], t.Shape[1], t.Shape[2]
	return t.Data[(c*h+y)*w+x]
}

// Set3 writes element (c, y, x) of a CHW tensor.
func (t *Tensor) Set3(c, y, x int, v float64) {
	_, h, w := t.Shape[0], t.Shape[1], t.Shape[2]
	t.Data[(c*h+y)*w+x] = v
}

// MaxIndex returns the index of the largest element (argmax).
func (t *Tensor) MaxIndex() int {
	best, bestV := 0, math.Inf(-1)
	for i, v := range t.Data {
		if v > bestV {
			best, bestV = i, v
		}
	}
	return best
}
