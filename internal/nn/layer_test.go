package nn

import (
	"math"
	"math/rand"
	"testing"
)

// numericalGrad estimates d(loss)/d(x_i) by central differences where loss
// is computed by lossOf on a fresh forward pass.
func numericalGrad(x []float64, i int, lossOf func() float64) float64 {
	const h = 1e-6
	orig := x[i]
	x[i] = orig + h
	up := lossOf()
	x[i] = orig - h
	down := lossOf()
	x[i] = orig
	return (up - down) / (2 * h)
}

// checkLayerGradients verifies Backward against numerical differentiation of
// a quadratic loss 0.5*||out||^2 (so gradOut = out).
func checkLayerGradients(t *testing.T, l refLayer, in *Tensor, tol float64) {
	t.Helper()
	lossOf := func() float64 {
		out := l.Forward(in)
		s := 0.0
		for _, v := range out.Data {
			s += 0.5 * v * v
		}
		return s
	}

	// Analytic input and parameter gradients.
	grads := NewGrads(&Network{Layers: []Layer{l}})[0]
	out := l.Forward(in)
	gradIn := l.Backward(in, out.Clone(), grads)

	for i := range in.Data {
		want := numericalGrad(in.Data, i, lossOf)
		if math.Abs(gradIn.Data[i]-want) > tol {
			t.Fatalf("input grad[%d] = %v, want %v", i, gradIn.Data[i], want)
		}
	}

	for pi, p := range l.Params() {
		for i := range p.Data {
			want := numericalGrad(p.Data, i, lossOf)
			if math.Abs(grads[pi].Data[i]-want) > tol {
				t.Fatalf("param %d grad[%d] = %v, want %v", pi, i, grads[pi].Data[i], want)
			}
		}
	}
}

func randomTensor(rng *rand.Rand, shape ...int) *Tensor {
	ts := NewTensor(shape...)
	for i := range ts.Data {
		ts.Data[i] = rng.NormFloat64()
	}
	return ts
}

func TestDenseGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	l := NewDense(5, 3, rng)
	checkLayerGradients(t, l, randomTensor(rng, 5), 1e-5)
}

func TestConv2DGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	l := NewConv2D(2, 3, 3, rng)
	checkLayerGradients(t, l, randomTensor(rng, 2, 6, 6), 1e-4)
}

func TestConv2DPointwiseGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	l := NewConv2D(3, 2, 1, rng)
	checkLayerGradients(t, l, randomTensor(rng, 3, 4, 4), 1e-5)
}

func TestDenseForwardKnownValues(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	l := NewDense(2, 1, rng)
	// Overwrite weights deterministically: out = 2*x0 + 3*x1 + 1.
	l.w.Data[0], l.w.Data[1] = 2, 3
	l.b.Data[0] = 1
	in := &Tensor{Shape: []int{2}, Data: []float64{4, 5}}
	out := l.Forward(in)
	if got := out.Data[0]; got != 24 {
		t.Errorf("Dense forward = %v, want 24", got)
	}
}

func TestConv2DForwardKnownValues(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	l := NewConv2D(1, 1, 2, rng)
	// Identity-ish kernel summing the 2x2 patch.
	for i := range l.w.Data {
		l.w.Data[i] = 1
	}
	l.b.Data[0] = 0
	in := &Tensor{Shape: []int{1, 3, 3}, Data: []float64{
		1, 2, 3,
		4, 5, 6,
		7, 8, 9,
	}}
	out := l.Forward(in)
	want := []float64{12, 16, 24, 28}
	for i := range want {
		if out.Data[i] != want[i] {
			t.Errorf("conv out[%d] = %v, want %v", i, out.Data[i], want[i])
		}
	}
	if out.Shape[1] != 2 || out.Shape[2] != 2 {
		t.Errorf("out shape = %v, want [1,2,2]", out.Shape)
	}
}

func TestMaxPoolForwardBackward(t *testing.T) {
	p := NewMaxPool2D()
	in := &Tensor{Shape: []int{1, 4, 4}, Data: []float64{
		1, 2, 5, 6,
		3, 4, 7, 8,
		9, 1, 1, 1,
		1, 1, 1, 2,
	}}
	out := p.Forward(in)
	want := []float64{4, 8, 9, 2}
	for i := range want {
		if out.Data[i] != want[i] {
			t.Errorf("pool out[%d] = %v, want %v", i, out.Data[i], want[i])
		}
	}
	g := &Tensor{Shape: []int{1, 2, 2}, Data: []float64{1, 2, 3, 4}}
	gin := p.Backward(in, g, nil)
	// Gradient routes to the argmax positions only.
	if gin.At3(0, 1, 1) != 1 || gin.At3(0, 1, 3) != 2 || gin.At3(0, 2, 0) != 3 || gin.At3(0, 3, 3) != 4 {
		t.Errorf("pool backward misrouted: %v", gin.Data)
	}
	sum := 0.0
	for _, v := range gin.Data {
		sum += v
	}
	if sum != 10 {
		t.Errorf("pool backward total = %v, want 10", sum)
	}
}

func TestMaxPoolDropsOddEdges(t *testing.T) {
	p := NewMaxPool2D()
	in := NewTensor(1, 5, 5)
	out := p.Forward(in)
	if out.Shape[1] != 2 || out.Shape[2] != 2 {
		t.Errorf("odd input should floor: got %v", out.Shape)
	}
}

func TestReLUForwardBackward(t *testing.T) {
	r := NewReLU()
	in := &Tensor{Shape: []int{3}, Data: []float64{-1, 0, 2}}
	out := r.Forward(in)
	if out.Data[0] != 0 || out.Data[1] != 0 || out.Data[2] != 2 {
		t.Errorf("relu forward = %v", out.Data)
	}
	g := &Tensor{Shape: []int{3}, Data: []float64{5, 5, 5}}
	gin := r.Backward(in, g, nil)
	if gin.Data[0] != 0 || gin.Data[1] != 0 || gin.Data[2] != 5 {
		t.Errorf("relu backward = %v", gin.Data)
	}
}

func TestOutShapeChain(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	conv := NewConv2D(1, 8, 3, rng)
	pool := NewMaxPool2D()
	shape := []int{1, 28, 28}
	shape = conv.OutShape(shape) // [8, 26, 26]
	if shape[0] != 8 || shape[1] != 26 || shape[2] != 26 {
		t.Fatalf("conv OutShape = %v", shape)
	}
	shape = pool.OutShape(shape) // [8, 13, 13]
	if shape[0] != 8 || shape[1] != 13 || shape[2] != 13 {
		t.Fatalf("pool OutShape = %v", shape)
	}
}

func TestFLOPsPositive(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	layers := []struct {
		name string
		l    Layer
		in   []int
	}{
		{"dense", NewDense(10, 5, rng), []int{10}},
		{"conv", NewConv2D(1, 4, 3, rng), []int{1, 8, 8}},
		{"pool", NewMaxPool2D(), []int{4, 8, 8}},
		{"relu", NewReLU(), []int{16}},
	}
	for _, tt := range layers {
		if f := tt.l.FLOPs(tt.in); f <= 0 {
			t.Errorf("%s FLOPs = %d", tt.name, f)
		}
	}
}
