package nn

import (
	"fmt"
	"math"
)

// Network is a feed-forward sequence of layers with a classification head.
type Network struct {
	Name   string
	Layers []Layer

	inShape []int
}

// NewNetwork assembles a network over the given input shape. The input shape
// is recorded so parameter/FLOP accounting can be computed statically.
func NewNetwork(name string, inShape []int, layers ...Layer) *Network {
	s := make([]int, len(inShape))
	copy(s, inShape)
	return &Network{Name: name, Layers: layers, inShape: s}
}

// InShape returns the expected input shape.
func (n *Network) InShape() []int {
	s := make([]int, len(n.inShape))
	copy(s, n.inShape)
	return s
}

// Forward runs all layers on one sample and returns the logits.
func (n *Network) Forward(in *Tensor) *Tensor {
	out := in
	for _, l := range n.Layers {
		out = l.Forward(out)
	}
	return out
}

// Grads holds one training run's parameter-gradient accumulators:
// Grads[i] is aligned with Layers[i].Params(). The trainer owns it; a network
// that only infers never has one.
type Grads [][]*Tensor

// NewGrads allocates zeroed accumulators shaped like net's parameters.
func NewGrads(net *Network) Grads {
	g := make(Grads, len(net.Layers))
	for i, l := range net.Layers {
		for _, p := range l.Params() {
			g[i] = append(g[i], NewTensor(p.Shape...))
		}
	}
	return g
}

// Step applies one SGD update with the given learning rate and clears the
// gradients as it goes. scale divides accumulated gradients (minibatch size).
func (n *Network) Step(grads Grads, lr, scale float64) {
	if scale <= 0 {
		scale = 1
	}
	for i, l := range n.Layers {
		for j, p := range l.Params() {
			stepSIMD(lr, scale, grads[i][j].Data, p.Data)
			grads[i][j].Zero()
		}
	}
}

// ForwardFLOPs estimates multiply-accumulate operations of one inference.
func (n *Network) ForwardFLOPs() int64 {
	shape := n.InShape()
	total := int64(0)
	for _, l := range n.Layers {
		total += l.FLOPs(shape)
		shape = l.OutShape(shape)
	}
	return total
}

// OutDim returns the network's output dimensionality (number of classes).
func (n *Network) OutDim() (int, error) {
	shape := n.InShape()
	for _, l := range n.Layers {
		shape = l.OutShape(shape)
	}
	if len(shape) != 1 {
		return 0, fmt.Errorf("nn: network %q output shape %v is not a vector", n.Name, shape)
	}
	return shape[0], nil
}

// Softmax writes the softmax of logits into a new tensor, using the
// max-subtraction trick for numerical stability.
func Softmax(logits *Tensor) *Tensor {
	out := NewTensor(logits.Shape...)
	maxV := math.Inf(-1)
	for _, v := range logits.Data {
		if v > maxV {
			maxV = v
		}
	}
	sum := 0.0
	for i, v := range logits.Data {
		e := math.Exp(v - maxV)
		out.Data[i] = e
		sum += e
	}
	for i := range out.Data {
		out.Data[i] /= sum
	}
	return out
}

// CrossEntropyLoss returns the cross-entropy loss for one sample together
// with the gradient w.r.t. the logits.
func CrossEntropyLoss(logits *Tensor, label int) (float64, *Tensor) {
	p := Softmax(logits)
	const eps = 1e-12
	loss := -math.Log(p.Data[label] + eps)
	grad := p // softmax - onehot
	grad.Data[label] -= 1
	return loss, grad
}

// SquaredLoss returns the paper's squared inference loss for one sample,
// computed between the softmax output and the one-hot label:
// l = sum_k (p_k - y_k)^2, together with the gradient w.r.t. the logits.
func SquaredLoss(logits *Tensor, label int) (float64, *Tensor) {
	p := Softmax(logits)
	loss := 0.0
	diff := NewTensor(logits.Shape...)
	for k, pk := range p.Data {
		y := 0.0
		if k == label {
			y = 1
		}
		d := pk - y
		diff.Data[k] = d
		loss += d * d
	}
	// d loss / d logit_j = sum_k 2*(p_k - y_k) * p_k * (delta_kj - p_j)
	grad := NewTensor(logits.Shape...)
	dot := 0.0
	for k := range p.Data {
		dot += 2 * diff.Data[k] * p.Data[k]
	}
	for j := range p.Data {
		grad.Data[j] = p.Data[j] * (2*diff.Data[j] - dot)
	}
	return loss, grad
}
