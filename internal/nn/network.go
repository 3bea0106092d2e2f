package nn

import "fmt"

// Network is a feed-forward sequence of layers with a classification head.
// Layers is fixed after NewNetwork: the stage list both engines run is
// planned from it once. A layer's parameters may change; the sequence may not.
type Network struct {
	Name   string
	Layers []Layer

	inShape []int
	stages  []stage
}

// NewNetwork assembles a network over the given input shape. The input shape
// is recorded so parameter/FLOP accounting can be computed statically.
func NewNetwork(name string, inShape []int, layers ...Layer) *Network {
	s := make([]int, len(inShape))
	copy(s, inShape)
	return &Network{Name: name, Layers: layers, inShape: s, stages: planStages(s, layers)}
}

// InShape returns the expected input shape.
func (n *Network) InShape() []int {
	s := make([]int, len(n.inShape))
	copy(s, n.inShape)
	return s
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
