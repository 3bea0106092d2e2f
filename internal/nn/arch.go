package nn

import (
	"math/rand"
)

// The constructors below mirror the paper's evaluated architectures (Sec. V):
// small CNNs with two conv+pool stages, LeNet-5, MLPs with two hidden layers,
// and a slim depthwise-separable-style CNN standing in for MobileNet V1.
// Spatial sizes are kept small so training on the synthetic datasets stays
// fast; relative capacity ordering (and thus relative loss/energy) matches
// the paper's zoo.

// flattenDim computes the flattened feature count after running the given
// layers over the input shape.
func flattenDim(in []int, layers ...Layer) int {
	shape := in
	for _, l := range layers {
		shape = l.OutShape(shape)
	}
	return shapeLen(shape)
}

// BuildCNN builds the paper's CNN: two 3x3 conv layers (c1, c2 channels),
// each followed by ReLU and 2x2 max pooling, then a fully connected layer
// and the class logits.
func BuildCNN(name string, in []int, c1, c2, hidden, classes int, rng *rand.Rand) *Network {
	conv1 := NewConv2D(in[0], c1, 3, rng)
	pool1 := NewMaxPool2D()
	conv2 := NewConv2D(c1, c2, 3, rng)
	pool2 := NewMaxPool2D()
	front := []Layer{conv1, NewReLU(), pool1, conv2, NewReLU(), pool2}
	flat := flattenDim(in, front...)
	layers := append(front,
		NewDense(flat, hidden, rng),
		NewReLU(),
		NewDense(hidden, classes, rng),
	)
	return NewNetwork(name, in, layers...)
}

// BuildLeNet5 builds a LeNet-5-style network: conv(6)-pool-conv(16)-pool
// followed by dense 120-84-classes. The convolution kernel is 5x5 as in the
// original; channel counts scale with the `scale` factor so the zoo can hold
// two sizes of the same family.
func BuildLeNet5(name string, in []int, scale int, classes int, rng *rand.Rand) *Network {
	if scale <= 0 {
		scale = 1
	}
	conv1 := NewConv2D(in[0], 6*scale, 5, rng)
	pool1 := NewMaxPool2D()
	conv2 := NewConv2D(6*scale, 16*scale, 5, rng)
	pool2 := NewMaxPool2D()
	front := []Layer{conv1, NewReLU(), pool1, conv2, NewReLU(), pool2}
	flat := flattenDim(in, front...)
	layers := append(front,
		NewDense(flat, 120*scale, rng),
		NewReLU(),
		NewDense(120*scale, 84*scale, rng),
		NewReLU(),
		NewDense(84*scale, classes, rng),
	)
	return NewNetwork(name, in, layers...)
}

// BuildMLP builds a multilayer perceptron with two hidden layers.
func BuildMLP(name string, in []int, h1, h2, classes int, rng *rand.Rand) *Network {
	return NewNetwork(name, in,
		NewDense(shapeLen(in), h1, rng),
		NewReLU(),
		NewDense(h1, h2, rng),
		NewReLU(),
		NewDense(h2, classes, rng),
	)
}

// BuildMobileCNN builds a slim CNN standing in for MobileNet V1: a 3x3 stem
// followed by 1x1 pointwise convolutions (the cheap-compute trick MobileNet
// relies on), pooling, and a small classifier head.
func BuildMobileCNN(name string, in []int, stem, point, classes int, rng *rand.Rand) *Network {
	conv1 := NewConv2D(in[0], stem, 3, rng)
	pool1 := NewMaxPool2D()
	pw1 := NewConv2D(stem, point, 1, rng)
	pool2 := NewMaxPool2D()
	pw2 := NewConv2D(point, point, 1, rng)
	front := []Layer{conv1, NewReLU(), pool1, pw1, NewReLU(), pool2, pw2, NewReLU()}
	flat := flattenDim(in, front...)
	layers := append(front,
		NewDense(flat, classes, rng),
	)
	return NewNetwork(name, in, layers...)
}
