package nn

import (
	"fmt"
	"math"
)

// Batched inference driver and per-row loss helpers. The contract for the
// whole file is bit-for-bit agreement with the one-sample-at-a-time path:
// every helper replays the exact floating-point operation sequence of its
// per-sample counterpart (Softmax, SquaredLoss, Tensor.MaxIndex), so
// evaluating a batch produces the same bits as a per-sample loop and every
// result file stays byte-identical (batch_equiv_test.go pins this).

// stage is layers [at, end) of a network, which both engines run as one
// unit; in and out are the per-sample shapes entering and leaving it.
type stage struct {
	at, end    int
	relu, pool bool
	in, out    []int
}

// planStages is the one place that decides which layers fuse: a Conv2D or
// Dense takes the ReLU directly after it, a Conv2D also the MaxPool2D after
// that, and any other layer is a stage of its own.
func planStages(inShape []int, layers []Layer) []stage {
	stages := make([]stage, 0, len(layers))
	shape := inShape
	for at := 0; at < len(layers); {
		st := stage{at: at, end: at + 1, in: shape}
		_, conv := layers[at].(*Conv2D)
		_, dense := layers[at].(*Dense)
		if conv || dense {
			st.relu = layerIs[*ReLU](layers, st.end)
			if st.relu {
				st.end++
			}
			st.pool = conv && layerIs[*MaxPool2D](layers, st.end)
			if st.pool {
				st.end++
			}
		}
		for _, l := range layers[at:st.end] {
			shape = l.OutShape(shape)
		}
		st.out = shape
		stages = append(stages, st)
		at = st.end
	}
	return stages
}

// layerIs reports whether layers[i] exists and is a T.
func layerIs[T Layer](layers []Layer, i int) bool {
	if i >= len(layers) {
		return false
	}
	_, ok := layers[i].(T)
	return ok
}

// ForwardBatch runs all layers on a batch of samples laid out as
// [B, sampleShape...] and returns the [B, classes] logits. All scratch is
// drawn from a, which the caller owns and must Reset between batches
// (ForwardBatch itself does not Reset: callers build the input batch from
// the same arena). Nothing is written to the network, so any number of
// goroutines may run one Network at once, each on its own arena.
//
// A Conv2D → ReLU → MaxPool2D stage (planStages) runs as one
// Conv2D.forwardDirect with pool: the same bits as the three layers'
// ForwardBatch in turn, without the two full-resolution planes between
// them. Every other stage walks its layers, as the trainer does: its
// backward passes need each boundary's activation.
//
//lint:hotroot inference inner loop; all scratch comes from the arena
func (n *Network) ForwardBatch(in *Tensor, a *Arena) *Tensor {
	out := in
	for i := range n.stages {
		st := &n.stages[i]
		if st.relu && st.pool {
			out = n.Layers[st.at].(*Conv2D).forwardDirect(out, a, true)
			continue
		}
		for _, l := range n.Layers[st.at:st.end] {
			out = l.ForwardBatch(out, a)
		}
	}
	return out
}

// ArgmaxRow returns the index of the largest element of one logits row,
// replicating Tensor.MaxIndex (first maximum wins via strict >).
func ArgmaxRow(row []float64) int {
	best, bestV := 0, math.Inf(-1)
	for i, v := range row {
		if v > bestV {
			best, bestV = i, v
		}
	}
	return best
}

// SoftmaxRowInto writes the softmax of one logits row into dst, replaying
// Softmax's operation order exactly (max-subtraction, exponentials summed
// in index order, then one divide per element). dst must have the row's
// length; aliasing dst with row is allowed.
func SoftmaxRowInto(dst, row []float64) {
	if len(dst) != len(row) {
		//lint:allow panicpolicy inference hot path: a length mismatch is a programmer error and mirrors the Forward shape guards
		panic(fmt.Sprintf("nn: softmax dst length %d does not match row length %d", len(dst), len(row)))
	}
	maxV := math.Inf(-1)
	for _, v := range row {
		if v > maxV {
			maxV = v
		}
	}
	sum := 0.0
	for i, v := range row {
		e := math.Exp(v - maxV)
		dst[i] = e
		sum += e
	}
	for i := range dst {
		dst[i] /= sum
	}
}

// CrossEntropyLossRow computes CrossEntropyLoss for one logits row, writing
// the logits gradient into gradRow (len == len(row)). The float op sequence
// replays the per-sample version exactly: softmax into the gradient buffer,
// -log(p[label]+eps), then the one-hot subtraction.
func CrossEntropyLossRow(row []float64, label int, gradRow []float64) float64 {
	SoftmaxRowInto(gradRow, row)
	const eps = 1e-12
	loss := -math.Log(gradRow[label] + eps)
	gradRow[label] -= 1
	return loss
}

// SquaredLossRow returns the value of SquaredLoss for one logits row using
// scratch for the softmax probabilities (len(scratch) >= len(row)); it
// replays the per-sample summation order term for term but skips the
// gradient, which the inference path never consumes.
func SquaredLossRow(row []float64, label int, scratch []float64) float64 {
	p := scratch[:len(row)]
	SoftmaxRowInto(p, row)
	loss := 0.0
	for k, pk := range p {
		y := 0.0
		if k == label {
			y = 1
		}
		d := pk - y
		loss += d * d
	}
	return loss
}
