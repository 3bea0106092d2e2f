package nn

import (
	"fmt"
	"math"
	"math/rand"
)

// The float engine's reference semantics, one sample at a time in plain
// loops: every layer's Forward and Backward, the network's Forward, the
// softmax heads and argmax, and the naive SGD trainer. The shipped code runs
// only the batched passes (ForwardBatch/BackwardBatch over arena scratch);
// the tests hold those to these bit for bit — batched inference to a Forward
// loop (batch_equiv_test.go), and a minibatch trained through either to
// identical parameter gradients and weights (train_equiv_test.go).

// refLayer is a Layer with its per-sample reference passes.
type refLayer interface {
	Layer
	// Forward runs the reference implementation on one sample.
	Forward(in *Tensor) *Tensor
	// Backward back-propagates the gradient of the loss w.r.t. Forward(in)
	// and returns the gradient w.r.t. in, adding the parameter gradients
	// into grads.
	Backward(in, gradOut *Tensor, grads []*Tensor) *Tensor
}

// Forward is the reference dot-product loops, each output starting from its
// bias and adding its products in index order — the float summation sequence
// the equivalence tests pin ForwardBatch's kernels to.
func (d *Dense) Forward(in *Tensor) *Tensor {
	if in.Len() != d.InDim {
		panic(fmt.Sprintf("nn: Dense expected %d inputs, got %d", d.InDim, in.Len()))
	}
	out := NewTensor(d.OutDim)
	for o := 0; o < d.OutDim; o++ {
		row := d.w.Data[o*d.InDim : (o+1)*d.InDim]
		sum := d.b.Data[o]
		for i, x := range in.Data {
			sum += row[i] * x
		}
		out.Data[o] = sum
	}
	return out
}

// Backward is the reference one-sample backward pass. Both inner loops are
// axpys: each gw element gets one add per sample and each gi element gets its
// adds in strictly increasing o order — the accumulation sequence
// BackwardBatch's GEMMs replay.
func (d *Dense) Backward(in, gradOut *Tensor, grads []*Tensor) *Tensor {
	gi := NewTensor(d.InDim)
	gw, gb := grads[0].Data, grads[1].Data
	n := d.InDim
	for o, g := range gradOut.Data {
		gb[o] += g
		axpyGo(g, in.Data, gw[o*n:(o+1)*n])
		axpyGo(g, d.w.Data[o*n:(o+1)*n], gi.Data)
	}
	return gi
}

// axpyGo computes y[i] += alpha * x[i] over len(y) elements: the inner loop
// of Dense.Backward, whose add order the batched GEMMs replay.
func axpyGo(alpha float64, x, y []float64) {
	for i := range y {
		y[i] += alpha * x[i]
	}
}

// Forward is the reference convolution loops. Each output pixel starts from
// its channel's bias and adds its receptive field in (ic, ky, kx) order — the
// float summation sequence the equivalence tests pin ForwardBatch's direct
// kernel to.
func (c *Conv2D) Forward(in *Tensor) *Tensor {
	if len(in.Shape) != 3 || in.Shape[0] != c.InC {
		panic(fmt.Sprintf("nn: Conv2D expected [%d,H,W], got %v", c.InC, in.Shape))
	}
	h, w := in.Shape[1], in.Shape[2]
	oh, ow := h-c.K+1, w-c.K+1
	out := NewTensor(c.OutC, oh, ow)
	for oc := 0; oc < c.OutC; oc++ {
		bias := c.b.Data[oc]
		for y := 0; y < oh; y++ {
			for x := 0; x < ow; x++ {
				sum := bias
				for ic := 0; ic < c.InC; ic++ {
					for ky := 0; ky < c.K; ky++ {
						inRow := in.Data[(ic*h+y+ky)*w+x:]
						wRow := c.w.Data[((oc*c.InC+ic)*c.K+ky)*c.K:]
						for kx := 0; kx < c.K; kx++ {
							sum += wRow[kx] * inRow[kx]
						}
					}
				}
				out.Data[(oc*oh+y)*ow+x] = sum
			}
		}
	}
	return out
}

// Backward is the reference one-sample backward pass: per output gradient
// in (oc, y, x) order, zeros skipped, one multiply then one add per term.
func (c *Conv2D) Backward(in, gradOut *Tensor, grads []*Tensor) *Tensor {
	gw, gb := grads[0].Data, grads[1].Data
	h, w := in.Shape[1], in.Shape[2]
	oh, ow := gradOut.Shape[1], gradOut.Shape[2]
	gradIn := NewTensor(c.InC, h, w)
	for oc := 0; oc < c.OutC; oc++ {
		for y := 0; y < oh; y++ {
			for x := 0; x < ow; x++ {
				g := gradOut.Data[(oc*oh+y)*ow+x]
				if g == 0 {
					continue
				}
				gb[oc] += g
				for ic := 0; ic < c.InC; ic++ {
					for ky := 0; ky < c.K; ky++ {
						inRow := in.Data[(ic*h+y+ky)*w+x:]
						giRow := gradIn.Data[(ic*h+y+ky)*w+x:]
						wRow := c.w.Data[((oc*c.InC+ic)*c.K+ky)*c.K:]
						gwRow := gw[((oc*c.InC+ic)*c.K+ky)*c.K:]
						for kx := 0; kx < c.K; kx++ {
							gwRow[kx] += g * inRow[kx]
							giRow[kx] += g * wRow[kx]
						}
					}
				}
			}
		}
	}
	return gradIn
}

// Forward is the reference pooling: each window is scanned in (dy, dx) order
// and a later element wins only on strict >.
func (m *MaxPool2D) Forward(in *Tensor) *Tensor {
	ch, h, w := in.Shape[0], in.Shape[1], in.Shape[2]
	oh, ow := h/2, w/2
	out := NewTensor(ch, oh, ow)
	for c := 0; c < ch; c++ {
		for y := 0; y < oh; y++ {
			row0 := in.Data[(c*h+2*y)*w : (c*h+2*y)*w+w]
			row1 := in.Data[(c*h+2*y+1)*w : (c*h+2*y+1)*w+w]
			drow := out.Data[(c*oh+y)*ow : (c*oh+y)*ow+ow]
			for x := range drow {
				best := row0[2*x]
				if v := row0[2*x+1]; v > best {
					best = v
				}
				if v := row1[2*x]; v > best {
					best = v
				}
				if v := row1[2*x+1]; v > best {
					best = v
				}
				drow[x] = best
			}
		}
	}
	return out
}

// Backward is poolScatter over one sample.
func (m *MaxPool2D) Backward(in, gradOut *Tensor, _ []*Tensor) *Tensor {
	gradIn := NewTensor(in.Shape...)
	poolScatter(gradIn.Data, in.Data, gradOut.Data, in.Shape[0], in.Shape[1], in.Shape[2])
	return gradIn
}

// Forward is the reference rectification.
func (r *ReLU) Forward(in *Tensor) *Tensor {
	out := NewTensor(in.Shape...)
	for i, v := range in.Data {
		if v > 0 {
			out.Data[i] = v
		}
	}
	return out
}

// Backward passes the gradient where the input was positive.
func (r *ReLU) Backward(in, gradOut *Tensor, _ []*Tensor) *Tensor {
	gradIn := NewTensor(gradOut.Shape...)
	for i, v := range in.Data {
		if v > 0 {
			gradIn.Data[i] = gradOut.Data[i]
		}
	}
	return gradIn
}

// Forward is a reshaping view.
func (f *Flatten) Forward(in *Tensor) *Tensor {
	return &Tensor{Shape: []int{in.Len()}, Data: in.Data}
}

// Backward is a reshaping view back to the input shape.
func (f *Flatten) Backward(in, gradOut *Tensor, _ []*Tensor) *Tensor {
	return &Tensor{Shape: in.Shape, Data: gradOut.Data}
}

// Forward runs all layers on one sample and returns the logits.
func (n *Network) Forward(in *Tensor) *Tensor {
	out := in
	for _, l := range n.Layers {
		out = l.(refLayer).Forward(out)
	}
	return out
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

// trainNaive is the one-sample-at-a-time SGD loop over the layers'
// reference Forward/Backward: the reference implementation
// TestTrainBatchedMatchesNaiveBitForBit pins TrainShuffled against
// (serialized trained weights must match byte for byte).
func trainNaive(net *Network, samples []Sample, cfg TrainConfig, rng *rand.Rand) (float64, error) {
	if len(samples) == 0 {
		return 0, fmt.Errorf("nn: no training samples")
	}
	if cfg.Epochs <= 0 || cfg.BatchSize <= 0 || cfg.LR <= 0 {
		return 0, fmt.Errorf("nn: invalid train config %+v", cfg)
	}

	idx := make([]int, len(samples))
	for i := range idx {
		idx[i] = i
	}
	grads := NewGrads(net)
	acts := make([]*Tensor, len(net.Layers)+1)
	lastAvg := 0.0
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		totalLoss := 0.0
		for start := 0; start < len(idx); start += cfg.BatchSize {
			end := min(start+cfg.BatchSize, len(idx))
			for _, si := range idx[start:end] {
				acts[0] = samples[si].X
				for i, l := range net.Layers {
					acts[i+1] = l.(refLayer).Forward(acts[i])
				}
				loss, g := CrossEntropyLoss(acts[len(net.Layers)], samples[si].Label)
				totalLoss += loss
				for i := len(net.Layers) - 1; i >= 0; i-- {
					g = net.Layers[i].(refLayer).Backward(acts[i], g, grads[i])
				}
			}
			net.Step(grads, cfg.LR, float64(end-start))
		}
		lastAvg = totalLoss / float64(len(idx))
	}
	return lastAvg, nil
}
