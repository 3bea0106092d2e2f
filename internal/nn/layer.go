package nn

import (
	"fmt"
	"math"
	"math/rand"
)

// Layer is one differentiable stage of a network, and holds nothing but its
// parameters: no method writes to the receiver, so one layer — and one
// Network — serves any number of goroutines at once. The forward pass
// records nothing; the backward pass is handed what it needs: in, the very
// tensor its forward pass consumed (same shape, same values), and grads, the
// caller's accumulators aligned with Params(). Activations and gradients
// belong to whoever trains (TrainShuffled keeps both for the span of one
// minibatch); an inference caller owns neither.
//
// Both passes run a whole batch through GEMM and SIMD kernels over arena
// scratch. Each is held bit for bit to a one-sample reference in plain loops
// that lives in the tests (oracle_test.go): batched inference equals a
// per-sample loop, and training a minibatch through either produces identical
// parameter gradients.
type Layer interface {
	// ForwardBatch runs the layer on a batch laid out [B, d...], one sample
	// per contiguous row, writing output to arena scratch. Per sample the
	// float operations replay the reference exactly, so batched and
	// per-sample inference agree bit for bit at every batch size.
	ForwardBatch(in *Tensor, a *Arena) *Tensor
	// BackwardBatch back-propagates a [B, d...] gradient w.r.t.
	// ForwardBatch(in). Parameter gradients accumulate into grads across the
	// batch in strictly ascending sample order, and within a sample in the
	// reference's exact per-accumulator term order — the same "never split or
	// reorder an accumulation" discipline as the GEMM kernels — so the
	// accumulated gradients equal a per-sample loop bit for bit. With wantIn
	// it returns the [B, ...] input gradient in arena scratch. Without, the
	// caller reads no input gradient: a layer with parameters then computes
	// none and returns nil (TrainShuffled asks this of the lowest such layer,
	// below which nothing has a gradient to take), and one without parameters
	// may ignore the flag.
	BackwardBatch(in, gradOut *Tensor, grads []*Tensor, wantIn bool, a *Arena) *Tensor
	// Params returns the layer's parameter slices (possibly empty).
	Params() []*Tensor
	// OutShape maps an input shape to the layer's output shape.
	OutShape(in []int) []int
	// FLOPs estimates multiply-accumulate operations for one forward pass
	// given the input shape.
	FLOPs(in []int) int64
}

// Dense is a fully connected layer: out = W*in + b.
type Dense struct {
	InDim, OutDim int

	w, b *Tensor
}

var _ Layer = (*Dense)(nil)

// NewDense creates a dense layer with He-style initialization from rng.
func NewDense(inDim, outDim int, rng *rand.Rand) *Dense {
	d := &Dense{
		InDim:  inDim,
		OutDim: outDim,
		w:      NewTensor(outDim, inDim),
		b:      NewTensor(outDim),
	}
	scale := math.Sqrt(2 / float64(inDim))
	for i := range d.w.Data {
		d.w.Data[i] = rng.NormFloat64() * scale
	}
	return d
}

// ForwardBatch implements Layer: one GEMM over the whole batch. With four or
// more samples and at least one eight-unit panel of outputs it runs as
// GemmPanelBiasJ, which repacks the weights eight output units at a time into
// one panel of arena scratch (per call: nothing is cached, so nothing needs
// invalidating when training moves the weights); smaller problems keep the
// pack-free GemmNTBiasJ. Both are the same dot sequence per output.
func (d *Dense) ForwardBatch(in *Tensor, a *Arena) *Tensor {
	batch := in.Shape[0]
	if in.Len() != batch*d.InDim {
		//lint:allow panicpolicy Layer.ForwardBatch hot path: a shape mismatch is a programmer error and the interface has no error channel
		panic(fmt.Sprintf("nn: Dense expected %d inputs per sample, got shape %v", d.InDim, in.Shape))
	}
	out := a.Tensor(batch, d.OutDim)
	if batch < 4 || d.OutDim < 8 {
		GemmNTBiasJ(out.Data, in.Data, d.w.Data, d.b.Data, batch, d.OutDim, d.InDim)
		return out
	}
	GemmPanelBiasJ(out.Data, in.Data, d.w.Data, d.b.Data, a.Floats(8*d.InDim), batch, d.OutDim, d.InDim)
	return out
}

// BackwardBatch implements Layer: two NN-form GEMMs whose per-element add
// sequences equal the per-sample Backward loop exactly, at every batch
// size: the input gradient gi[s][i] = sum_o gout[s][o]*w[o][i] walks o
// strictly ascending (Backward's axpy order, with w consumed directly as
// the transposed operand), and the weight gradient gw[o][i] += sum_s
// goutT[o][s]*in[s][i] walks samples strictly ascending (the per-sample
// accumulation order). gb accumulates from the same transposed gradient,
// samples ascending. Without wantIn the input-gradient GEMM is skipped.
func (d *Dense) BackwardBatch(in, gradOut *Tensor, grads []*Tensor, wantIn bool, a *Arena) *Tensor {
	batch := gradOut.Shape[0]
	gw, gb := grads[0].Data, grads[1].Data
	var gradIn *Tensor
	if wantIn {
		// Every gi accumulator starts at +0, the value the zeroed-then-
		// accumulated reference starts from.
		gradIn = a.Tensor(batch, d.InDim)
		clear(gradIn.Data)
		GemmNNAccI(gradIn.Data, gradOut.Data, d.w.Data, batch, d.InDim, d.OutDim, d.InDim)
	}
	goutT := a.Floats(d.OutDim * batch)
	transposeSIMD(goutT, gradOut.Data, batch, d.OutDim)
	for o := 0; o < d.OutDim; o++ {
		s := gb[o]
		for _, g := range goutT[o*batch : (o+1)*batch] {
			s += g
		}
		gb[o] = s
	}
	GemmNNAccI(gw, goutT, in.Data, d.OutDim, d.InDim, batch, d.InDim)
	return gradIn
}

// Params implements Layer.
func (d *Dense) Params() []*Tensor { return []*Tensor{d.w, d.b} }

// OutShape implements Layer.
func (d *Dense) OutShape([]int) []int { return []int{d.OutDim} }

// FLOPs implements Layer.
func (d *Dense) FLOPs([]int) int64 { return int64(d.InDim) * int64(d.OutDim) }

// Conv2D is a 2-D convolution with stride 1 and valid padding over CHW
// tensors.
type Conv2D struct {
	InC, OutC, K int

	w, b *Tensor // w: [OutC, InC, K, K]
}

var _ Layer = (*Conv2D)(nil)

// NewConv2D creates a convolution layer with He initialization.
func NewConv2D(inC, outC, k int, rng *rand.Rand) *Conv2D {
	c := &Conv2D{
		InC:  inC,
		OutC: outC,
		K:    k,
		w:    NewTensor(outC, inC, k, k),
		b:    NewTensor(outC),
	}
	fanIn := float64(inC * k * k)
	scale := math.Sqrt(2 / fanIn)
	for i := range c.w.Data {
		c.w.Data[i] = rng.NormFloat64() * scale
	}
	return c
}

// ForwardBatch implements Layer: a direct convolution. Nothing is lowered or
// copied — the kernel (convDirectSIMD) reads each sample's CHW planes where
// they lie and writes its [OutC, oh, ow] output rows in place, finding the
// c-th term of an output pixel's receptive field through one offset table
// shared by the whole batch (convDirectTables). The table lists the field in
// Forward's (ic, ky, kx) order and every output element is one accumulator
// that starts at its bias and walks the table front to back, so outputs are
// bit-for-bit Forward's.
func (c *Conv2D) ForwardBatch(in *Tensor, a *Arena) *Tensor {
	return c.forwardDirect(in, a, false)
}

// forwardDirect is ForwardBatch, or with pool the stage Conv2D → ReLU →
// MaxPool2D in one pass: the kernel rectifies and pools each register tile
// before storing it, so only the [OutC, oh/2, ow/2] plane is written, and the
// conv rows and columns no pool window reads are never computed.
func (c *Conv2D) forwardDirect(in *Tensor, a *Arena, pool bool) *Tensor {
	if len(in.Shape) != 4 || in.Shape[1] != c.InC {
		//lint:allow panicpolicy Layer.ForwardBatch hot path: a shape mismatch is a programmer error and the interface has no error channel
		panic(fmt.Sprintf("nn: Conv2D expected [B,%d,H,W], got %v", c.InC, in.Shape))
	}
	batch, h, w := in.Shape[0], in.Shape[2], in.Shape[3]
	oh, ow := h-c.K+1, w-c.K+1
	if pool {
		oh, ow = oh/2, ow/2
	}
	np := oh * ow
	out := a.Tensor(batch, c.OutC, oh, ow)
	offs, segs, sw := convDirectTables(a, c.InC, h, w, c.K, 4, pool)
	inStride, outStride := c.InC*h*w, c.OutC*np
	for s := 0; s < batch; s++ {
		convDirectSIMD(out.Data[s*outStride:(s+1)*outStride], np, c.b.Data, c.w.Data,
			in.Data[s*inStride:(s+1)*inStride], offs, segs, sw, pool)
	}
	return out
}

// BackwardBatch implements Layer: a direct backward pass. Nothing is lowered
// or copied — per sample in ascending order and per output channel, the
// kernel (convBwdSIMD) finds the channel plane's nonzero gradient values and,
// for each, reads its receptive field where it lies through
// convDirectTables' offsets, adding gv times the field into the channel's
// weight gradient and, with wantIn, gv times the channel's weights into the
// sample's input gradient. That is Backward's loop nest — (oc, y, x) outer
// with the g == 0 skip, one multiply then one add per term — so every
// accumulator sees Backward's terms in Backward's order. The pooling argmax
// scatter and ReLU masking upstream leave most gradient entries zero, so the
// skip prunes the bulk of the work; a dense GEMM over patch rows was
// measured slower for exactly that reason. The input gradient keeps
// Backward's scatter because a col2im-style pre-reduction over output
// channels would reassociate sums.
func (c *Conv2D) BackwardBatch(in, gradOut *Tensor, grads []*Tensor, wantIn bool, a *Arena) *Tensor {
	batch, h, w := in.Shape[0], in.Shape[2], in.Shape[3]
	ow := w - c.K + 1
	np, kk := (h-c.K+1)*ow, c.InC*c.K*c.K
	offs := convOffsets(a, c.InC, h, w, c.K)
	var gradIn *Tensor
	var gi []float64
	if wantIn {
		gradIn = a.Tensor(in.Shape...)
		clear(gradIn.Data)
	}
	gw, gb := grads[0].Data, grads[1].Data
	inStride, outStride := c.InC*h*w, c.OutC*np
	for s := 0; s < batch; s++ {
		x := in.Data[s*inStride : (s+1)*inStride]
		if wantIn {
			gi = gradIn.Data[s*inStride : (s+1)*inStride]
		}
		g := gradOut.Data[s*outStride : (s+1)*outStride]
		for oc := 0; oc < c.OutC; oc++ {
			convBwdSIMD(g[oc*np:(oc+1)*np], ow, x, c.w.Data[oc*kk:(oc+1)*kk],
				gw[oc*kk:(oc+1)*kk], gb[oc:oc+1], gi, offs, c.K)
		}
	}
	return gradIn
}

// Params implements Layer.
func (c *Conv2D) Params() []*Tensor { return []*Tensor{c.w, c.b} }

// OutShape implements Layer.
func (c *Conv2D) OutShape(in []int) []int {
	return []int{c.OutC, in[1] - c.K + 1, in[2] - c.K + 1}
}

// FLOPs implements Layer.
func (c *Conv2D) FLOPs(in []int) int64 {
	oh, ow := in[1]-c.K+1, in[2]-c.K+1
	return int64(c.OutC) * int64(oh) * int64(ow) * int64(c.InC) * int64(c.K*c.K)
}

// MaxPool2D is a 2x2 max pooling layer with stride 2 over CHW tensors.
// Odd trailing rows/columns are dropped, matching common framework defaults.
type MaxPool2D struct{}

var _ Layer = (*MaxPool2D)(nil)

// NewMaxPool2D creates a 2x2/stride-2 max-pool layer.
func NewMaxPool2D() *MaxPool2D { return &MaxPool2D{} }

// ForwardBatch implements Layer: the same pooling comparisons per sample.
func (m *MaxPool2D) ForwardBatch(in *Tensor, a *Arena) *Tensor {
	batch, ch, h, w := in.Shape[0], in.Shape[1], in.Shape[2], in.Shape[3]
	oh, ow := h/2, w/2
	out := a.Tensor(batch, ch, oh, ow)
	inStride, outStride := ch*h*w, ch*oh*ow
	for s := 0; s < batch; s++ {
		src := in.Data[s*inStride : (s+1)*inStride]
		dst := out.Data[s*outStride : (s+1)*outStride]
		for c := 0; c < ch; c++ {
			for y := 0; y < oh; y++ {
				row0 := src[(c*h+2*y)*w : (c*h+2*y)*w+w]
				row1 := src[(c*h+2*y+1)*w : (c*h+2*y+1)*w+w]
				drow := dst[(c*oh+y)*ow : (c*oh+y)*ow+ow]
				pool2x2SIMD(drow, row0, row1)
			}
		}
	}
	return out
}

// BackwardBatch implements Layer: Backward's argmax scatter per sample.
func (m *MaxPool2D) BackwardBatch(in, gradOut *Tensor, _ []*Tensor, _ bool, a *Arena) *Tensor {
	batch, ch, h, w := in.Shape[0], in.Shape[1], in.Shape[2], in.Shape[3]
	gradIn := a.Tensor(in.Shape...)
	clear(gradIn.Data)
	inStride, outStride := ch*h*w, ch*(h/2)*(w/2)
	for s := 0; s < batch; s++ {
		poolScatter(gradIn.Data[s*inStride:(s+1)*inStride], in.Data[s*inStride:(s+1)*inStride],
			gradOut.Data[s*outStride:(s+1)*outStride], ch, h, w)
	}
	return gradIn
}

// poolScatter is the shared one-sample pooling backward: it re-runs Forward's
// scan over the [ch, h, w] input — the (dy, dx) order and the strict >, so
// ties route to the element Forward took its maximum from — and adds each
// output gradient into its window's winner in gi (callers pass a zeroed gi).
// Windows do not overlap, so every gi element receives at most one add.
func poolScatter(gi, in, g []float64, ch, h, w int) {
	oh, ow := h/2, w/2
	for c := 0; c < ch; c++ {
		for y := 0; y < oh; y++ {
			base0 := (c*h + 2*y) * w
			base1 := base0 + w
			grow := g[(c*oh+y)*ow : (c*oh+y)*ow+ow]
			for x, gv := range grow {
				i00 := base0 + 2*x
				best, bestIdx := in[i00], i00
				if v := in[i00+1]; v > best {
					best, bestIdx = v, i00+1
				}
				i10 := base1 + 2*x
				if v := in[i10]; v > best {
					best, bestIdx = v, i10
				}
				if v := in[i10+1]; v > best {
					bestIdx = i10 + 1
				}
				gi[bestIdx] += gv
			}
		}
	}
}

// Params implements Layer.
func (m *MaxPool2D) Params() []*Tensor { return nil }

// OutShape implements Layer.
func (m *MaxPool2D) OutShape(in []int) []int {
	return []int{in[0], in[1] / 2, in[2] / 2}
}

// FLOPs implements Layer.
func (m *MaxPool2D) FLOPs(in []int) int64 {
	return int64(in[0]) * int64(in[1]/2) * int64(in[2]/2) * 4
}

// ReLU is the rectified linear activation.
type ReLU struct{}

var _ Layer = (*ReLU)(nil)

// NewReLU creates a ReLU layer.
func NewReLU() *ReLU { return &ReLU{} }

// ForwardBatch implements Layer: elementwise rectification.
func (r *ReLU) ForwardBatch(in *Tensor, a *Arena) *Tensor {
	out := a.Tensor(in.Shape...)
	reluFwdSIMD(out.Data, in.Data)
	return out
}

// BackwardBatch implements Layer: gradient passes where the input was
// positive, literal zero elsewhere (matching Backward's zeroed gradIn).
func (r *ReLU) BackwardBatch(in, gradOut *Tensor, _ []*Tensor, _ bool, a *Arena) *Tensor {
	gradIn := a.Tensor(gradOut.Shape...)
	reluBwdSIMD(gradIn.Data, gradOut.Data, in.Data)
	return gradIn
}

// Params implements Layer.
func (r *ReLU) Params() []*Tensor { return nil }

// OutShape implements Layer.
func (r *ReLU) OutShape(in []int) []int { return in }

// FLOPs implements Layer.
func (r *ReLU) FLOPs(in []int) int64 { return int64(shapeLen(in)) }

// Flatten reshapes any tensor to a vector.
type Flatten struct{}

var _ Layer = (*Flatten)(nil)

// NewFlatten creates a flatten layer.
func NewFlatten() *Flatten { return &Flatten{} }

// ForwardBatch implements Layer: a reshaping view [B, d...] -> [B, n].
func (f *Flatten) ForwardBatch(in *Tensor, a *Arena) *Tensor {
	batch := in.Shape[0]
	return a.View(in.Data, batch, in.Len()/batch)
}

// BackwardBatch implements Layer: a reshaping view back to the input shape.
func (f *Flatten) BackwardBatch(in, gradOut *Tensor, _ []*Tensor, _ bool, a *Arena) *Tensor {
	return a.View(gradOut.Data, in.Shape...)
}

// Params implements Layer.
func (f *Flatten) Params() []*Tensor { return nil }

// OutShape implements Layer.
func (f *Flatten) OutShape(in []int) []int { return []int{shapeLen(in)} }

// FLOPs implements Layer.
func (f *Flatten) FLOPs([]int) int64 { return 0 }
