package nn

import (
	"math"
	"math/rand"
	"testing"
)

// The absolute reference for the INT8 engine. qforwardRef executes a compiled
// op table one sample at a time with nothing but the specification's pieces:
// quantizeActs, an unpadded im2colQ, qdotRowRef, requantize and the literal
// ReLU and int8 2x2 max-pool rules, in the float network's order — every
// pixel requantized, then pooled. It shares no lowering, tile, padding,
// batching or pool placement with ForwardBatch, so a tier that regroups the
// arithmetic is held to bits, not to another tier, and the engine's pooling
// of accumulators is checked rather than restated.

// qconvRef is one sample's convolution stage: accumulators into acc
// ([oc][pixel], outC*np values) and the requantized activations — pooled
// after requantizing, when op.pool — into nxt.
func qconvRef(op *qOp, cur, nxt []int8, acc []int32) {
	np, kk := op.oh*op.ow, op.inC*op.k*op.k
	col := make([]int8, np*kk)
	im2colQ(col, cur, op.inC, op.h, op.w, op.k, op.oh, op.ow, kk)
	lo := int8(-127)
	if op.relu {
		lo = 0
	}
	full := make([]int8, op.outC*np)
	for oc := 0; oc < op.outC; oc++ {
		row := full[oc*np : (oc+1)*np]
		if op.zeroScale {
			for j := range row {
				row[j] = op.biasAtSy[oc]
			}
			continue
		}
		arow := acc[oc*np : (oc+1)*np]
		qdotRowRef(arow, op.wq[oc*op.kPad:oc*op.kPad+kk], col, np, kk)
		for j, v := range arow {
			row[j] = max(requantize(v+op.biasQ[oc], op.m, op.shift), lo)
		}
	}
	if !op.pool {
		copy(nxt, full)
		return
	}
	ph, pw := op.oh/2, op.ow/2
	for c := 0; c < op.outC; c++ {
		for y := 0; y < ph; y++ {
			for x := 0; x < pw; x++ {
				at := func(dy, dx int) int8 { return full[(c*op.oh+2*y+dy)*op.ow+2*x+dx] }
				nxt[(c*ph+y)*pw+x] = max(at(0, 0), at(0, 1), at(1, 0), at(1, 1))
			}
		}
	}
}

func qforwardRef(q *QuantizedNetwork, in *Tensor) []float64 {
	batch := in.Shape[0]
	inLen := in.Len() / batch
	out := make([]float64, batch*q.outDim)
	var dot [1]int32
	for s := 0; s < batch; s++ {
		cur := make([]int8, inLen)
		quantizeActs(cur, in.Data[s*inLen:(s+1)*inLen], q.inScale)
		for i := range q.ops {
			op := &q.ops[i]
			nxt := make([]int8, op.outLen)
			lo := int8(-127)
			if op.relu {
				lo = 0
			}
			switch op.kind {
			case qConv:
				qconvRef(op, cur, nxt, make([]int32, op.outC*op.oh*op.ow))
			case qDense:
				for o := range nxt {
					if op.zeroScale {
						nxt[o] = op.biasAtSy[o]
						continue
					}
					qdotRowRef(dot[:], op.wq[o*op.kPad:o*op.kPad+op.inDim], cur, 1, op.inDim)
					nxt[o] = max(requantize(dot[0]+op.biasQ[o], op.m, op.shift), lo)
				}
			case qHead:
				for o := 0; o < op.outDim; o++ {
					qdotRowRef(dot[:], op.wq[o*op.kPad:o*op.kPad+op.inDim], cur, 1, op.inDim)
					out[s*q.outDim+o] = float64(dot[0])*op.sxw + op.biasF[o]
				}
			}
			cur = nxt
		}
	}
	return out
}

// familyForTest builds the six members of the zoo's family for an input
// shape, with internal/models' constructor arguments (familyMembers there;
// this package cannot import it): the four shared members, then the two MLPs
// on one channel or the two mobile arms on three.
func familyForTest(shape []int, rng *rand.Rand) []*Network {
	nets := []*Network{
		BuildCNN("cnn-s", shape, 8, 16, 32, 10, rng),
		BuildCNN("cnn-l", shape, 16, 32, 64, 10, rng),
		BuildLeNet5("lenet-s", shape, 1, 10, rng),
		BuildLeNet5("lenet-l", shape, 2, 10, rng),
	}
	if shape[0] == 1 {
		return append(nets, BuildMLP("mlp-s", shape, 64, 32, 10, rng), BuildMLP("mlp-l", shape, 256, 128, 10, rng))
	}
	return append(nets, BuildMobileCNN("mobile-s", shape, 4, 8, 10, rng), BuildMobileCNN("mobile-l", shape, 16, 32, 10, rng))
}

// TestQuantizedNetworkMatchesScalarOracle holds ForwardBatch to qforwardRef's
// bits for every member of both families at batch 1, 3 and 64, compiled and
// run on every dispatch floor (the floor's flags pick each convolution's
// lowering). Between them the twelve networks put a layer on each side of
// every line the engine draws: short-K first layers on the AVX2 tile (kk = 9,
// 25, 27 — odd, so the zero-weight spare tap runs — and the mobile arms' 1x1
// layers at kk = 4, 16 over 15-pixel rows), six and twelve channels (a
// partial last group of either tile), the 7-pixel rows of the second
// pointwise layer on the GEMM, and every long-K layer — the second
// convolutions (kk = 72, 144, 150, 300) and CIFAR-like LeNet's kk = 75 first
// layer — on the VNNI tile where the host has it and the GEMM below it.
func TestQuantizedNetworkMatchesScalarOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(2201))
	for _, shape := range [][]int{{1, 28, 28}, {3, 32, 32}} {
		for _, net := range familyForTest(shape, rng) {
			calib := randBatch(rng, 8, shape)
			qw, qn := quantizeForTest(t, net, calib)
			in := randBatch(rng, 64, shape)
			want := qforwardRef(qn, in)
			sampleLen := in.Len() / 64
			eachDispatchFloor(func(floor string) {
				if err := qn.Recompile(net, qw, calib, NewArena()); err != nil {
					t.Fatal(err)
				}
				arena := NewArena()
				for _, batch := range []int{1, 3, 64} {
					arena.Reset()
					got := qn.ForwardBatch(arena.View(in.Data[:batch*sampleLen], append([]int{batch}, shape...)...), arena)
					for i, v := range got.Data {
						if math.Float64bits(v) != math.Float64bits(want[i]) {
							t.Fatalf("%s %v floor %s batch %d: logit %d = %v, scalar oracle %v", net.Name, shape, floor, batch, i, v, want[i])
						}
					}
				}
			})
		}
	}
}

// qconvCase builds a convolution op over arbitrary int8 weights the way
// Recompile does (padded rows, then the tile's operands where the host runs
// it, and a folded 2x2 max-pool when pool is set) with a requantization of
// about 1/256, and a batch of arbitrary int8 activations for it. bytes is
// cycled to fill both.
func qconvCase(inC, k, h, w, outC, batch int, pool bool, bytes []byte) (op *qOp, cur []int8) {
	kk := inC * k * k
	oh, ow := h-k+1, w-k+1
	op = &qOp{
		kind: qConv, inC: inC, outC: outC, k: k, h: h, w: w, oh: oh, ow: ow,
		m: 1<<30 + 12345, shift: 38, pool: pool,
		inLen: inC * h * w, outLen: outC * oh * ow,
	}
	if pool {
		op.outLen = outC * (oh / 2) * (ow / 2)
	}
	next := 0
	fill := func(n int) []int8 {
		out := make([]int8, n)
		for i := range out {
			out[i] = int8(bytes[next%len(bytes)])
			next++
		}
		return out
	}
	wts := fill(outC * kk)
	padWeightRows(op, wts, outC, kk)
	op.biasQ = make([]int32, outC)
	for o := range op.biasQ {
		op.biasQ[o] = int32(wts[o*kk]) * 64
	}
	compileConvTile(op, wts, NewArena())
	return op, fill(batch * op.inLen)
}

// qconvBuffers sizes runConv's scratch for op at batch the way
// ForwardBatch's arena requests do: the accumulator block plus, for a pooled
// op, the pooled sums.
func qconvBuffers(op *qOp, batch int) (nxt, col []int8, acc []int32) {
	np := op.oh * op.ow
	return make([]int8, batch*op.outLen), make([]int8, batch*np*op.kPad), make([]int32, batch*(op.outC*np+op.outLen))
}

// checkQConvAgainstRef runs the engine's convolution stage over the chunk and
// compares accumulators and activations with qconvRef, sample by sample.
func checkQConvAgainstRef(t *testing.T, op *qOp, batch int, cur []int8) {
	t.Helper()
	np, pnp := op.oh*op.ow, op.outLen/op.outC
	cols := batch * np
	nxt, col, acc := qconvBuffers(op, batch)
	(&QuantizedNetwork{}).runConv(op, batch, cur, nxt, col, acc)
	wantNxt, wantAcc := make([]int8, op.outLen), make([]int32, op.outC*np)
	for s := 0; s < batch; s++ {
		qconvRef(op, cur[s*op.inLen:(s+1)*op.inLen], wantNxt, wantAcc)
		for oc := 0; oc < op.outC; oc++ {
			for j := 0; j < np; j++ {
				if got, want := acc[oc*cols+s*np+j], wantAcc[oc*np+j]; got != want {
					t.Fatalf("conv %dx%dx%d k=%d outC=%d: sample %d channel %d pixel %d: accumulator %d, reference %d", op.inC, op.h, op.w, op.k, op.outC, s, oc, j, got, want)
				}
			}
			for j := 0; j < pnp; j++ {
				if got, want := nxt[s*op.outLen+oc*pnp+j], wantNxt[oc*pnp+j]; got != want {
					t.Fatalf("conv %dx%dx%d k=%d outC=%d pool=%v: sample %d channel %d pixel %d: activation %d, reference %d", op.inC, op.h, op.w, op.k, op.outC, op.pool, s, oc, j, got, want)
				}
			}
		}
	}
}

// FuzzQConvShortK throws arbitrary int8 weights and activations at the
// engine's convolution stage over the short-K shapes the tile takes (and,
// past kk = 48 or under eight-pixel rows, the GEMM beside it), with and
// without a folded max-pool (kSel/3 odd), and compares with the scalar
// reference. -128 is in range: neither path may assume the engine's own
// [-127, 127] clamp.
func FuzzQConvShortK(f *testing.F) {
	f.Add(uint8(1), uint8(3), uint8(20), uint8(20), uint8(8), uint8(2), []byte{0x7f, 0x81, 0x80, 3, 0xfe})
	f.Add(uint8(1), uint8(5), uint8(12), uint8(17), uint8(6), uint8(1), []byte{0x80})
	f.Add(uint8(3), uint8(3), uint8(10), uint8(11), uint8(20), uint8(5), []byte{1, 0xff, 0x7f, 0x81})
	f.Add(uint8(37), uint8(1), uint8(9), uint8(15), uint8(3), uint8(3), []byte("short-K"))
	f.Add(uint8(2), uint8(5), uint8(9), uint8(11), uint8(1), uint8(4), []byte{9, 8, 7})
	f.Add(uint8(2), uint8(4), uint8(13), uint8(17), uint8(5), uint8(2), []byte{0x80, 0x7f, 5, 0xc3}) // pooled, 9-wide rows
	f.Fuzz(func(t *testing.T, inC, kSel, h, w, outC, batch uint8, bytes []byte) {
		k := []int{1, 3, 5}[int(kSel)%3]
		c := 1 + int(inC)%(63/(k*k))
		hh, ww := k+int(h)%(21-k), k+int(w)%(21-k)
		if len(bytes) == 0 {
			bytes = []byte{0}
		}
		n := 1 + int(batch)%5
		op, cur := qconvCase(c, k, hh, ww, 1+int(outC)%20, n, kSel/3%2 == 1, bytes)
		checkQConvAgainstRef(t, op, n, cur)
	})
}

// FuzzQConvLongK is FuzzQConvShortK over the long-K shapes the VNNI tile
// takes where the host has it (the GEMM everywhere else): 3x3 and 5x5
// kernels (kSel even or odd) over 64..600 taps, every channel count and so
// every tap count mod 4, 8- to 20-pixel output rows, 1..20 output channels
// (partial eight-channel groups), with and without a folded max-pool
// (kSel/2 odd). -128 is in range.
func FuzzQConvLongK(f *testing.F) {
	f.Add(uint8(8), uint8(0), uint8(10), uint8(3), uint8(16), uint8(2), []byte{0x7f, 0x81, 0x80, 3, 0xfe})
	f.Add(uint8(0), uint8(1), uint8(7), uint8(0), uint8(6), uint8(1), []byte{0x80})
	f.Add(uint8(33), uint8(2), uint8(4), uint8(12), uint8(7), uint8(4), []byte{1, 0xff, 0x7f, 0x81})
	f.Add(uint8(9), uint8(3), uint8(3), uint8(1), uint8(31), uint8(3), []byte("long-K"))
	f.Add(uint8(58), uint8(2), uint8(11), uint8(12), uint8(19), uint8(0), []byte{0x80, 0x7f})
	f.Fuzz(func(t *testing.T, inC, kSel, h, w, outC, batch uint8, bytes []byte) {
		k := []int{3, 5}[kSel%2]
		lo, hi := (64+k*k-1)/(k*k), 600/(k*k)
		c := lo + int(inC)%(hi-lo+1)
		hh, ww := k+int(h)%(21-k), k+7+int(w)%13
		if len(bytes) == 0 {
			bytes = []byte{0}
		}
		n := 1 + int(batch)%5
		op, cur := qconvCase(c, k, hh, ww, 1+int(outC)%20, n, kSel/2%2 == 1, bytes)
		checkQConvAgainstRef(t, op, n, cur)
	})
}
