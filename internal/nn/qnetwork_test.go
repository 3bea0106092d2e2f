package nn

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
)

func buildQuantArchs(rng *rand.Rand) []*Network {
	return []*Network{
		BuildCNN("cnn", []int{1, 28, 28}, 8, 16, 32, 10, rng),
		BuildLeNet5("lenet", []int{1, 28, 28}, 1, 10, rng),
		BuildMLP("mlp", []int{1, 28, 28}, 64, 32, 10, rng),
		BuildMobileCNN("mobile", []int{1, 28, 28}, 8, 16, 10, rng),
	}
}

func randBatch(rng *rand.Rand, batch int, shape []int) *Tensor {
	dims := append([]int{batch}, shape...)
	t := NewTensor(dims...)
	for i := range t.Data {
		t.Data[i] = rng.NormFloat64()
	}
	return t
}

// quantizeForTest applies the fake-quant oracle to net and returns the
// shared int8 weights plus a compiled INT8 engine calibrated on calib.
func quantizeForTest(t *testing.T, net *Network, calib *Tensor) (*QuantizedWeights, *QuantizedNetwork) {
	t.Helper()
	qw := QuantizeWeights(net)
	if err := qw.ApplyTo(net); err != nil {
		t.Fatal(err)
	}
	qn, err := NewQuantizedNetwork(net, qw, calib)
	if err != nil {
		t.Fatal(err)
	}
	return qw, qn
}

// TestQuantizedNetworkTracksFakeQuant compiles every zoo architecture and
// checks the INT8 logits stay close to the fake-quant float logits — the
// engine's accuracy contract (the exact contract is cross-tier bit-identity,
// pinned elsewhere; closeness to the float oracle is what makes the -int8
// mode a usable stand-in for the q8 arms).
func TestQuantizedNetworkTracksFakeQuant(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, net := range buildQuantArchs(rng) {
		calib := randBatch(rng, 16, net.InShape())
		_, qn := quantizeForTest(t, net, calib)
		in := randBatch(rng, 32, net.InShape())
		arena := NewArena()
		arena.Reset()
		qout := qn.ForwardBatch(in, arena)
		fa := NewArena()
		fa.Reset()
		fout := net.ForwardBatch(in, fa)
		outDim := qn.outDim
		maxAbs, sumErr, agree := 0.0, 0.0, 0
		for i, v := range fout.Data {
			if a := math.Abs(v); a > maxAbs {
				maxAbs = a
			}
			sumErr += math.Abs(qout.Data[i] - v)
		}
		for s := 0; s < 32; s++ {
			if ArgmaxRow(qout.Data[s*outDim:(s+1)*outDim]) == ArgmaxRow(fout.Data[s*outDim:(s+1)*outDim]) {
				agree++
			}
		}
		meanErr := sumErr / float64(len(fout.Data))
		if maxAbs == 0 || meanErr > 0.15*maxAbs {
			t.Errorf("%s: mean INT8 logit error %g too large vs float logit range %g", net.Name, meanErr, maxAbs)
		}
		if agree < 20 { // 32 samples; quantization may flip near-ties only
			t.Errorf("%s: INT8 argmax agrees with fake-quant on only %d/32 samples", net.Name, agree)
		}
	}
}

// TestQuantizedNetworkDeterministic pins bit-exact reproducibility: two
// independently compiled engines over the same weights and calibration batch
// produce identical logits bits, and repeated runs are stable.
func TestQuantizedNetworkDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	net := BuildCNN("cnn", []int{1, 14, 14}, 4, 8, 16, 10, rng)
	calib := randBatch(rng, 8, net.InShape())
	qw := QuantizeWeights(net)
	if err := qw.ApplyTo(net); err != nil {
		t.Fatal(err)
	}
	qn1, err := NewQuantizedNetwork(net, qw, calib)
	if err != nil {
		t.Fatal(err)
	}
	qn2, err := NewQuantizedNetwork(net, qw, calib)
	if err != nil {
		t.Fatal(err)
	}
	in := randBatch(rng, 8, net.InShape())
	a1, a2 := NewArena(), NewArena()
	a1.Reset()
	first := append([]float64(nil), qn1.ForwardBatch(in, a1).Data...)
	for run := 0; run < 3; run++ {
		a1.Reset()
		o1 := qn1.ForwardBatch(in, a1)
		a2.Reset()
		o2 := qn2.ForwardBatch(in, a2)
		for i := range first {
			if math.Float64bits(o1.Data[i]) != math.Float64bits(first[i]) ||
				math.Float64bits(o2.Data[i]) != math.Float64bits(first[i]) {
				t.Fatalf("run %d: INT8 logits drifted at %d", run, i)
			}
		}
	}
}

// TestQuantizedNetworkBatchInvariance: the engine processes samples
// independently, so a batch of B must reproduce B batches of 1 bit for bit.
func TestQuantizedNetworkBatchInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	net := BuildLeNet5("lenet", []int{1, 28, 28}, 1, 10, rng)
	calib := randBatch(rng, 8, net.InShape())
	_, qn := quantizeForTest(t, net, calib)
	in := randBatch(rng, 6, net.InShape())
	arena := NewArena()
	arena.Reset()
	batched := append([]float64(nil), qn.ForwardBatch(in, arena).Data...)
	sampleLen := in.Len() / 6
	outDim := qn.outDim
	for s := 0; s < 6; s++ {
		one := NewTensor(append([]int{1}, net.InShape()...)...)
		copy(one.Data, in.Data[s*sampleLen:(s+1)*sampleLen])
		arena.Reset()
		out := qn.ForwardBatch(one, arena)
		for o := 0; o < outDim; o++ {
			if math.Float64bits(out.Data[o]) != math.Float64bits(batched[s*outDim+o]) {
				t.Fatalf("sample %d logit %d: single %v != batched %v", s, o, out.Data[o], batched[s*outDim+o])
			}
		}
	}
}

// TestQuantizedNetworkZeroScaleTensors: all-zero weight tensors compile into
// the bias-only path instead of dividing by a zero scale, for both a hidden
// conv and the Dense head.
func TestQuantizedNetworkZeroScaleTensors(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	net := BuildCNN("cnn", []int{1, 14, 14}, 4, 8, 16, 10, rng)
	// Zero the first conv's weights; give it a bias so the path is visible.
	conv := net.Layers[0].(*Conv2D)
	for i := range conv.w.Data {
		conv.w.Data[i] = 0
	}
	for i := range conv.b.Data {
		conv.b.Data[i] = 0.5 * float64(i+1)
	}
	// Zero the head entirely: logits must be exactly the head bias.
	head := net.Layers[len(net.Layers)-1].(*Dense)
	for i := range head.w.Data {
		head.w.Data[i] = 0
	}
	for i := range head.b.Data {
		head.b.Data[i] = float64(i) - 4.5
	}
	calib := randBatch(rng, 4, net.InShape())
	_, qn := quantizeForTest(t, net, calib)
	if !qn.ops[0].zeroScale {
		t.Fatal("zeroed conv did not compile to the zero-scale path")
	}
	in := randBatch(rng, 3, net.InShape())
	arena := NewArena()
	arena.Reset()
	out := qn.ForwardBatch(in, arena)
	outDim := qn.outDim
	for s := 0; s < 3; s++ {
		for o := 0; o < outDim; o++ {
			got := out.Data[s*outDim+o]
			want := head.b.Data[o]
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("sample %d logit %d: %v, want head bias %v", s, o, got, want)
			}
		}
	}
}

// TestQuantizedNetworkSteadyStateZeroAlloc: after one warm-up batch, the
// engine's Reset/quantize/forward cycle allocates nothing — the same arena
// discipline the float path's hotalloc gate enforces.
func TestQuantizedNetworkSteadyStateZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	net := BuildCNN("cnn", []int{1, 14, 14}, 4, 8, 16, 10, rng)
	calib := randBatch(rng, 4, net.InShape())
	_, qn := quantizeForTest(t, net, calib)
	in := randBatch(rng, 8, net.InShape())
	arena := NewArena()
	arena.Reset()
	qn.ForwardBatch(in, arena) // warm the arena
	allocs := testing.AllocsPerRun(10, func() {
		arena.Reset()
		qn.ForwardBatch(in, arena)
	})
	if allocs != 0 {
		t.Fatalf("steady-state quantized forward allocates %v objects/op, want 0", allocs)
	}
}

// oddCase is a network the INT8 engine refuses, what is odd about it, and
// the index of the one layer at fault (-1 when no single layer is).
type oddCase struct {
	what  string
	net   *Network
	layer int
}

// oddSequences are the layer sequences the INT8 engine refuses.
func oddSequences(rng *rand.Rand) []oddCase {
	return []oddCase{
		{"an unlowered layer", NewNetwork("unlowered", []int{16}, NewFlatten(), unloweredLayer{NewReLU()}, NewDense(16, 4, rng)), 1},
		{"no Dense head", NewNetwork("relu-tail", []int{16}, NewFlatten(), NewDense(16, 4, rng), NewReLU()), -1},
		{"a ReLU after Flatten", NewNetwork("flat-relu", []int{1, 6, 6}, NewConv2D(1, 2, 3, rng), NewFlatten(), NewReLU(), NewDense(32, 4, rng)), 2},
		{"a ReLU after a pool", NewNetwork("pool-relu", []int{1, 6, 6}, NewConv2D(1, 2, 3, rng), NewMaxPool2D(), NewReLU(), NewFlatten(), NewDense(8, 4, rng)), 2},
		{"a pool after a pool", NewNetwork("pool-pool", []int{1, 10, 10}, NewConv2D(1, 2, 3, rng), NewMaxPool2D(), NewMaxPool2D(), NewFlatten(), NewDense(8, 4, rng)), 2},
	}
}

// TestQuantizedNetworkErrors: what the INT8 engine cannot lower is a
// compile-time error, not a runtime surprise — a layer type it has no case
// for, a network without a Dense head, a ReLU that follows no conv or dense
// layer, a max-pool that follows no convolution, a row long enough for an
// int32 accumulator to wrap — while every zoo architecture compiles. Each
// error names its network and, where one layer is at fault, that layer's
// index, so a network refused for another reason fails the test.
func TestQuantizedNetworkErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	cases := append(oddSequences(rng), oddCase{"a Dense whose int32 sums can wrap", NewNetwork("wide", []int{maxDotLen + 1}, NewDense(maxDotLen+1, 2, rng)), 0})
	for _, c := range cases {
		calib := randBatch(rng, 2, c.net.InShape())
		_, err := NewQuantizedNetwork(c.net, QuantizeWeights(c.net), calib)
		if err == nil {
			t.Errorf("network with %s compiled; want an error", c.what)
			continue
		}
		if msg := err.Error(); !strings.Contains(msg, fmt.Sprintf("%q", c.net.Name)) {
			t.Errorf("network with %s: error %q does not name the network", c.what, msg)
		} else if at := fmt.Sprintf("layer %d of", c.layer); c.layer >= 0 && !strings.Contains(msg, at) {
			t.Errorf("network with %s: error %q does not name layer %d", c.what, msg, c.layer)
		}
	}
	for _, shape := range [][]int{{1, 28, 28}, {3, 32, 32}} {
		for _, net := range familyForTest(shape, rng) {
			quantizeForTest(t, net, randBatch(rng, 2, shape))
		}
	}
	widest := NewNetwork("widest", []int{maxDotLen}, NewDense(maxDotLen, 2, rng))
	quantizeForTest(t, widest, randBatch(rng, 2, widest.InShape()))
}

// unloweredLayer is a working Layer of a type the INT8 compiler has no case
// for: the float calibration pass runs it, the lowering switch rejects it.
type unloweredLayer struct{ *ReLU }

// TestCalibrationChunkingIsExact pins the sub-batched calibration pass against
// the whole-batch pass it replaced: every boundary's maxAbs must be the same
// bits, for a batch that is not a chunk multiple, out of an arena left dirty
// by another architecture.
func TestCalibrationChunkingIsExact(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	arena := NewArena()
	var actMax []float64
	for _, net := range buildQuantArchs(rng) {
		calib := randBatch(rng, 2*calibChunk+3, net.InShape())
		want := []float64{maxAbsOf(calib.Data)}
		whole := NewArena()
		cur := calib
		for _, l := range net.Layers {
			cur = l.ForwardBatch(cur, whole)
			want = append(want, maxAbsOf(cur.Data))
		}
		actMax = calibrate(actMax, net, calib, arena)
		if len(actMax) != len(want) {
			t.Fatalf("%s: %d boundaries, want %d", net.Name, len(actMax), len(want))
		}
		for i := range want {
			if actMax[i] != want[i] {
				t.Errorf("%s: boundary %d maxAbs %v, whole-batch pass says %v", net.Name, i, actMax[i], want[i])
			}
		}
	}
}

// TestRecompileMatchesFreshCompile drives one resident engine, one resident
// QuantizedWeights and one arena through every architecture twice over (so
// each recompile inherits another architecture's op table and buffers) and
// holds every result to the logits of a fresh QuantizeWeights +
// NewQuantizedNetwork of the same network.
// ParamBytes returns the resident int8 parameter bytes (shared with the
// QuantizedWeights the network was compiled from).
func (q *QuantizedNetwork) ParamBytes() int64 {
	n := int64(0)
	for _, op := range q.ops {
		n += int64(len(op.wq))
	}
	return n
}

func TestRecompileMatchesFreshCompile(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	arena := NewArena()
	qw, qn := &QuantizedWeights{}, &QuantizedNetwork{}
	for round := 0; round < 2; round++ {
		for _, net := range buildQuantArchs(rng) {
			if round == 1 { // a zero-scale tensor over a recycled op
				for _, l := range net.Layers {
					if p := l.Params(); len(p) > 0 {
						clear(p[0].Data)
						break
					}
				}
			}
			calib := randBatch(rng, 24, net.InShape())
			in := randBatch(rng, 9, net.InShape())
			qw.Requantize(net)
			_, fresh := quantizeForTest(t, net, calib) // fake-quantizes net, as the install path's ApplyTo does
			if err := qn.Recompile(net, qw, calib, arena); err != nil {
				t.Fatal(err)
			}
			fa := NewArena()
			want := fresh.ForwardBatch(in, fa)
			arena.Reset()
			got := qn.ForwardBatch(in, arena)
			if qn.Name != fresh.Name || qn.outDim != fresh.outDim || qn.ParamBytes() != fresh.ParamBytes() {
				t.Fatalf("%s round %d: recompiled engine (%s, %d, %d) differs from fresh (%s, %d, %d)", net.Name, round,
					qn.Name, qn.outDim, qn.ParamBytes(), fresh.Name, fresh.outDim, fresh.ParamBytes())
			}
			for i, v := range want.Data {
				if got.Data[i] != v {
					t.Fatalf("%s round %d: logit %d = %v, fresh compile says %v", net.Name, round, i, got.Data[i], v)
				}
			}
		}
	}
}
