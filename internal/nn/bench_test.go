package nn

import (
	"math/rand"
	"testing"
)

// Kernel-level benchmarks. BenchmarkConvForward is the shipped im2col+GEMM
// path (ForwardBatch at batch 1) and BenchmarkConvForwardNaive the reference
// loops (Forward), so the ConvForward/ConvForwardNaive ratio is the kernel
// speedup on this host; cmd/nnbench snapshots ConvForward into BENCH_nn.json.

func BenchmarkGEMM(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	const m, n, k = 64, 64, 256
	a := make([]float64, m*k)
	bm := make([]float64, n*k)
	bias := make([]float64, n)
	out := make([]float64, m*n)
	for i := range a {
		a[i] = rng.NormFloat64()
	}
	for i := range bm {
		bm[i] = rng.NormFloat64()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		GemmNTBiasJ(out, a, bm, bias, m, n, k)
	}
}

func benchConv(b *testing.B, naive bool) {
	rng := rand.New(rand.NewSource(2))
	conv := NewConv2D(6, 16, 5, rng)
	in := randTensor(rng, 6, 14, 14)
	batchIn := &Tensor{Shape: []int{1, 6, 14, 14}, Data: in.Data}
	arena := NewArena()
	// Warm the arena so the measured loop is the steady state.
	conv.ForwardBatch(batchIn, arena)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if naive {
			conv.Forward(in)
		} else {
			arena.Reset()
			conv.ForwardBatch(batchIn, arena)
		}
	}
}

func BenchmarkConvForward(b *testing.B)      { benchConv(b, false) }
func BenchmarkConvForwardNaive(b *testing.B) { benchConv(b, true) }

// benchTrainEpoch measures one SGD epoch over 256 samples on the family's
// small-CNN shape; the Naive variant is the retained per-sample reference,
// so the TrainEpoch/TrainEpochNaive ratio is the batched-training speedup.
func benchTrainEpoch(b *testing.B, naive bool) {
	rng := rand.New(rand.NewSource(21))
	net := BuildCNN("bench-train", []int{1, 14, 14}, 8, 16, 32, 10, rng)
	samples := make([]Sample, 256)
	for i := range samples {
		samples[i] = Sample{X: randTensor(rng, 1, 14, 14), Label: rng.Intn(10)}
	}
	cfg := TrainConfig{Epochs: 1, BatchSize: 16, LR: 0.05}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if naive {
			_, err = trainNaive(net, samples, cfg, rand.New(rand.NewSource(22)))
		} else {
			_, err = Train(net, samples, cfg, rand.New(rand.NewSource(22)))
		}
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTrainEpoch(b *testing.B)      { benchTrainEpoch(b, false) }
func BenchmarkTrainEpochNaive(b *testing.B) { benchTrainEpoch(b, true) }

// BenchmarkQuantConvForward measures the INT8 convolution stage on
// BenchmarkConvForward's exact shapes (6->16 channels, 5x5 kernel, 14x14
// input), exactly as the engine runs it: padded-stride im2colQ, the qgemmNT
// dual-row dot sweep over zero-padded weight rows, and the requantize sweep.
// The QuantConvForward/ConvForward ratio is the true-int8 speedup tracked in
// BENCH_nn.json.
func BenchmarkQuantConvForward(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	const inC, outC, kh, h, w = 6, 16, 5, 14, 14
	const oh, ow = h - kh + 1, w - kh + 1
	const kk, np = inC * kh * kh, oh * ow
	var op qOp
	padWeightRows(&op, randInt8(rng, outC*kk), outC, kk)
	wq, kkPad := op.wq, op.kPad
	src := randInt8(rng, inC*h*w)
	col := make([]int8, np*kkPad)
	acc := make([]int32, outC*np)
	dst := make([]int8, outC*np)
	biasQ := make([]int32, outC)
	for oc := range biasQ {
		biasQ[oc] = int32(rng.Intn(2000) - 1000)
	}
	m, shift := quantMultiplier(0.0013)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		im2colQ(col, src, inC, h, w, kh, oh, ow, kkPad)
		qgemmNT(acc, wq, col, outC, np, kkPad)
		for oc := 0; oc < outC; oc++ {
			bq := biasQ[oc]
			arow := acc[oc*np : (oc+1)*np]
			drow := dst[oc*np : (oc+1)*np]
			for j, v := range arow {
				drow[j] = requantize(v+bq, m, shift)
			}
		}
	}
}

// BenchmarkQuantNetworkForwardBatch is BenchmarkNetworkForwardBatch through
// the INT8 engine: same architecture, same batch, quantized execution.
//
// The pair is a RELATIVE contract, not two independent numbers: the int8
// path exists to be faster than the float path, so compare the two
// ns/op figures whenever either moves. Absolute per-benchmark thresholds
// once let the quantized side decay to ~1.0x of the float side without any
// single entry regressing enough to trip a gate; `make bench-diff`
// (cmd/nnbench's checkInt8Wins) now fails outright when
// QuantForwardBatch >= ForwardBatch or QuantSlotStep >= SlotStep.
func BenchmarkQuantNetworkForwardBatch(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	net := BuildCNN("bench-cnn", []int{1, 14, 14}, 8, 16, 64, 10, rng)
	qw := QuantizeWeights(net)
	if err := qw.ApplyTo(net); err != nil {
		b.Fatal(err)
	}
	calib := NewTensor(8, 1, 14, 14)
	for i := range calib.Data {
		calib.Data[i] = rng.NormFloat64()
	}
	qn, err := NewQuantizedNetwork(net, qw, calib)
	if err != nil {
		b.Fatal(err)
	}
	arena := NewArena()
	const batch = 32
	in := arena.Tensor(batch, 1, 14, 14)
	for i := range in.Data {
		in.Data[i] = rng.NormFloat64()
	}
	// Warm the arena so the measured loop is the steady state.
	qn.ForwardBatch(in, arena)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		arena.Reset()
		in := arena.Tensor(batch, 1, 14, 14)
		qn.ForwardBatch(in, arena)
	}
}

func BenchmarkNetworkForwardBatch(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	net := BuildCNN("bench-cnn", []int{1, 14, 14}, 8, 16, 64, 10, rng)
	arena := NewArena()
	const batch = 32
	in := arena.Tensor(batch, 1, 14, 14)
	for i := range in.Data {
		in.Data[i] = rng.NormFloat64()
	}
	// Warm the arena so the measured loop is the steady state.
	net.ForwardBatch(in, arena)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		arena.Reset()
		in := arena.Tensor(batch, 1, 14, 14)
		net.ForwardBatch(in, arena)
	}
}
