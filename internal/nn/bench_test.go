package nn

import (
	"fmt"
	"math/rand"
	"testing"
)

// Kernel-level benchmarks. BenchmarkConvForward is the shipped direct
// convolution (ForwardBatch at batch 1) and BenchmarkConvForwardNaive the
// reference loops (Forward), so the ConvForward/ConvForwardNaive ratio is the
// kernel speedup on this host.

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

// benchLayerForwardBatch times one layer's ForwardBatch on a 64-sample batch
// — a serving chunk — over a warmed arena and reports the multiply-accumulate
// rate, the figure DESIGN.md §9 compares across layer shapes.
func benchLayerForwardBatch(b *testing.B, l Layer, shape ...int) {
	const batch = 64
	rng := rand.New(rand.NewSource(5))
	arena := NewArena()
	in := randTensor(rng, append([]int{batch}, shape...)...)
	l.ForwardBatch(in, arena)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		arena.Reset()
		l.ForwardBatch(in, arena)
	}
	macs := float64(batch) * float64(l.FLOPs(shape)) * float64(b.N)
	b.ReportMetric(macs/float64(b.Elapsed().Nanoseconds()), "GMAC/s")
}

// zooConvShapes is every distinct convolution shape of the MNIST-like zoo:
// cnn-s and cnn-l (3x3 on 28x28, then on the pooled 13x13), lenet-s and
// lenet-l (5x5 on 28x28, then on 12x12).
var zooConvShapes = []struct{ inC, outC, k, side int }{
	{1, 8, 3, 28}, {8, 16, 3, 13}, {1, 16, 3, 28}, {16, 32, 3, 13},
	{1, 6, 5, 28}, {6, 16, 5, 12}, {1, 12, 5, 28}, {12, 32, 5, 12},
}

// BenchmarkConvForwardBatch covers zooConvShapes through the float layer.
func BenchmarkConvForwardBatch(b *testing.B) {
	for _, c := range zooConvShapes {
		b.Run(fmt.Sprintf("%dto%d_k%d_%dx%d", c.inC, c.outC, c.k, c.side, c.side), func(b *testing.B) {
			conv := NewConv2D(c.inC, c.outC, c.k, rand.New(rand.NewSource(4)))
			benchLayerForwardBatch(b, conv, c.inC, c.side, c.side)
		})
	}
}

// BenchmarkDenseForwardBatch covers the zoo's first Dense layers, where the
// Dense time is: mlp-s, mlp-l, lenet-l and cnn-l.
func BenchmarkDenseForwardBatch(b *testing.B) {
	for _, d := range [][2]int{{784, 64}, {784, 256}, {512, 240}, {800, 64}} {
		b.Run(fmt.Sprintf("%dto%d", d[0], d[1]), func(b *testing.B) {
			benchLayerForwardBatch(b, NewDense(d[0], d[1], rand.New(rand.NewSource(4))), d[0])
		})
	}
}

// BenchmarkTrainEpoch is one SGD epoch (TrainShuffled, batch 16) over 256
// random 1x28x28 samples on each MNIST-family zoo arm — the training a zoo
// build runs per arm — in ns/sample. BenchmarkTrainEpochNaive is the
// per-sample reference loop on the first arm, so its ratio to the cnn-s row
// is the batched-training speedup.
func BenchmarkTrainEpoch(b *testing.B) {
	for _, zb := range zooBuilders[:6] {
		b.Run(zb.name, func(b *testing.B) { benchTrainEpoch(b, zb.build, false) })
	}
}

func BenchmarkTrainEpochNaive(b *testing.B) { benchTrainEpoch(b, zooBuilders[0].build, true) }

func benchTrainEpoch(b *testing.B, build func([]int, *rand.Rand) *Network, naive bool) {
	const n = 256
	shape := []int{1, 28, 28}
	rng := rand.New(rand.NewSource(21))
	net := build(shape, rng)
	samples := randSamples(rng, n, shape, 10)
	cfg := TrainConfig{Epochs: 1, BatchSize: 16, LR: 0.05}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if naive {
			_, err = trainNaive(net, samples, cfg, rand.New(rand.NewSource(22)))
		} else {
			_, err = TrainShuffled(net, samples, cfg, rand.New(rand.NewSource(22)).Shuffle)
		}
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(n*b.N), "ns/sample")
}

// BenchmarkQuantConvForward is BenchmarkConvForwardBatch's shapes through the
// INT8 engine's own convolution stage (runConv on the scoreChunk-sample chunk
// nn.Scorer serves: a direct tile or im2colQ + qgemmNT, whichever the engine
// runs the shape on, then the requantize sweep and scatter), in real
// multiply-accumulates — the pad is not counted. The first layers (inC = 1)
// are the short-K class, the second layers the long-K one.
func BenchmarkQuantConvForward(b *testing.B) { benchQuantConv(b, false) }

// BenchmarkQuantConvPooled is the same stage with the following 2x2 max-pool
// folded in, as every zoo convolution of these shapes runs: the accumulator
// pool and the quarter-size requantize replace the full sweep and scatter,
// so the ns/sample difference is what the stage's tail costs each way.
func BenchmarkQuantConvPooled(b *testing.B) { benchQuantConv(b, true) }

func benchQuantConv(b *testing.B, pool bool) {
	const batch = scoreChunk
	bytes := make([]byte, 1<<12)
	rand.New(rand.NewSource(2)).Read(bytes)
	for _, c := range zooConvShapes {
		b.Run(fmt.Sprintf("%dto%d_k%d_%dx%d", c.inC, c.outC, c.k, c.side, c.side), func(b *testing.B) {
			op, cur := qconvCase(c.inC, c.k, c.side, c.side, c.outC, batch, pool, bytes)
			nxt, col, acc := qconvBuffers(op, batch)
			var q QuantizedNetwork
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				q.runConv(op, batch, cur, nxt, col, acc)
			}
			ns := float64(b.Elapsed().Nanoseconds())
			macs := float64(batch*op.outC*op.oh*op.ow*c.inC*c.k*c.k) * float64(b.N)
			b.ReportMetric(macs/ns, "GMAC/s")
			b.ReportMetric(ns/float64(batch*b.N), "ns/sample")
		})
	}
}

// BenchmarkQuantizeActs is the INT8 engine's input stage: a 64-sample chunk
// of 1x28x28 float inputs quantized at one scale, per sample.
func BenchmarkQuantizeActs(b *testing.B) {
	const batch, side = 64, 28
	rng := rand.New(rand.NewSource(6))
	src := make([]float64, batch*side*side)
	for i := range src {
		src[i] = rng.NormFloat64()
	}
	dst := make([]int8, len(src))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		quantizeActsSIMD(dst, src, 4.0/127)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(batch*b.N), "ns/sample")
}

// BenchmarkQuantNetworkForwardBatch is BenchmarkNetworkForwardBatch through
// the INT8 engine: same architecture, same batch, quantized execution. The
// pair is what BenchmarkDispatchFloors prices each floor with. On this
// 14x14 CNN the float path overtook the INT8 engine when the float
// convolution went direct (DESIGN.md §9 "INT8 fast path"); the served-arm
// comparison is the slot-cost benchmark's nn.q8_speedup_x and its
// edge-serving / edge-serving-int8 workload pair.
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

// BenchmarkZooForwardChunk is Network.ForwardBatch on each MNIST-family zoo
// arm at scoreChunk samples of 1x28x28 — the forward call NNRuntime.RunSlot
// and ScorePool make — over a warmed arena, in ns/sample. A steady-state
// chunk allocates nothing.
func BenchmarkZooForwardChunk(b *testing.B) {
	shape := []int{1, 28, 28}
	for _, zb := range zooBuilders[:6] {
		b.Run(zb.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(5))
			net := zb.build(shape, rng)
			arena := NewArena()
			in := randTensor(rng, scoreChunk, 1, 28, 28)
			net.ForwardBatch(in, arena)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				arena.Reset()
				net.ForwardBatch(in, arena)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(scoreChunk*b.N), "ns/sample")
		})
	}
}
