package nn

import (
	"math"
	"math/rand"
	"testing"
)

// Golden equivalence suite: the batched inference path (GEMM and direct
// convolution kernels over an arena) must agree bit for bit with each layer's per-sample
// reference Forward. Comparisons go through math.Float64bits so even
// sign-of-zero or NaN-payload drift would fail.

func bitsEqual(t *testing.T, name string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d, want %d", name, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: element %d = %x (%g), want %x (%g)",
				name, i, math.Float64bits(got[i]), got[i],
				math.Float64bits(want[i]), want[i])
		}
	}
}

func randTensor(rng *rand.Rand, shape ...int) *Tensor {
	t := NewTensor(shape...)
	for i := range t.Data {
		t.Data[i] = rng.NormFloat64()
	}
	return t
}

// layerBatchMatchesForward runs one layer's ForwardBatch over batch random
// samples and pins every output row to the reference Forward of that sample.
func layerBatchMatchesForward(t *testing.T, name string, l refLayer, rng *rand.Rand, batch int, shape ...int) {
	t.Helper()
	arena := NewArena()
	in := arena.Tensor(append([]int{batch}, shape...)...)
	sampleLen := in.Len() / batch
	samples := make([]*Tensor, batch)
	for s := range samples {
		samples[s] = randTensor(rng, shape...)
		copy(in.Data[s*sampleLen:(s+1)*sampleLen], samples[s].Data)
	}
	out := l.ForwardBatch(in, arena)
	outLen := out.Len() / batch
	for s, smp := range samples {
		bitsEqual(t, name, out.Data[s*outLen:(s+1)*outLen], l.Forward(smp).Data)
	}
}

func TestDenseGEMMMatchesNaiveBitForBit(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, dims := range [][2]int{{1, 1}, {3, 4}, {7, 5}, {64, 10}, {129, 33}} {
		d := NewDense(dims[0], dims[1], rng)
		// Widths under eight take the NT kernel, eight and up the weight
		// panels, at both batch sizes.
		for _, batch := range []int{1, 5} {
			layerBatchMatchesForward(t, "dense", d, rng, batch, dims[0])
		}
	}
}

func TestConv2DGEMMMatchesNaiveBitForBit(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	cases := []struct{ inC, outC, k, h, w int }{
		{1, 1, 1, 1, 1},
		{1, 4, 3, 8, 8},
		{3, 8, 3, 14, 14},
		{6, 16, 5, 12, 12},
		{8, 8, 1, 7, 9}, // pointwise, non-square input
		{2, 5, 3, 5, 11},
	}
	for _, c := range cases {
		conv := NewConv2D(c.inC, c.outC, c.k, rng)
		for _, batch := range []int{1, 3} {
			layerBatchMatchesForward(t, "conv", conv, rng, batch, c.inC, c.h, c.w)
		}
	}
}

func zooForTest(rng *rand.Rand) []*Network {
	in := []int{1, 14, 14}
	return []*Network{
		BuildCNN("cnn", in, 4, 8, 32, 10, rng),
		BuildLeNet5("lenet", []int{1, 28, 28}, 1, 10, rng),
		BuildMobileCNN("mobile", in, 6, 8, 10, rng),
		BuildMLP("mlp", in, 32, 16, 10, rng),
	}
}

func TestForwardBatchMatchesPerSampleBitForBit(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	for _, net := range zooForTest(rng) {
		arena := NewArena()
		classes, err := net.OutDim()
		if err != nil {
			t.Fatal(err)
		}
		shape := net.InShape()
		sampleLen := 1
		for _, d := range shape {
			sampleLen *= d
		}
		for _, batch := range []int{1, 2, 3, 7, 16} {
			samples := make([]*Tensor, batch)
			for s := range samples {
				samples[s] = randTensor(rng, shape...)
			}
			// Run the batch twice on the same arena: the second pass reuses
			// warmed buffers and must produce the same bits.
			var first []float64
			for pass := 0; pass < 2; pass++ {
				arena.Reset()
				in := arena.Tensor(append([]int{batch}, shape...)...)
				for s, smp := range samples {
					copy(in.Data[s*sampleLen:(s+1)*sampleLen], smp.Data)
				}
				logits := net.ForwardBatch(in, arena)
				if logits.Shape[0] != batch || logits.Shape[1] != classes {
					t.Fatalf("%s: batch logits shape %v, want [%d %d]", net.Name, logits.Shape, batch, classes)
				}
				for s, smp := range samples {
					want := net.Forward(smp)
					bitsEqual(t, net.Name, logits.Data[s*classes:(s+1)*classes], want.Data)
				}
				if pass == 0 {
					first = append([]float64(nil), logits.Data...)
				} else {
					bitsEqual(t, net.Name+" warm-arena pass", logits.Data, first)
				}
			}
		}
	}
}

func TestRowHelpersMatchPerSampleBitForBit(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	scratch := make([]float64, 16)
	for i := 0; i < 50; i++ {
		logits := randTensor(rng, 10)
		label := rng.Intn(10)

		wantLoss, _ := SquaredLoss(logits, label)
		gotLoss := SquaredLossRow(logits.Data, label, scratch)
		if math.Float64bits(gotLoss) != math.Float64bits(wantLoss) {
			t.Fatalf("loss %v, want %v", gotLoss, wantLoss)
		}
		if got, want := ArgmaxRow(logits.Data), logits.MaxIndex(); got != want {
			t.Fatalf("argmax %d, want %d", got, want)
		}
		sm := Softmax(logits)
		dst := make([]float64, 10)
		SoftmaxRowInto(dst, logits.Data)
		bitsEqual(t, "softmax", dst, sm.Data)
	}
}

func TestArenaReuseIsGrowOnly(t *testing.T) {
	a := NewArena()
	f1 := a.Floats(8)
	a.Reset()
	f2 := a.Floats(4)
	if &f1[0] != &f2[0] {
		t.Fatal("arena did not reuse the first float buffer after Reset")
	}
	a.Reset()
	f3 := a.Floats(16) // larger: must grow, not alias a stale smaller cap
	if len(f3) != 16 {
		t.Fatalf("grown buffer has length %d", len(f3))
	}
	tn := a.Tensor(2, 3)
	if tn.Len() != 6 {
		t.Fatalf("arena tensor length %d", tn.Len())
	}
	v := a.View(tn.Data, 3, 2)
	if &v.Data[0] != &tn.Data[0] {
		t.Fatal("view copied data")
	}
}

// TestConvForwardArenaFootprint pins the working set the direct convolution
// removed. Up to PR 18 a 64-sample ForwardBatch lowered every convolution
// through a batch-wide transposed patch matrix of kk*batch*np floats, and the
// float arena after one pass over 1x28x28 inputs held 29 757 440 bytes for
// cnn-l and 29 668 480 for lenet-l; reading the input in place it holds
// 17 361 920 and 11 205 120. The test keeps every buffer of exactly a patch
// matrix's size out of the arena and the total at least 8 MiB under the old
// one.
func TestConvForwardArenaFootprint(t *testing.T) {
	const batch = 64
	in := []int{1, 28, 28}
	for _, arm := range []struct {
		net       *Network
		wasBytes  int
		patchMats []int // kk*batch*np of each convolution
	}{
		{BuildCNN("cnn-l", in, 16, 32, 64, 10, rand.New(rand.NewSource(46))), 29757440,
			[]int{9 * batch * 26 * 26, 144 * batch * 11 * 11}},
		{BuildLeNet5("lenet-l", in, 2, 10, rand.New(rand.NewSource(46))), 29668480,
			[]int{25 * batch * 24 * 24, 300 * batch * 8 * 8}},
	} {
		arena := NewArena()
		arm.net.ForwardBatch(randTensor(rand.New(rand.NewSource(47)), batch, 1, 28, 28), arena)
		total := 0
		for _, buf := range arena.floats.bufs {
			total += 8 * cap(buf)
			for _, n := range arm.patchMats {
				if cap(buf) == n {
					t.Errorf("%s: the arena holds a %d-float buffer, the size of a convolution's patch matrix", arm.net.Name, n)
				}
			}
		}
		if total > arm.wasBytes-8<<20 {
			t.Errorf("%s: float arena holds %d bytes, want at least 8 MiB under the %d it held with im2colT", arm.net.Name, total, arm.wasBytes)
		}
	}
}
