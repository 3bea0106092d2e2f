package nn

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"
)

// Training equivalence suite: batched minibatch SGD (TrainShuffled over
// ForwardBatch/BackwardBatch) must produce bit-identical trained
// weights to the per-sample reference loop (trainNaive) — same float64
// parameter bits AND byte-identical serialized checkpoints — for every
// family architecture.

// trainCase pairs an architecture builder with a deterministic init seed.
// Builders cover every constructor buildFamily (internal/models) uses, both
// capacity tiers, at a reduced 20x20 input so the suite stays fast.
type trainCase struct {
	name  string
	build func(rng *rand.Rand) *Network
}

func trainFamily() []trainCase {
	in := []int{1, 20, 20}
	const k = 10
	return []trainCase{
		{"cnn-s", func(rng *rand.Rand) *Network { return BuildCNN("cnn-s", in, 8, 16, 32, k, rng) }},
		{"cnn-l", func(rng *rand.Rand) *Network { return BuildCNN("cnn-l", in, 16, 32, 64, k, rng) }},
		{"lenet-s", func(rng *rand.Rand) *Network { return BuildLeNet5("lenet-s", in, 1, k, rng) }},
		{"lenet-l", func(rng *rand.Rand) *Network { return BuildLeNet5("lenet-l", in, 2, k, rng) }},
		{"mlp-s", func(rng *rand.Rand) *Network { return BuildMLP("mlp-s", in, 64, 32, k, rng) }},
		{"mlp-l", func(rng *rand.Rand) *Network { return BuildMLP("mlp-l", in, 256, 128, k, rng) }},
		{"mobile-s", func(rng *rand.Rand) *Network { return BuildMobileCNN("mobile-s", in, 4, 8, k, rng) }},
		{"mobile-l", func(rng *rand.Rand) *Network { return BuildMobileCNN("mobile-l", in, 16, 32, k, rng) }},
	}
}

func randSamples(rng *rand.Rand, n int, shape []int, classes int) []Sample {
	samples := make([]Sample, n)
	for i := range samples {
		samples[i] = Sample{X: randTensor(rng, shape...), Label: rng.Intn(classes)}
	}
	return samples
}

// paramsBitsEqual compares every parameter tensor of two networks bit for
// bit (stronger than the float32 wire format, which could mask low bits).
func paramsBitsEqual(t *testing.T, name string, got, want *Network) {
	t.Helper()
	for li, l := range got.Layers {
		wp := want.Layers[li].Params()
		for pi, p := range l.Params() {
			bitsEqual(t, name, p.Data, wp[pi].Data)
		}
	}
}

func serialized(t *testing.T, net *Network) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteWeights(&buf, net); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestTrainBatchedMatchesNaiveBitForBit trains each architecture on 33
// samples three ways, so the last minibatch holds 5, 3 and 1 samples: a
// Dense backward below the 4x8 tile's four rows runs the row drivers alone.
func TestTrainBatchedMatchesNaiveBitForBit(t *testing.T) {
	for _, tc := range trainFamily() {
		for _, bs := range []int{7, 10, 16} {
			sampleRng := rand.New(rand.NewSource(61))
			samples := randSamples(sampleRng, 33, []int{1, 20, 20}, 10)
			cfg := TrainConfig{Epochs: 2, BatchSize: bs, LR: 0.05}
			name := fmt.Sprintf("%s batch %d", tc.name, bs)

			naiveNet := tc.build(rand.New(rand.NewSource(62)))
			batchNet := tc.build(rand.New(rand.NewSource(62)))
			naiveAvg, err := trainNaive(naiveNet, samples, cfg, rand.New(rand.NewSource(63)))
			if err != nil {
				t.Fatal(err)
			}
			batchAvg, err := TrainShuffled(batchNet, samples, cfg, rand.New(rand.NewSource(63)).Shuffle)
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(naiveAvg) != math.Float64bits(batchAvg) {
				t.Fatalf("%s: final avg loss %v (batched) != %v (naive)", name, batchAvg, naiveAvg)
			}
			paramsBitsEqual(t, name, batchNet, naiveNet)
			if !bytes.Equal(serialized(t, batchNet), serialized(t, naiveNet)) {
				t.Fatalf("%s: serialized checkpoints differ", name)
			}
		}
	}
}

// TestTrainArenaFootprintPinned is TestConvForwardArenaFootprint's
// training counterpart: the float arena's high-water bytes after one
// 16-sample minibatch of 1x28x28 on each MNIST-family arm, pinned. With each
// convolution's backward pass lowering samples to im2col rows and every layer
// computing its input gradient, the arena held 4 579 936 / 8 906 400 /
// 3 137 408 / 5 954 688 / 322 688 / 525 440 bytes (cnn-s, cnn-l, lenet-s,
// lenet-l, mlp-s, mlp-l). The test also fails on any buffer the size of one
// sample's im2col matrix (kk*np floats) of any convolution, and on a second
// buffer the size of the input batch: the first layer with weights sees
// that many inputs (the Flatten in front of an MLP's first Dense is a view),
// so a second one would be its input gradient, which nothing reads.
func TestTrainArenaFootprintPinned(t *testing.T) {
	const batch = 16
	in := []int{1, 28, 28}
	pinned := map[string]int{
		"cnn-s": 4360960, "cnn-l": 8617728, "lenet-s": 2844672,
		"lenet-l": 5585152, "mlp-s": 221952, "mlp-l": 424704,
	}
	for _, zb := range zooBuilders[:6] {
		net := zb.build(in, rand.New(rand.NewSource(48)))
		samples := randSamples(rand.New(rand.NewSource(49)), batch, in, 10)
		idx := make([]int, batch)
		for i := range idx {
			idx[i] = i
		}
		tr := newTrainer(net)
		tr.step(samples, idx, 0.05, 0)
		var im2colLens []int
		shape := in
		for _, l := range net.Layers {
			if c, ok := l.(*Conv2D); ok {
				out := c.OutShape(shape)
				im2colLens = append(im2colLens, c.InC*c.K*c.K*out[1]*out[2])
			}
			shape = l.OutShape(shape)
		}
		total, batchSized := 0, 0
		for _, buf := range tr.a.floats.bufs {
			total += 8 * cap(buf)
			if cap(buf) == batch*28*28 {
				batchSized++
			}
			if slices.Contains(im2colLens, cap(buf)) {
				t.Errorf("%s: the arena holds a %d-float buffer, the size of a sample's im2col matrix", zb.name, cap(buf))
			}
		}
		if batchSized != 1 {
			t.Errorf("%s: %d arena buffers the size of the input batch, want 1 (the batch itself)", zb.name, batchSized)
		}
		if total != pinned[zb.name] {
			t.Errorf("%s: float arena holds %d bytes after one minibatch, pinned at %d", zb.name, total, pinned[zb.name])
		}
	}
}

// evaluateNaive is the per-sample scoring loop, retained as the reference
// ScorePool is pinned against.
func evaluateNaive(net *Network, samples []Sample) (losses []float64, correct []bool, meanLoss, meanAcc float64) {
	nCorrect := 0
	totalLoss := 0.0
	for _, s := range samples {
		logits := net.Forward(s.X)
		l, _ := SquaredLoss(logits, s.Label)
		ok := logits.MaxIndex() == s.Label
		losses, correct = append(losses, l), append(correct, ok)
		totalLoss += l
		if ok {
			nCorrect++
		}
	}
	n := float64(len(samples))
	return losses, correct, totalLoss / n, float64(nCorrect) / n
}

func TestEvaluateMatchesNaiveBitForBit(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	for _, net := range zooForTest(rng) {
		// 71 samples: two full chunks and a short one.
		samples := randSamples(rng, 71, net.InShape(), 10)
		wantLosses, wantCorrect, wantLoss, wantAcc := evaluateNaive(net, samples)
		losses, correct, gotLoss, gotAcc := ScorePool(net.ForwardBatch, samples)
		bitsEqual(t, net.Name+" per-sample loss", losses, wantLosses)
		if !slices.Equal(correct, wantCorrect) {
			t.Fatalf("%s: per-sample correctness differs", net.Name)
		}
		if math.Float64bits(gotAcc) != math.Float64bits(wantAcc) {
			t.Fatalf("%s: accuracy %v, want %v", net.Name, gotAcc, wantAcc)
		}
		if math.Float64bits(gotLoss) != math.Float64bits(wantLoss) {
			t.Fatalf("%s: mean loss %v, want %v", net.Name, gotLoss, wantLoss)
		}
	}
	if _, _, loss, acc := ScorePool(zooForTest(rng)[0].ForwardBatch, nil); acc != 0 || loss != 0 {
		t.Fatalf("empty evaluation = (%v, %v), want (0, 0)", acc, loss)
	}
}

// TestScorePoolIgnoresCoreCount: the scorer serves a pool's chunks on as many
// lanes as GOMAXPROCS allows, and for one, two and more-lanes-than-chunks the
// per-sample losses, hits and both means are the one-sample-at-a-time loop's
// bit for bit, at every chunk-boundary pool size and on both engines — so
// results/*.txt cannot depend on the host's core count.
func TestScorePoolIgnoresCoreCount(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	rng := rand.New(rand.NewSource(93))
	shape := []int{1, 20, 20}
	net := BuildCNN("cnn", shape, 8, 16, 32, 10, rng)
	pool := randSamples(rng, 257, shape, 10)
	wantLosses, wantCorrect, _, _ := evaluateNaive(net, pool)

	qnet := BuildCNN("cnn-q8", shape, 8, 16, 32, 10, rng)
	_, qn := quantizeForTest(t, qnet, StackSamples(pool, 64))
	one := NewArena()
	var qLosses []float64
	var qCorrect []bool
	for _, s := range pool { // the INT8 oracle: batches of one
		one.Reset()
		logits := qn.ForwardBatch(&Tensor{Shape: append([]int{1}, shape...), Data: s.X.Data}, one)
		l, _ := SquaredLoss(&Tensor{Shape: logits.Shape[1:], Data: logits.Data}, s.Label)
		qLosses, qCorrect = append(qLosses, l), append(qCorrect, ArgmaxRow(logits.Data) == s.Label)
	}

	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		for _, n := range []int{0, 1, 31, 32, 33, 100, 257} {
			for _, eng := range []struct {
				name    string
				forward func(*Tensor, *Arena) *Tensor
				losses  []float64
				correct []bool
			}{{"float", net.ForwardBatch, wantLosses, wantCorrect}, {"int8", qn.ForwardBatch, qLosses, qCorrect}} {
				name := fmt.Sprintf("%s procs=%d n=%d", eng.name, procs, n)
				losses, correct, meanLoss, meanAcc := ScorePool(eng.forward, pool[:n])
				bitsEqual(t, name+" losses", losses, eng.losses[:n])
				if !slices.Equal(correct, eng.correct[:n]) {
					t.Fatalf("%s: per-sample correctness differs", name)
				}
				sum, hits := 0.0, 0
				for i, l := range eng.losses[:n] {
					sum += l
					if eng.correct[i] {
						hits++
					}
				}
				if n > 0 && (math.Float64bits(meanLoss) != math.Float64bits(sum/float64(n)) || meanAcc != float64(hits)/float64(n)) {
					t.Fatalf("%s: means (%v, %v), want (%v, %v)", name, meanLoss, meanAcc, sum/float64(n), float64(hits)/float64(n))
				}
			}
		}
	}
}

// TestLossRowGradsMatchPerSampleBitForBit pins the row-variant training
// loss and its gradient (the value-only SquaredLossRow is covered in
// batch_equiv_test).
func TestLossRowGradsMatchPerSampleBitForBit(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	gradRow := make([]float64, 10)
	for i := 0; i < 50; i++ {
		logits := randTensor(rng, 10)
		label := rng.Intn(10)

		wantLoss, wantGrad := CrossEntropyLoss(randClone(logits), label)
		gotLoss := CrossEntropyLossRow(logits.Data, label, gradRow)
		if math.Float64bits(gotLoss) != math.Float64bits(wantLoss) {
			t.Fatalf("xent loss %v, want %v", gotLoss, wantLoss)
		}
		bitsEqual(t, "xent grad", gradRow, wantGrad.Data)
	}
}

// randClone deep-copies a tensor (CrossEntropyLoss mutates its softmax
// buffer, which aliases nothing here but keeps inputs pristine).
func randClone(t *Tensor) *Tensor {
	c := NewTensor(t.Shape...)
	copy(c.Data, t.Data)
	return c
}

// FuzzConvBackward holds Conv2D.BackwardBatch, on every dispatch floor the
// host has, to the per-sample Backward over the same samples: the weight and
// bias gradients accumulated across the batch onto the same nonzero starting
// values, and — when the input gradient is asked for — each sample's input
// gradient; when it is not, BackwardBatch must return nil. k ∈ {1, 3, 5},
// inC 1–12, outC 1–20 and output planes 1–20 rows by 1–20 columns (every
// tail length of the kernel's four-value groups), batch 1–3. Weights and
// inputs cycle through the fuzzed bytes, IEEE corners included; the
// gradient planes are what a max-pool scatter leaves, one value per 2×2
// window at a fuzzed position and a zero of fuzzed sign everywhere else.
// Bits must match exactly, except that any NaN matches any NaN (the payload
// carve-out of simd_amd64.go).
func FuzzConvBackward(f *testing.F) {
	f.Add(uint8(1), uint8(0), uint8(7), uint8(25), uint8(25), uint8(0), true, []byte{0x10, 0x90, 0x61, 0x03})
	f.Add(uint8(2), uint8(5), uint8(15), uint8(7), uint8(7), uint8(1), true, []byte{0xac, 0x5d, 0x70, 0x20, 0xae, 0x41})
	f.Add(uint8(0), uint8(11), uint8(19), uint8(6), uint8(2), uint8(2), false, []byte("conv-backward"))
	f.Add(uint8(1), uint8(7), uint8(3), uint8(10), uint8(10), uint8(2), false, []byte{0xab, 0x56, 0x54, 0x99})
	f.Fuzz(func(t *testing.T, kSel, inC, outC, oh, ow, batch uint8, wantIn bool, raw []byte) {
		if len(raw) == 0 {
			raw = []byte{0x5d}
		}
		k := []int{1, 3, 5}[int(kSel)%3]
		c, oc := 1+int(inC)%12, 1+int(outC)%20
		ph, pw := 1+int(oh)%20, 1+int(ow)%20
		h, w := ph+k-1, pw+k-1
		n := 1 + int(batch)%3
		next := 0
		byteAt := func() byte {
			b := raw[next%len(raw)] + byte(next/len(raw))
			next++
			return b
		}
		fill := func(dst []float64) {
			for i := range dst {
				dst[i] = convPoolValue(byteAt())
			}
		}
		conv := NewConv2D(c, oc, k, rand.New(rand.NewSource(1)))
		fill(conv.w.Data)
		in := NewTensor(n, c, h, w)
		fill(in.Data)
		gradOut := NewTensor(n, oc, ph, pw)
		for p := 0; p < n*oc; p++ {
			plane := gradOut.Data[p*ph*pw : (p+1)*ph*pw]
			for y := 0; y < ph; y += 2 {
				for x := 0; x < pw; x += 2 {
					pick := int(byteAt())
					for d := 0; d < 4; d++ {
						yy, xx := y+d/2, x+d%2
						if yy >= ph || xx >= pw {
							continue
						}
						switch {
						case d == pick%4:
							plane[yy*pw+xx] = convPoolValue(byteAt())
						case pick&(16<<d) != 0:
							plane[yy*pw+xx] = math.Copysign(0, -1)
						}
					}
				}
			}
		}
		startGrads := func() []*Tensor {
			g := []*Tensor{NewTensor(conv.w.Shape...), NewTensor(conv.b.Shape...)}
			next = 0
			fill(g[0].Data)
			fill(g[1].Data)
			return g
		}
		want := startGrads()
		inLen, outLen := c*h*w, oc*ph*pw
		var wantGI []float64
		for s := 0; s < n; s++ {
			smp := &Tensor{Shape: []int{c, h, w}, Data: in.Data[s*inLen : (s+1)*inLen]}
			gs := &Tensor{Shape: []int{oc, ph, pw}, Data: gradOut.Data[s*outLen : (s+1)*outLen]}
			wantGI = append(wantGI, conv.Backward(smp, gs, want).Data...)
		}
		same := func(floor, what string, got, want []float64) {
			t.Helper()
			for i := range want {
				if !sameBits(got[i], want[i]) {
					t.Fatalf("%s: k=%d inC=%d outC=%d plane=%dx%d batch=%d wantIn=%v: %s[%d] = %x, Backward gives %x",
						floor, k, c, oc, ph, pw, n, wantIn, what, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
				}
			}
		}
		eachDispatchFloor(func(floor string) {
			got := startGrads()
			gi := conv.BackwardBatch(in, gradOut, got, wantIn, NewArena())
			same(floor, "gw", got[0].Data, want[0].Data)
			same(floor, "gb", got[1].Data, want[1].Data)
			switch {
			case !wantIn && gi != nil:
				t.Fatalf("%s: BackwardBatch returned an input gradient nobody asked for", floor)
			case wantIn:
				same(floor, "gi", gi.Data, wantGI)
			}
		})
	})
}
