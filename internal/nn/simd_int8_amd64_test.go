package nn

import (
	"bytes"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// TestRequantizeRowAVX512BitIdentical pins the AVX-512 requantize kernel
// against the scalar loop on its whole domain: 8-lane-multiple rows, shifts
// across (0, 62), both clamp bounds, and accumulators spanning the full
// int32 range so the bias add wraps exactly like Go's int32 arithmetic.
func TestRequantizeRowAVX512BitIdentical(t *testing.T) {
	if !hasAVX512 {
		t.Skip("no AVX-512 support on this host")
	}
	rng := rand.New(rand.NewSource(55))
	for iter := 0; iter < 400; iter++ {
		n := 8 * (1 + rng.Intn(12))
		acc := make([]int32, n)
		for j := range acc {
			acc[j] = int32(rng.Uint32()) // full wraparound range
		}
		bias := int32(rng.Uint32())
		m := int32(1<<30 + rng.Intn(1<<30))
		shift := 1 + rng.Intn(61)
		for _, lo := range []int8{-127, 0} {
			want := make([]int8, n)
			got := make([]int8, n)
			requantizeRowScalar(want, acc, bias, m, shift, lo)
			requantizeRowAVX512(got, acc, bias, m, shift, lo)
			for j := range want {
				if got[j] != want[j] {
					t.Fatalf("requantizeRowAVX512(n=%d bias=%d m=%d shift=%d lo=%d)[%d]: %d != scalar %d",
						n, bias, m, shift, lo, j, got[j], want[j])
				}
			}
		}
	}
}

// TestDispatchFeatureOverrideBitIdentical force-disables the CPUID feature
// flags floor by floor (eachDispatchFloor: VNNI off, then AVX-512 off, then
// AVX2 off, which leaves the portable Go kernels plus the two undispatched
// baseline-SSE2 ones) and replays, under every configuration, the raw integer
// dispatchers, a full quantized-network forward, a float forward and one
// float training epoch on each of three networks. Everything must be bit-identical to the native-flag
// run: tier selection is a pure performance decision and can never change
// results. With AVX2 off this is the test that executes, on every amd64 run,
// literally the code a host below the floor — or any architecture without a
// vector tier — runs. The natural probe must already satisfy the implication
// chain VNNI => AVX-512 => AVX2.
func TestDispatchFeatureOverrideBitIdentical(t *testing.T) {
	if hasVNNI && !hasAVX512 {
		t.Fatal("CPUID probe inconsistency: hasVNNI set without hasAVX512")
	}
	if hasAVX512 && !hasAVX2 {
		t.Fatal("CPUID probe inconsistency: hasAVX512 set without hasAVX2")
	}

	// A quantized network end to end, compiled at each floor: flags pick
	// each convolution's lowering at compile time and steer qdot2SIMD inside
	// qgemmNT and requantizeRow inside runConv/runDense, so the forward
	// output is the integration-level witness that dispatch cannot leak into
	// results.
	rng := rand.New(rand.NewSource(31))
	net := BuildCNN("dispatch-cnn", []int{1, 14, 14}, 8, 16, 64, 10, rng)
	qw := QuantizeWeights(net)
	if err := qw.ApplyTo(net); err != nil {
		t.Fatal(err)
	}
	calib := NewTensor(8, 1, 14, 14)
	for i := range calib.Data {
		calib.Data[i] = rng.NormFloat64()
	}
	quantForward := func(in *Tensor, arena *Arena) *Tensor {
		qn, err := NewQuantizedNetwork(net, qw, calib)
		if err != nil {
			t.Fatal(err)
		}
		return qn.ForwardBatch(in, arena)
	}
	// Both nets take one batch of 7 square single-channel images: 14x14 for
	// the quantized CNN, 16x16 for the float LeNet (inData is sized for the
	// larger and the smaller reads a prefix).
	const batch = 7
	inData := make([]float64, batch*16*16)
	for i := range inData {
		inData[i] = rng.NormFloat64()
	}
	forwardBatch := func(fwd func(in *Tensor, arena *Arena) *Tensor, side int) []float64 {
		arena := NewArena()
		in := arena.Tensor(batch, 1, side, side)
		copy(in.Data, inData)
		return append([]float64(nil), fwd(in, arena).Data...)
	}

	// The float half: a LeNet-5 on 16x16 inputs, whose shapes put every
	// forward path on the line at batch 7. Both convolutions run fused with
	// their ReLU and pool, and every floor is also held to the native layer
	// walk. conv1's six channels run the convolution tile as two overlapping
	// groups of four over the 12 pooled columns of each row pair; conv2's
	// 2x2 output is one pool window, narrower than a segment, and takes the
	// portable twin's epilogue on every floor. The Dense layers' seven rows are two overlapping
	// 4-row tiles per weight panel: 15 panels (120 units), 10 and an
	// overlapping eleventh (84), two overlapping (10). One epoch of training
	// on top crosses step, reluBwd, the NN-form and accumulating GEMMs with
	// their 8-column and scalar tails and the backward
	// convolution kernel at k = 5 — conv1 without an input gradient, conv2
	// with one. The same epoch on a 3x3 CNN runs that kernel at k = 3, and on
	// an MLP, whose first layer with weights is a Dense behind a Flatten, the
	// Dense backward without an input gradient.
	floatNet := func() *Network {
		return BuildLeNet5("dispatch-lenet", []int{1, 16, 16}, 1, 10, rand.New(rand.NewSource(32)))
	}
	samples := make([]Sample, 3*batch)
	for i := range samples {
		samples[i] = Sample{X: randTensor(rng, 1, 16, 16), Label: rng.Intn(10)}
	}
	trainedWeights := func() []byte {
		var buf bytes.Buffer
		for _, fn := range []*Network{
			floatNet(),
			BuildCNN("dispatch-cnn", []int{1, 16, 16}, 6, 8, 16, 10, rand.New(rand.NewSource(34))),
			BuildMLP("dispatch-mlp", []int{1, 16, 16}, 24, 12, 10, rand.New(rand.NewSource(35))),
		} {
			if _, err := TrainShuffled(fn, samples, TrainConfig{Epochs: 1, BatchSize: batch, LR: 0.05}, rand.New(rand.NewSource(33)).Shuffle); err != nil {
				t.Fatal(err)
			}
			if err := WriteWeights(&buf, fn); err != nil {
				t.Fatal(err)
			}
		}
		return buf.Bytes()
	}

	// Kernel-level witness on the asm fast-path domain, plus a requantize row
	// long enough to cross the AVX-512 dispatch threshold.
	a0, a1 := randInt8(rng, 128), randInt8(rng, 128)
	bmat := randInt8(rng, 9*128)
	acc := make([]int32, 512)
	for j := range acc {
		acc[j] = int32(rng.Uint32())
	}
	kernels := func() ([]int32, []int8) {
		d0, d1 := make([]int32, 9), make([]int32, 9)
		qdot2SIMD(d0, d1, a0, a1, bmat, 9, 128)
		rq := make([]int8, len(acc))
		requantizeRow(rq, acc, 12345, 1<<30+77, 31, -127)
		return append(d0, d1...), rq
	}

	wantOut := forwardBatch(quantForward, 14)
	wantFloat := forwardBatch(floatNet().ForwardBatch, 16)
	walkNet := floatNet()
	wantWalk := forwardBatch(func(in *Tensor, a *Arena) *Tensor { return layerWalk(walkNet, in, a) }, 16)
	wantTrained := trainedWeights()
	wantDots, wantRq := kernels()
	eachDispatchFloor(func(floor string) {
		gotDots, gotRq := kernels()
		for j := range wantDots {
			if gotDots[j] != wantDots[j] {
				t.Fatalf("%s: qdot2SIMD[%d] = %d, native %d", floor, j, gotDots[j], wantDots[j])
			}
		}
		for j := range wantRq {
			if gotRq[j] != wantRq[j] {
				t.Fatalf("%s: requantizeRow[%d] = %d, native %d", floor, j, gotRq[j], wantRq[j])
			}
		}
		sameOutputs := func(what string, got, want []float64) {
			for j := range want {
				if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
					t.Fatalf("%s: %s ForwardBatch output %d = %v, native %v", floor, what, j, got[j], want[j])
				}
			}
		}
		sameOutputs("quantized", forwardBatch(quantForward, 14), wantOut)
		gotFloat := forwardBatch(floatNet().ForwardBatch, 16)
		sameOutputs("float", gotFloat, wantFloat)
		sameOutputs("fused float vs layer walk", gotFloat, wantWalk)
		if !bytes.Equal(trainedWeights(), wantTrained) {
			t.Fatalf("%s: weights after one training epoch differ from the native run", floor)
		}
	})
}

// qgemm2Tiers lists every batch-tiled dual-row asm kernel available on this
// host, widest last: AVX2 and VNNI join when the CPU+OS support them (on a
// VNNI host both run; below the AVX2 floor there is none and the dispatcher
// runs qdotRowRef).
func qgemm2Tiers() []qgemm2Tier {
	var tiers []qgemm2Tier
	if hasAVX2 {
		tiers = append(tiers, qgemm2Tier{"qgemm2AVX2", qgemm2AVX2})
	}
	if hasVNNI {
		tiers = append(tiers, qgemm2Tier{"qgemm2VNNI", qgemm2VNNI})
	}
	return tiers
}

type qgemm2Tier struct {
	name string
	kern func(out0, out1 []int32, a0, a1, b []int8, n, k int)
}

// TestQdot2TiersBitIdentical pins every batch-tiled dual-row asm kernel —
// qgemm2AVX2 and qgemm2VNNI where available — against the
// scalar reference on their vector-width-multiple domain (the dispatcher
// routes everything else to qdotRowRef). Every available tier runs
// regardless of which one dispatch would pick, so tier selection can never
// change results. n spans below, at, and across the 4-column tile boundary
// so both the quad loop and the column tail are hit; the ±127 lanes stress
// the VNNI compensation with extreme row sums. Every case also runs each
// tier on one row passed as both rows (out0 == out1, a0 == a1), the pair
// qgemmNT runs an odd last row as.
func TestQdot2TiersBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	check := func(name string, kern func(out0, out1 []int32, a0, a1, b []int8, n, k int), a0, a1, b []int8, n, k int, want0, want1 []int32) {
		t.Helper()
		got0, got1 := make([]int32, n), make([]int32, n)
		kern(got0, got1, a0, a1, b, n, k)
		for j := 0; j < n; j++ {
			if got0[j] != want0[j] || got1[j] != want1[j] {
				t.Fatalf("%s n=%d k=%d row %d: (%d, %d) != ref (%d, %d)", name, n, k, j, got0[j], got1[j], want0[j], want1[j])
			}
		}
		for _, c := range []struct {
			a    []int8
			want []int32
		}{{a0, want0}, {a1, want1}} {
			got := make([]int32, n)
			kern(got, got, c.a, c.a, b, n, k)
			for j := 0; j < n; j++ {
				if got[j] != c.want[j] {
					t.Fatalf("%s aliased n=%d k=%d row %d: %d != ref %d", name, n, k, j, got[j], c.want[j])
				}
			}
		}
	}
	for _, k := range []int{16, 32, 48, 64, 160, 400} {
		for _, n := range []int{1, 2, 3, 4, 5, 7, 8, 11} {
			a0 := randInt8(rng, k)
			a1 := randInt8(rng, k)
			b := randInt8(rng, n*k)
			for p := 0; p < k; p++ { // ±127 extremes in row 0 of b
				if p%2 == 0 {
					b[p] = 127
				} else {
					b[p] = -127
				}
			}
			for p := 0; p < k; p++ { // all-(-128) a1: worst-case VNNI comp
				a1[p] = -128
			}
			want0, want1 := make([]int32, n), make([]int32, n)
			qdotRowRef(want0, a0, b, n, k)
			qdotRowRef(want1, a1, b, n, k)
			for _, tier := range qgemm2Tiers() {
				check(tier.name, tier.kern, a0, a1, b, n, k, want0, want1)
			}
		}
	}
	// Random fuzz over the same domain with fully random operands.
	for iter := 0; iter < 150; iter++ {
		k := 16 * (1 + rng.Intn(25))
		n := 1 + rng.Intn(13)
		a0 := randInt8(rng, k)
		a1 := randInt8(rng, k)
		b := randInt8(rng, n*k)
		want0, want1 := make([]int32, n), make([]int32, n)
		qdotRowRef(want0, a0, b, n, k)
		qdotRowRef(want1, a1, b, n, k)
		for _, tier := range qgemm2Tiers() {
			check(tier.name, tier.kern, a0, a1, b, n, k, want0, want1)
		}
	}
}

// TestQConvDirect4x16AVX2MatchesRef calls the short-K convolution tile
// itself, group by group and sample by sample as qconvDirectSIMD does, and
// holds its accumulators to qdotRowRef over unpadded im2colQ patches. The
// shapes cover odd tap counts (9, 25, 27, 45, 1: the spare tap runs under its
// zero weight) and even ones (4, 16, 48), a last channel group of one, two
// and three, rows of exactly one segment, of whole segments and with an
// overlapping last one, and an odd segment count (the repeated final
// segment); the operand patterns put ±127 and -128 in every lane of both
// sides, where each pair sum is at its largest. A guard band after the last
// channel row catches a store past the nch rows the call was given.
func TestQConvDirect4x16AVX2MatchesRef(t *testing.T) {
	if !hasAVX2 {
		t.Skip("host below the AVX2 floor: every convolution lowers through im2colQ + qgemmNT")
	}
	rng := rand.New(rand.NewSource(2202))
	patterns := map[string]func(n int) []byte{
		"random": func(n int) []byte { b := make([]byte, n); rng.Read(b); return b },
		"+127":   func(n int) []byte { return bytes.Repeat([]byte{0x7f}, n) },
		"-127":   func(n int) []byte { return bytes.Repeat([]byte{0x81}, n) },
		"-128":   func(n int) []byte { return bytes.Repeat([]byte{0x80}, n) },
		"±127":   func(n int) []byte { return bytes.Repeat([]byte{0x7f, 0x81, 0x81}, n/3+1)[:n] },
	}
	const batch, guard = 2, 0x5a5a5a5a
	for _, c := range []struct{ inC, k, h, w, outC int }{
		{1, 3, 10, 10, 4}, {1, 5, 12, 20, 6}, {3, 3, 10, 17, 7}, {5, 3, 11, 26, 9},
		{1, 1, 3, 8, 1}, {4, 1, 8, 9, 5}, {16, 1, 15, 15, 8}, {48, 1, 9, 24, 3},
	} {
		kk := c.inC * c.k * c.k
		for wname, wfill := range patterns {
			for xname, xfill := range patterns {
				op, cur := qconvCase(c.inC, c.k, c.h, c.w, c.outC, batch, false, append(wfill(c.outC*kk), xfill(batch*c.inC*c.h*c.w)...))
				if len(op.segs) == 0 {
					t.Fatalf("%+v: not compiled for the tile", c)
				}
				np := op.oh * op.ow
				cols := batch * np
				acc := make([]int32, (c.outC+3)*cols)
				for i := range acc {
					acc[i] = guard
				}
				group := 2 * len(op.offs)
				for s := 0; s < batch; s++ {
					for oc := 0; oc < c.outC; oc += 4 {
						qconvDirect4x16AVX2(acc[oc*cols+s*np:], cols, min(4, c.outC-oc), op.wpk[oc/4*group:], cur[s*op.inLen:(s+1)*op.inLen], op.offs, op.segs)
					}
				}
				col, want := make([]int8, np*kk), make([]int32, np)
				for s := 0; s < batch; s++ {
					im2colQ(col, cur[s*op.inLen:(s+1)*op.inLen], c.inC, c.h, c.w, c.k, op.oh, op.ow, kk)
					for oc := 0; oc < c.outC; oc++ {
						qdotRowRef(want, op.wq[oc*op.kPad:oc*op.kPad+kk], col, np, kk)
						for j, v := range want {
							if got := acc[oc*cols+s*np+j]; got != v {
								t.Fatalf("%+v weights %s inputs %s: sample %d channel %d pixel %d = %d, reference %d", c, wname, xname, s, oc, j, got, v)
							}
						}
					}
				}
				for i, v := range acc[c.outC*cols:] {
					if v != guard {
						t.Fatalf("%+v: the tile stored past its last channel row (guard word %d)", c, i)
					}
				}
			}
		}
	}
}

// TestQConvDirectVNNIMatchesRef calls the long-K convolution tile itself,
// group by group and sample by sample as qconvDirectSIMD does, and holds its
// accumulators to qdotRowRef over unpadded im2colQ patches. The tap counts
// cover every residue mod 4 (72, 300, 64: none spare; 81, 125, 65: three;
// 90, 150: two; 63, 75: one), the channel counts full eight-channel groups
// and a last group of one, six and seven, the rows one segment, whole
// segments and an overlapping last one, and an odd segment count (the
// repeated final segment); the operand patterns put ±127 and -128 in every
// lane of both sides, where the -128*sum(w) starting sum and each quad sum
// are at their largest. A guard band after the last channel row catches a
// store past the nch rows the call was given.
func TestQConvDirectVNNIMatchesRef(t *testing.T) {
	if !hasVNNI {
		t.Skip("host without AVX-512 VNNI: long-K convolutions lower through im2colQ + qgemmNT")
	}
	rng := rand.New(rand.NewSource(2901))
	patterns := map[string]func(n int) []byte{
		"random": func(n int) []byte { b := make([]byte, n); rng.Read(b); return b },
		"+127":   func(n int) []byte { return bytes.Repeat([]byte{0x7f}, n) },
		"-127":   func(n int) []byte { return bytes.Repeat([]byte{0x81}, n) },
		"-128":   func(n int) []byte { return bytes.Repeat([]byte{0x80}, n) },
		"±127":   func(n int) []byte { return bytes.Repeat([]byte{0x7f, 0x81, 0x81}, n/3+1)[:n] },
	}
	const batch, guard = 2, 0x5a5a5a5a
	for _, c := range []struct{ inC, k, h, w, outC int }{
		{8, 3, 13, 13, 16}, {9, 3, 10, 10, 6}, {10, 3, 11, 14, 9}, {7, 3, 9, 10, 15},
		{3, 5, 32, 32, 6}, {6, 5, 12, 12, 16}, {12, 5, 12, 12, 32}, {5, 5, 13, 14, 1},
		{64, 1, 3, 8, 8}, {65, 1, 5, 9, 7},
	} {
		kk := c.inC * c.k * c.k
		for wname, wfill := range patterns {
			for xname, xfill := range patterns {
				op, cur := qconvCase(c.inC, c.k, c.h, c.w, c.outC, batch, false, append(wfill(c.outC*kk), xfill(batch*c.inC*c.h*c.w)...))
				if op.kPad < longK || len(op.segs) == 0 {
					t.Fatalf("%+v: not compiled for the VNNI tile", c)
				}
				np := op.oh * op.ow
				cols := batch * np
				acc := make([]int32, (c.outC+7)*cols)
				for i := range acc {
					acc[i] = guard
				}
				group := 8 + 2*len(op.offs)
				for s := 0; s < batch; s++ {
					for oc := 0; oc < c.outC; oc += 8 {
						qconvDirect8x16VNNI(acc[oc*cols+s*np:], cols, min(8, c.outC-oc), op.wpk[oc/8*group:], cur[s*op.inLen:(s+1)*op.inLen], op.offs, op.segs)
					}
				}
				col, want := make([]int8, np*kk), make([]int32, np)
				for s := 0; s < batch; s++ {
					im2colQ(col, cur[s*op.inLen:(s+1)*op.inLen], c.inC, c.h, c.w, c.k, op.oh, op.ow, kk)
					for oc := 0; oc < c.outC; oc++ {
						qdotRowRef(want, op.wq[oc*op.kPad:oc*op.kPad+kk], col, np, kk)
						for j, v := range want {
							if got := acc[oc*cols+s*np+j]; got != v {
								t.Fatalf("%+v weights %s inputs %s: sample %d channel %d pixel %d = %d, reference %d", c, wname, xname, s, oc, j, got, v)
							}
						}
					}
				}
				for i, v := range acc[c.outC*cols:] {
					if v != guard {
						t.Fatalf("%+v: the tile stored past its last channel row (guard word %d)", c, i)
					}
				}
			}
		}
	}
}

// convLowering names the lowering Recompile gave a compiled convolution.
func convLowering(op *qOp) string {
	switch {
	case len(op.segs) == 0:
		return "im2colQ+qgemmNT"
	case op.kPad < longK:
		return "qconvDirect4x16AVX2"
	}
	return "qconvDirect8x16VNNI"
}

// TestQConvLowerings logs the dispatch flags this host probed and the
// lowering every convolution of both zoo families compiles to, natively and
// with hasVNNI forced off (`go test -v -run TestQConvLowerings` states which
// tiers a run executed), and holds the choice to qconvDirectFits' line: on a
// VNNI host every second convolution of both families, and the CIFAR-like
// LeNets' 75-tap first layer, runs the VNNI tile; with VNNI off none does,
// and the short-K layers keep the AVX2 tile either way.
func TestQConvLowerings(t *testing.T) {
	t.Logf("hasAVX2=%v hasAVX512=%v hasVNNI=%v", hasAVX2, hasAVX512, hasVNNI)
	saveVNNI := hasVNNI
	defer func() { hasVNNI = saveVNNI }()
	for _, floor := range []string{"native", "no-vnni"} {
		if floor == "no-vnni" {
			hasVNNI = false
		}
		rng := rand.New(rand.NewSource(2902))
		for _, shape := range [][]int{{1, 28, 28}, {3, 32, 32}} {
			for _, net := range familyForTest(shape, rng) {
				_, qn := quantizeForTest(t, net, randBatch(rng, 4, shape))
				conv := 0
				for i := range qn.ops {
					op := &qn.ops[i]
					if op.kind != qConv {
						continue
					}
					conv++
					got := convLowering(op)
					t.Logf("%s: %s %v conv%d %dx%d k=%d kPad=%d ow=%d: %s", floor, net.Name, shape, conv, op.inC, op.outC, op.k, op.kPad, op.ow, got)
					want := "im2colQ+qgemmNT"
					switch {
					case op.kPad < longK && op.ow >= 8 && hasAVX2:
						want = "qconvDirect4x16AVX2"
					case op.kPad >= longK && op.ow >= 8 && hasVNNI:
						want = "qconvDirect8x16VNNI"
					}
					if got != want {
						t.Errorf("%s: %s %v conv%d lowers through %s, want %s", floor, net.Name, shape, conv, got, want)
					}
					if conv == 2 && hasVNNI && !strings.HasPrefix(net.Name, "mobile") && got != "qconvDirect8x16VNNI" {
						t.Errorf("%s: %s %v: a second convolution off the VNNI tile", floor, net.Name, shape)
					}
				}
			}
		}
	}
}

// TestQuantizedColScratchPinned pins each MNIST arm's compiled per-sample
// col scratch natively and with hasVNNI forced off: the im2colQ patch
// matrix counts only for a convolution that lowers through it, a pooled tile
// needs none and the Dense layers their padded rows (lenet-s's 120- and
// 84-wide, lenet-l's 168-wide). On a VNNI host no MNIST arm builds a patch
// matrix; without VNNI the second convolutions do (cnn-s 121 x 80, cnn-l
// 121 x 144, lenet-s 64 x 160, lenet-l 64 x 304).
func TestQuantizedColScratchPinned(t *testing.T) {
	if !hasAVX2 {
		t.Skip("host below the AVX2 floor: every convolution lowers through im2colQ")
	}
	want := map[string][2]int{ // native on a VNNI host, no-vnni
		"cnn-s": {0, 9680}, "cnn-l": {0, 17424}, "lenet-s": {128, 10240},
		"lenet-l": {176, 19456}, "mlp-s": {0, 0}, "mlp-l": {0, 0},
	}
	saveVNNI := hasVNNI
	defer func() { hasVNNI = saveVNNI }()
	for f, floor := range []string{"native", "no-vnni"} {
		if f == 1 {
			hasVNNI = false
		} else if !hasVNNI {
			continue
		}
		rng := rand.New(rand.NewSource(2903))
		shape := []int{1, 28, 28}
		for _, net := range familyForTest(shape, rng) {
			_, qn := quantizeForTest(t, net, randBatch(rng, 4, shape))
			if got := qn.maxCol; got != want[net.Name][f] {
				t.Errorf("%s: %s compiles %d col bytes a sample, want %d", floor, net.Name, got, want[net.Name][f])
			}
		}
	}
}

// TestMaxPoolAccAVX2MatchesGo calls the accumulator max-pool kernel itself
// against maxPoolAcc on even and odd sides (the dropped last row and column),
// output rows of every width the eight-, four- and one-output steps split
// differently (0..17), one and several images at a gap between output
// images, int32 extremes in every lane (the bias add wraps as Go's does), and
// words around every output image that must survive.
func TestMaxPoolAccAVX2MatchesGo(t *testing.T) {
	if !hasAVX2 {
		t.Skip("host below the AVX2 floor: maxPoolAccSIMD runs maxPoolAcc itself")
	}
	rng := rand.New(rand.NewSource(2601))
	const guard = 0x5a5a5a5a
	for h := 1; h <= 9; h++ {
		for w := 1; w <= 35; w++ {
			for _, imgs := range []int{1, 3} {
				src := make([]int32, imgs*h*w)
				for i := range src {
					switch rng.Intn(4) {
					case 0:
						src[i] = math.MaxInt32
					case 1:
						src[i] = math.MinInt32
					default:
						src[i] = int32(rng.Uint32())
					}
				}
				bias := int32(rng.Uint32())
				ld := (h/2)*(w/2) + rng.Intn(3)
				want := make([]int32, imgs*ld+8)
				got := make([]int32, len(want))
				for i := range want {
					want[i], got[i] = guard, guard
				}
				maxPoolAcc(want, src, imgs, h, w, ld, bias)
				maxPoolAccAVX2(got, src, imgs, h, w, ld, bias)
				for i, v := range want {
					if got[i] != v {
						t.Fatalf("%d images of %dx%d at stride %d: word %d = %d, maxPoolAcc %d", imgs, h, w, ld, i, got[i], v)
					}
				}
			}
		}
	}
}

// TestQuantizeActsAVX2MatchesScalar calls the input quantizer kernel itself
// against quantizeActs on every length across the four-lane step and the
// one-lane tail, over the rounding and clamp edges, the specials and random
// bit patterns, at unit and random scales.
func TestQuantizeActsAVX2MatchesScalar(t *testing.T) {
	if !hasAVX2 {
		t.Skip("host below the AVX2 floor: quantizeActsSIMD runs quantizeActs itself")
	}
	rng := rand.New(rand.NewSource(2602))
	edges := quantizeActsEdges()
	for n := 0; n <= 19; n++ {
		for iter := 0; iter < 50; iter++ {
			src := make([]float64, n)
			for i := range src {
				if rng.Intn(2) == 0 {
					src[i] = edges[rng.Intn(len(edges))]
				} else {
					src[i] = math.Float64frombits(rng.Uint64())
				}
			}
			scale := 1.0
			if iter%2 == 1 {
				scale = math.Abs(math.Float64frombits(rng.Uint64()))
			}
			checkQuantizeActs(t, quantizeActsAVX2, src, scale)
		}
	}
}
