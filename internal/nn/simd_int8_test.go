package nn

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// Platform-independent pinning of the INT8 kernel layer: the requantization
// golden vectors below are the spec (DESIGN.md §9) — every tier funnels
// through the same scalar requantize, and qdot2SIMD (whatever tier is
// active) must reproduce qdotRowRef's int32 wraparound bits exactly.

func TestQuantMultiplierGolden(t *testing.T) {
	cases := []struct {
		M     float64
		m     int32
		shift int
	}{
		{0, 0, 0},
		{1, 1 << 30, 30},
		{0.5, 1 << 30, 31},
		{0.25, 1 << 30, 32},
		{2, 1 << 30, 29},
		{0.75, 3 << 29, 31},
		{1.0 / 3, 1431655765, 32},
		// frac rounds up to exactly 1.0: must renormalize, not overflow.
		{math.Nextafter(1, 0), 1 << 30, 30},
		// Degenerate huge ratio: negative shift (left-shift requant path).
		{float64(uint64(1) << 33), 1 << 30, -3},
	}
	for _, c := range cases {
		m, shift := quantMultiplier(c.M)
		if m != c.m || shift != c.shift {
			t.Errorf("quantMultiplier(%g) = (%d, %d), want (%d, %d)", c.M, m, shift, c.m, c.shift)
		}
	}
	// Normalization invariant: m in [2^30, 2^31) for any positive M.
	for _, M := range []float64{1e-9, 0.1, 0.9, 1.1, 3.7, 126.99, 1e9} {
		m, _ := quantMultiplier(M)
		if m < 1<<30 || int64(m) >= 1<<31 {
			t.Errorf("quantMultiplier(%g) multiplier %d outside [2^30, 2^31)", M, m)
		}
	}
}

func TestRequantizeGolden(t *testing.T) {
	mHalf, sHalf := quantMultiplier(0.5) // (2^30, 31)
	mOne, sOne := quantMultiplier(1)     // (2^30, 30)
	cases := []struct {
		name   string
		acc, m int32
		shift  int
		want   int8
	}{
		{"exact", 2, mHalf, sHalf, 1},
		{"tie-positive-rounds-up", 1, mHalf, sHalf, 1},  // +0.5 -> 1
		{"tie-negative-rounds-up", -1, mHalf, sHalf, 0}, // -0.5 -> 0
		{"tie-positive-odd", 3, mHalf, sHalf, 2},        // +1.5 -> 2
		{"tie-negative-odd", -3, mHalf, sHalf, -1},      // -1.5 -> -1
		{"identity", 100, mOne, sOne, 100},
		{"saturate-positive", 1000, mOne, sOne, 127},
		{"saturate-negative", -1000, mOne, sOne, -127},
		{"zero-multiplier", 12345, 0, 0, 0},
		{"negative-shift-saturates", 1, 1 << 30, -2, 127},
		{"negative-shift-saturates-neg", -1, 1 << 30, -2, -127},
	}
	for _, c := range cases {
		if got := requantize(c.acc, c.m, c.shift); got != c.want {
			t.Errorf("%s: requantize(%d, %d, %d) = %d, want %d", c.name, c.acc, c.m, c.shift, got, c.want)
		}
	}
	// Symmetric clamp: no input reaches -128.
	for acc := int32(-100000); acc <= 100000; acc += 37 {
		if got := requantize(acc, mOne, sOne); got < -127 {
			t.Fatalf("requantize(%d) = %d breaches the symmetric clamp", acc, got)
		}
	}
}

// TestRequantizeRowMatchesSpec pins the hoisted row helpers against the
// scalar spec: requantizeRow / requantizeRowPerCol must produce exactly
// max(requantize(acc+bias, m, shift), lo) for every element — including the
// degenerate shift <= 0 path and both clamp bounds (lo = -127 plain, lo = 0
// fused ReLU, which is exact because relu ∘ clamp == clamp-to-[0,127]).
func TestRequantizeRowMatchesSpec(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for iter := 0; iter < 300; iter++ {
		n := 1 + rng.Intn(40)
		m := int32(1<<30 + rng.Intn(1<<30)) // quantMultiplier range [2^30, 2^31)
		shift := rng.Intn(40) - 3           // includes the shift <= 0 cold path
		bias := make([]int32, n)
		acc := make([]int32, n)
		for j := range acc {
			acc[j] = int32(rng.Uint32()) % 2_000_000
			bias[j] = int32(rng.Intn(1<<20) - 1<<19)
		}
		for _, lo := range []int8{-127, 0} {
			got := make([]int8, n)
			requantizeRow(got, acc, bias[0], m, shift, lo)
			for j, v := range acc {
				if want := max(requantize(v+bias[0], m, shift), lo); got[j] != want {
					t.Fatalf("requantizeRow(m=%d shift=%d lo=%d)[%d]: %d != spec %d", m, shift, lo, j, got[j], want)
				}
			}
			requantizeRowPerCol(got, acc, bias, m, shift, lo)
			for j, v := range acc {
				if want := max(requantize(v+bias[j], m, shift), lo); got[j] != want {
					t.Fatalf("requantizeRowPerCol(m=%d shift=%d lo=%d)[%d]: %d != spec %d", m, shift, lo, j, got[j], want)
				}
			}
		}
	}
}

func TestQuantizeActsSpecials(t *testing.T) {
	src := []float64{
		0, 1, -1, 0.5, -0.5, 1.5, -1.5, // ties: round-half-away-from-zero
		math.NaN(), math.Inf(1), math.Inf(-1),
		200, -200, 126.4, 127.5,
	}
	dst := make([]int8, len(src))
	quantizeActs(dst, src, 1)
	want := []int8{0, 1, -1, 1, -1, 2, -2, 0, 127, -127, 127, -127, 126, 127}
	for i, w := range want {
		if dst[i] != w {
			t.Errorf("quantizeActs[%d] (src %g) = %d, want %d", i, src[i], dst[i], w)
		}
	}
}

func TestQuantizeWeightsRoundTripsOracle(t *testing.T) {
	// ApplyTo must replay an independent fake-quant reference bit for bit —
	// the boundary that keeps the q8 zoo arms and the INT8 installs
	// byte-identical to the committed fake-quant results. Per tensor
	// s = maxAbs/127 and v becomes float64(int64(math.Round(v/s)))*s; a tensor
	// with maxAbs == 0 is left alone (the bias tensors, and the zeroed layer).
	// The integer step makes a small negative weight +0, where
	// math.Round(v/s)*s gives -0: the planted -1e-9 pins that rule.
	rng := rand.New(rand.NewSource(7))
	net := BuildMLP("m", []int{16}, 12, 8, 4, rng)
	net.Layers[1].Params()[0].Data[0] = -1e-9
	zeroed := BuildMLP("z", []int{16}, 12, 8, 4, rng)
	for _, p := range zeroed.Layers[1].Params() {
		for i := range p.Data {
			p.Data[i] = 0
		}
	}
	for _, n := range []*Network{net, zeroed} {
		want := paramsOf(clone(t, n))
		for _, p := range want {
			maxAbs := 0.0
			for _, v := range p.Data {
				maxAbs = math.Max(maxAbs, math.Abs(v))
			}
			if maxAbs == 0 {
				continue
			}
			s := maxAbs / 127
			for j, v := range p.Data {
				p.Data[j] = float64(int64(math.Round(v/s))) * s
			}
		}
		shared := clone(t, n)
		qw := QuantizeWeights(shared)
		if err := qw.ApplyTo(shared); err != nil {
			t.Fatal(err)
		}
		got := paramsOf(shared)
		for i := range want {
			for j := range want[i].Data {
				if math.Float64bits(want[i].Data[j]) != math.Float64bits(got[i].Data[j]) {
					t.Fatalf("%s tensor %d value %d: ApplyTo %v != reference %v", n.Name, i, j, got[i].Data[j], want[i].Data[j])
				}
			}
		}
		if v := got[0].Data[0]; n == net && (v != 0 || math.Signbit(v)) {
			t.Fatalf("planted -1e-9 weight dequantized to %v, want +0", v)
		}
		size := int64(0) // one byte a value plus one float64 scale a tensor
		for _, qt := range qw.Tensors {
			size += int64(len(qt.Data)) + 8
		}
		if size >= n.NumParams()*8/4 {
			t.Fatalf("int8 size %d is not < 1/4 of the float64 size %d", size, n.NumParams()*8)
		}
	}
}

func clone(t *testing.T, n *Network) *Network {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	c := BuildMLP(n.Name, n.InShape(), 12, 8, 4, rng)
	src, dst := paramsOf(n), paramsOf(c)
	for i := range src {
		copy(dst[i].Data, src[i].Data)
	}
	return c
}

func paramsOf(n *Network) []*Tensor {
	var ps []*Tensor
	for _, l := range n.Layers {
		ps = append(ps, l.Params()...)
	}
	return ps
}

func TestIm2colQMatchesFloatLayout(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, c := range []struct{ inC, h, w, kh int }{
		{1, 8, 8, 3}, {3, 10, 9, 3}, {2, 9, 9, 5}, {4, 7, 6, 2}, {1, 5, 5, 1},
	} {
		oh, ow := c.h-c.kh+1, c.w-c.kh+1
		src8 := randInt8(rng, c.inC*c.h*c.w)
		srcF := make([]float64, len(src8))
		for i, v := range src8 {
			srcF[i] = float64(v)
		}
		kk := c.inC * c.kh * c.kh
		dst8 := make([]int8, oh*ow*kk)
		dstF := make([]float64, oh*ow*kk)
		im2colQ(dst8, src8, c.inC, c.h, c.w, c.kh, oh, ow, kk)
		im2col(dstF, srcF, c.inC, c.h, c.w, c.kh, oh, ow)
		for i := range dst8 {
			if float64(dst8[i]) != dstF[i] {
				t.Fatalf("%+v: im2colQ[%d] = %d, float im2col has %g", c, i, dst8[i], dstF[i])
			}
		}
		// Padded stride: every patch must land at p*ld with the pad bytes
		// untouched (the engine relies on exactly this to skip re-zeroing).
		ld := padTo16(kk)
		pad := make([]int8, oh*ow*ld)
		for i := range pad {
			pad[i] = -86 // sentinel
		}
		im2colQ(pad, src8, c.inC, c.h, c.w, c.kh, oh, ow, ld)
		for p := 0; p < oh*ow; p++ {
			for j := 0; j < kk; j++ {
				if pad[p*ld+j] != dst8[p*kk+j] {
					t.Fatalf("%+v: padded im2colQ patch %d elem %d = %d, want %d", c, p, j, pad[p*ld+j], dst8[p*kk+j])
				}
			}
			for j := kk; j < ld; j++ {
				if pad[p*ld+j] != -86 {
					t.Fatalf("%+v: padded im2colQ wrote pad byte %d of patch %d", c, j, p)
				}
			}
		}
	}
}

// im2col lowers one CHW sample to its float patch matrix, the layout im2colQ
// reproduces in int8 (without the pad): dst[p*kk+c] = the c-th element of
// output pixel p's receptive field, p row-major over the output (y, then x)
// and c in (ic, ky, kx) order. dst must have oh*ow*inC*kh*kh elements.
func im2col(dst, src []float64, inC, h, w, kh, oh, ow int) {
	di := 0
	for y := 0; y < oh; y++ {
		for x := 0; x < ow; x++ {
			for ic := 0; ic < inC; ic++ {
				for ky := 0; ky < kh; ky++ {
					srow := src[(ic*h+y+ky)*w+x : (ic*h+y+ky)*w+x+kh]
					for kx := 0; kx < kh; kx++ {
						dst[di] = srow[kx]
						di++
					}
				}
			}
		}
	}
}

// qdot2Aliased runs qdot2SIMD on one row passed as both rows of the pair —
// qgemmNT's odd last row — and requires qdotRowRef's sums.
func qdot2Aliased(t *testing.T, what string, a, b []int8, n, k int) {
	t.Helper()
	want, got := make([]int32, n), make([]int32, n)
	qdotRowRef(want, a, b, n, k)
	qdot2SIMD(got, got, a, a, b, n, k)
	for j := range want {
		if got[j] != want[j] {
			t.Fatalf("%s n=%d k=%d row %d: aliased qdot2SIMD %d != ref %d", what, n, k, j, got[j], want[j])
		}
	}
}

// TestQdotRowSIMDMatchesRef pins a single INT8 row dot — qdot2SIMD on one
// row passed as both rows of the pair (whatever tier is active), the form
// qgemmNT runs an odd last row in — against the scalar reference on every
// tail length (the vector loops engage at k = 16 and 64, so 0..70 crosses
// every boundary), with ±127 saturation patterns mixed into the operands.
func TestQdotRowSIMDMatchesRef(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for k := 0; k <= 70; k++ {
		for _, n := range []int{1, 2, 3, 5, 8} {
			a := randInt8(rng, k)
			b := randInt8(rng, n*k)
			// Saturation extremes in the first row.
			for p := 0; p < k; p++ {
				if p%2 == 0 {
					b[p] = 127
				} else {
					b[p] = -127
				}
			}
			qdot2Aliased(t, "sweep", a, b, n, k)
		}
	}
}

// TestQdotRowSIMDSaturationExtremes drives maximum-magnitude accumulations
// (all ±127) through the single-row pair across the vector-width boundaries.
func TestQdotRowSIMDSaturationExtremes(t *testing.T) {
	for _, k := range []int{1, 15, 16, 17, 31, 32, 33, 64, 100} {
		for _, sign := range []int8{127, -127} {
			a := make([]int8, k)
			b := make([]int8, 2*k)
			for i := range a {
				a[i] = 127
			}
			for i := range b {
				b[i] = sign
			}
			want := make([]int32, 2)
			qdotRowRef(want, a, b, 2, k)
			if want[0] != int32(k)*127*int32(sign) {
				t.Fatalf("k=%d sign=%d: reference %d is not k*127*sign", k, sign, want[0])
			}
			qdot2Aliased(t, "saturation", a, b, 2, k)
		}
	}
}

// TestQdotRowSIMDFuzzShapes is the fuzz-style random-shape equivalence run:
// 300 random (n, k) shapes through the single-row pair against the naive
// int32 reference.
func TestQdotRowSIMDFuzzShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(1234))
	for iter := 0; iter < 300; iter++ {
		n := 1 + rng.Intn(12)
		k := rng.Intn(200)
		qdot2Aliased(t, "random", randInt8(rng, k), randInt8(rng, n*k), n, k)
	}
}

// TestQdot2SIMDMatchesRef pins the dual-row kernel (whatever tier is active)
// against two reference passes: shared-b amortization regroups the
// wraparound sums but cannot change them. Covers the asm fast path (k a
// multiple of 16), the fallback path (odd k), and the qgemmNT driver that
// pairs rows over it, with ±127 extremes mixed in. The single-row cases —
// one row passed as both rows of the pair — are the TestQdotRowSIMD* tests.
func TestQdot2SIMDMatchesRef(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for _, k := range []int{0, 1, 7, 15, 16, 17, 31, 32, 33, 48, 100, 160} {
		for _, n := range []int{1, 2, 5} {
			a0 := randInt8(rng, k)
			a1 := randInt8(rng, k)
			b := randInt8(rng, n*k)
			for p := 0; p < k; p++ { // saturation extremes in a1
				if p%2 == 0 {
					a1[p] = 127
				} else {
					a1[p] = -127
				}
			}
			want0, want1 := make([]int32, n), make([]int32, n)
			qdotRowRef(want0, a0, b, n, k)
			qdotRowRef(want1, a1, b, n, k)
			got0, got1 := make([]int32, n), make([]int32, n)
			qdot2SIMD(got0, got1, a0, a1, b, n, k)
			for j := 0; j < n; j++ {
				if got0[j] != want0[j] || got1[j] != want1[j] {
					t.Fatalf("n=%d k=%d row %d: qdot2SIMD (%d, %d) != ref (%d, %d)", n, k, j, got0[j], got1[j], want0[j], want1[j])
				}
			}
		}
	}
	// qgemmNT: odd and even m, against a row-by-row reference.
	for _, m := range []int{1, 2, 3, 8, 9} {
		const n, k = 6, 48
		a := randInt8(rng, m*k)
		b := randInt8(rng, n*k)
		want := make([]int32, m*n)
		for i := 0; i < m; i++ {
			qdotRowRef(want[i*n:(i+1)*n], a[i*k:(i+1)*k], b, n, k)
		}
		got := make([]int32, m*n)
		qgemmNT(got, a, b, m, n, k)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("qgemmNT m=%d elem %d: %d != %d", m, i, got[i], want[i])
			}
		}
	}
}

// TestQgemmNTFuzzOracle is the batch-tiled driver's fuzz gate: random
// (M, N, K) shapes — including empty batches on both axes and K both at and
// off the engine's padTo16 widths — against a retained row-by-row scalar
// oracle. Engine-shaped inputs carry explicit zero-padded tails (real kk
// columns padded with zeros to padTo16(kk), exactly what im2colQ +
// quantizeWeights produce) and ±127 saturation rows, so the register tile's
// column blocking, the odd-row fallback, and every dispatch tier below it
// are all exercised on the layouts the quantized network actually feeds in.
func TestQgemmNTFuzzOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(4242))

	// Empty batches first: m == 0 and n == 0 must be exact no-ops.
	qgemmNT(nil, nil, randInt8(rng, 4*32), 0, 4, 32)
	qgemmNT([]int32{}, randInt8(rng, 3*32), nil, 3, 0, 32)

	oracle := func(out []int32, a, b []int8, m, n, k int) {
		for i := 0; i < m; i++ {
			qdotRowRef(out[i*n:(i+1)*n], a[i*k:(i+1)*k], b, n, k)
		}
	}
	for iter := 0; iter < 250; iter++ {
		m := rng.Intn(10) // includes the empty batch
		n := rng.Intn(12) // includes zero output columns
		var k, kk int
		if iter%2 == 0 {
			// Engine-shaped: kk real columns zero-padded to the next
			// 16-multiple, the layout the asm fast path runs on.
			kk = 1 + rng.Intn(150)
			k = padTo16(kk)
		} else {
			// Arbitrary K, exercising the k%16 != 0 fallback path too.
			kk = rng.Intn(180)
			k = kk
		}
		a := randInt8(rng, m*k)
		b := randInt8(rng, n*k)
		for i := 0; i < m; i++ { // zero the pad tail, like im2colQ's caller
			for j := kk; j < k; j++ {
				a[i*k+j] = 0
			}
		}
		for i := 0; i < n; i++ {
			for j := kk; j < k; j++ {
				b[i*k+j] = 0
			}
		}
		if m > 0 { // ±127 extremes in the last a row (odd-row fallback when m is odd)
			for j := 0; j < kk; j++ {
				if j%2 == 0 {
					a[(m-1)*k+j] = 127
				} else {
					a[(m-1)*k+j] = -127
				}
			}
		}
		if n > 0 {
			for j := 0; j < kk; j++ {
				b[j] = 127
			}
		}
		want := make([]int32, m*n)
		got := make([]int32, m*n)
		oracle(want, a, b, m, n, k)
		qgemmNT(got, a, b, m, n, k)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("iter %d m=%d n=%d k=%d (kk=%d) elem %d: qgemmNT %d != oracle %d",
					iter, m, n, k, kk, i, got[i], want[i])
			}
		}
	}
}

func randInt8(rng *rand.Rand, n int) []int8 {
	s := make([]int8, n)
	for i := range s {
		s[i] = int8(rng.Intn(255) - 127) // [-127, 127]
	}
	return s
}

// quantizeActsEdges are the inputs where a rounding or clamp rule shows: the
// ties on both sides of zero and of the clamp, the largest double below a
// half (floor(x+0.5) rounds it to 1), ±0, ±Inf, quiet and signalling NaN
// payloads of both signs, subnormals, and 2^52+1 (an odd integer any
// add-and-subtract rounding trick moves).
func quantizeActsEdges() []float64 {
	return []float64{
		0.5, -0.5, 1.5, -1.5, 126.5, -126.5, 127.5, -127.5, 127.49999999999999, 128,
		0.49999999999999994, -0.49999999999999994,
		0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1),
		math.NaN(), math.Float64frombits(0x7ff0000000000001), math.Float64frombits(0xfff8000000000123),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 0x1p-1030,
		1<<52 + 1, -(1<<52 + 1), math.MaxFloat64, -math.MaxFloat64,
	}
}

// checkQuantizeActs holds kern to quantizeActs' bytes on src at scale.
func checkQuantizeActs(t *testing.T, kern func(dst []int8, src []float64, scale float64), src []float64, scale float64) {
	t.Helper()
	want := make([]int8, len(src))
	quantizeActs(want, src, scale)
	got := make([]int8, len(src)+1)
	got[len(src)] = 0x5a
	kern(got[:len(src)], src, scale)
	for i, v := range want {
		if got[i] != v {
			t.Fatalf("scale %g: value %d (%g, bits %#x) quantized to %d, quantizeActs says %d", scale, i, src[i], math.Float64bits(src[i]), got[i], v)
		}
	}
	if got[len(src)] != 0x5a {
		t.Fatalf("scale %g: %d values: stored past the last one", scale, len(src))
	}
}

// FuzzQuantizeActs feeds arbitrary float64 bit patterns and positive scales
// to the dispatched input quantizer on every dispatch floor and holds it to
// the scalar quantizeActs.
func FuzzQuantizeActs(f *testing.F) {
	seed := func(scale float64, vals ...float64) {
		b := make([]byte, 8*len(vals))
		for i, v := range vals {
			binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(v))
		}
		f.Add(b, scale)
	}
	seed(1, quantizeActsEdges()...)
	seed(0.5, 0.25, -0.25, 63.25, -63.75, 63.5, 0.24999999999999997)
	seed(math.SmallestNonzeroFloat64, 1e-320, -1e-322, 0x1p-1074)
	seed(1e300, math.MaxFloat64, 1.27e302, -1.275e302, 1e290)
	f.Fuzz(func(t *testing.T, raw []byte, scale float64) {
		scale = math.Abs(scale)
		if !(scale > 0) {
			scale = 1
		}
		src := make([]float64, len(raw)/8)
		for i := range src {
			src[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
		}
		eachDispatchFloor(func(string) { checkQuantizeActs(t, quantizeActsSIMD, src, scale) })
	})
}

// TestPoolCommutesWithRequantize is the lemma that lets a convolution pool
// its int32 accumulators and requantize only the quarter that survives:
// with m > 0 and sums that cannot wrap, requantize(max(a, b)) ==
// max(requantize(a), requantize(b)), clamped at either lower bound. It holds
// the scalar spec, requantizeRowScalar and requantizeRow on every dispatch
// floor (a 256-element row, so the AVX-512 tier takes it natively) to the
// lemma, over shifts on both sides of the shift <= 0 cold path, accumulators
// out to ±maxDotLen·127² and biases out to ±biasQLimit — and to the form
// runConv computes, the bias added to the pooled sums by maxPoolAcc and a
// bias-free requantize after.
func TestPoolCommutesWithRequantize(t *testing.T) {
	rng := rand.New(rand.NewSource(2603))
	const n = 256
	const lim = maxDotLen * 127 * 127
	edges := []int32{lim, -lim, lim - 1, -lim + 1, 0, 1, -1}
	draw := func() int32 {
		if rng.Intn(3) == 0 {
			return edges[rng.Intn(len(edges))]
		}
		return int32(rng.Int63n(2*lim+1) - lim)
	}
	a, b, mx, biased := make([]int32, n), make([]int32, n), make([]int32, n), make([]int32, n)
	ra, rb, rm, rbiased := make([]int8, n), make([]int8, n), make([]int8, n), make([]int8, n)
	for iter := 0; iter < 120; iter++ {
		bias := []int32{biasQLimit, -biasQLimit, int32(rng.Int63n(2*biasQLimit+1) - biasQLimit)}[iter%3]
		m := int32(1<<30 + rng.Intn(1<<30))
		shift := []int{-2, 0, 1 + rng.Intn(61)}[iter/3%3]
		for j := range a {
			a[j], b[j] = draw(), draw()
			mx[j] = max(a[j], b[j])
			biased[j] = mx[j] + bias
		}
		for _, lo := range []int8{-127, 0} {
			spec := func(v int32) int8 { return max(requantize(v+bias, m, shift), lo) }
			for j := range a {
				if got, want := spec(mx[j]), max(spec(a[j]), spec(b[j])); got != want {
					t.Fatalf("spec m=%d shift=%d bias=%d lo=%d: requantize(max(%d, %d)) = %d, max of requantized %d", m, shift, bias, lo, a[j], b[j], got, want)
				}
			}
			eachDispatchFloor(func(floor string) {
				for name, row := range map[string]func(dst []int8, acc []int32, bias, m int32, shift int, lo int8){
					"requantizeRowScalar": requantizeRowScalar, "requantizeRow": requantizeRow,
				} {
					row(ra, a, bias, m, shift, lo)
					row(rb, b, bias, m, shift, lo)
					row(rm, mx, bias, m, shift, lo)
					row(rbiased, biased, 0, m, shift, lo)
					for j := range a {
						if want := max(ra[j], rb[j]); rm[j] != want || rbiased[j] != want || ra[j] != spec(a[j]) {
							t.Fatalf("%s at %s, m=%d shift=%d bias=%d lo=%d, element %d: pooled %d, bias after pooling %d, max of requantized %d", name, floor, m, shift, bias, lo, j, rm[j], rbiased[j], want)
						}
					}
				}
			})
		}
	}
}
