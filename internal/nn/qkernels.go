package nn

import "math"

// Integer kernels for the true-INT8 inference path (see DESIGN.md §9 "INT8
// fast path"). Everything here is exact integer arithmetic: int8 operands,
// int32 accumulation with two's-complement wraparound, and a fixed-point
// requantization whose rounding rule is specified to the bit. Wraparound
// addition is associative and commutative, so the SIMD tiers
// (simd_int8_amd64.s) may regroup lanes freely — and the convolution tiles
// there may regroup taps and skip the patch matrix altogether — and
// still produce the same bits as qdotRowRef over im2colQ on every platform:
// the cross-tier identity the float kernels have to earn by never splitting
// an accumulation, the integer kernels get for free. The only rounding in
// the whole path lives in quantizeActs, requantize and quantMultiplier
// below: the scalar loops are the spec, and the vector tiers of
// quantizeActs and requantizeRow replay their expressions lane for lane.
// maxPoolAcc, the max-pool a convolution runs on its accumulators before it
// requantizes, is exact on every tier (max is).

// qdotRowRef is the reference integer dot-product kernel:
//
//	out[j] = sum_{p<k} int32(a[p]) * int32(b[j*k+p])   for j < n
//
// with int32 wraparound accumulation. a has k values; b holds n rows of k.
// The convolution uses a = one output channel's int8 weights and b = the
// im2colQ patch matrix; Dense uses a = the input activations and b = the
// weight rows. It is the spec of the dual-row kernels qdot2SIMD dispatches
// (AVX2 and VNNI on amd64, NEON on arm64) and what runs everywhere else
// (amd64 hosts below the AVX2 floor included); simd_int8_test.go pins all
// tiers to these bits.
func qdotRowRef(out []int32, a, b []int8, n, k int) {
	for j := 0; j < n; j++ {
		br := b[j*k : j*k+k]
		var s int32
		for p, av := range a[:k] {
			s += int32(av) * int32(br[p])
		}
		out[j] = s
	}
}

// quantMultiplier decomposes a real requantization ratio M = (sx*sw)/sy into
// a fixed-point multiplier: M ≈ m * 2^-shift with m an int32 normalized into
// [2^30, 2^31) (31 fractional bits of precision regardless of magnitude).
// M = 0 returns (0, 0), the all-zero-tensor marker. M must be finite and
// non-negative — scales are maxAbs/127 by construction.
func quantMultiplier(M float64) (m int32, shift int) {
	if M == 0 {
		return 0, 0
	}
	frac, exp := math.Frexp(M) // M = frac * 2^exp, frac in [0.5, 1)
	q := int64(math.Round(frac * (1 << 31)))
	if q == 1<<31 { // frac rounded up to exactly 1.0
		q >>= 1
		exp++
	}
	return int32(q), 31 - exp
}

// requantize maps an int32 accumulator back to int8: round(acc * m * 2^-shift)
// clamped to [-127, 127]. The rounding rule, pinned by golden vectors in
// simd_int8_test.go, is round-to-nearest with ties toward +infinity —
// (p + 2^(shift-1)) >> shift on the int64 product, the arithmetic shift
// flooring negative values, so e.g. -0.5 rounds to 0 and +0.5 rounds to 1.
// A non-positive shift (ratio >= 2^31, only reachable with degenerate
// scales) clamps the product first so the left shift cannot overflow.
func requantize(acc, m int32, shift int) int8 {
	p := int64(acc) * int64(m)
	var r int64
	if shift > 0 {
		r = (p + 1<<(shift-1)) >> shift
	} else {
		if p > 127 {
			p = 127
		}
		if p < -127 {
			p = -127
		}
		r = p << -shift
	}
	if r > 127 {
		r = 127
	}
	if r < -127 {
		r = -127
	}
	return int8(r)
}

// requantizeRowScalar is the batch-path form of requantize: one bias for the
// whole row (a conv output-channel row) with the shift>0 branch and the
// rounding constant hoisted out of the element loop. lo is the lower clamp
// bound: -127 normally, 0 when the following ReLU has been fused into the
// store — exact, because relu(clamp(r, -127, 127)) == clamp(r, 0, 127). Each
// element computes the identical (p + 2^(shift-1)) >> shift expression as
// requantize, so the single-rounding-site contract pinned by the golden
// vectors holds; the requantizeRow-vs-spec test replays it against
// requantize + max. The hot path dispatches through requantizeRow, which on
// amd64 routes full 8-lane blocks to the AVX-512 kernel when available.
func requantizeRowScalar(dst []int8, acc []int32, bias, m int32, shift int, lo int8) {
	dst = dst[:len(acc)]
	if shift <= 0 { // degenerate-scale cold path: keep the spec's clamp order
		for j, v := range acc {
			dst[j] = max(requantize(v+bias, m, shift), lo)
		}
		return
	}
	rnd := int64(1) << (shift - 1)
	l, mm := int64(lo), int64(m)
	for j, v := range acc {
		r := (int64(v+bias)*mm + rnd) >> shift
		dst[j] = int8(min(max(r, l), 127))
	}
}

// quantizeActs quantizes a float activation slice symmetrically at the given
// scale: q = round(v/scale) clamped to [-127, 127], round-half-away-from-zero
// (math.Round, the weight rule). NaN quantizes to 0 and ±Inf saturate to
// ±127 — int8(NaN) is unspecified in Go, so the NaN branch is explicit; the
// output is always a well-formed int8 whatever the floats contain.
// Activation scales are calibrated with a zero→one fallback, so scale > 0.
// It is the spec and the portable tier of quantizeActsSIMD.
func quantizeActs(dst []int8, src []float64, scale float64) {
	for i, v := range src {
		q := math.Round(v / scale)
		switch {
		case math.IsNaN(q):
			dst[i] = 0
		case q > 127:
			dst[i] = 127
		case q < -127:
			dst[i] = -127
		default:
			dst[i] = int8(q)
		}
	}
}

// maxPoolAcc is the 2x2/stride-2 max-pool of one channel's int32
// accumulators, plus the channel's bias: src holds imgs images of h x w back
// to back, and image s's (h/2) x (w/2) pooled sums land at dst[s*ld:], an
// odd last row or column dropped as MaxPool2D drops it. runConv passes
// ld = the per-sample activation length, so every channel's call fills its
// slots of the [s][oc][j] layout and one bias-free requantizeRow then maps
// the whole chunk. Pooling the accumulators and requantizing the surviving
// quarter is bit-identical to requantizing every pixel and pooling the int8s:
// requantize is monotone non-decreasing in its accumulator (m > 0), acc +
// bias cannot wrap (Recompile's maxDotLen bound), and max commutes with any
// monotone map. It is the spec and the portable tier of maxPoolAccSIMD.
func maxPoolAcc(dst, src []int32, imgs, h, w, ld int, bias int32) {
	oh, ow := h/2, w/2
	for s := 0; s < imgs; s++ {
		img := src[s*h*w : (s+1)*h*w]
		out := dst[s*ld : s*ld+oh*ow]
		for y := 0; y < oh; y++ {
			r0, r1 := img[2*y*w:(2*y+1)*w], img[(2*y+1)*w:(2*y+2)*w]
			orow := out[y*ow : (y+1)*ow]
			for x := range orow {
				orow[x] = max(r0[2*x], r0[2*x+1], r1[2*x], r1[2*x+1]) + bias
			}
		}
	}
}

// padTo16 rounds a K dimension up to the kernel vector width. The engine
// zero-pads every weight row to this stride so the SIMD dots never run a
// scalar tail; the padded products are 0*garbage = 0 and int32 wraparound
// addition of zeros is exact, so padding cannot change a single bit.
func padTo16(k int) int { return (k + 15) &^ 15 }

// qgemmNT drives the integer row-dot kernels over an m-by-k int8 matrix a
// (rows at stride k) against n rows of b: out[i*n+j] = dot(a row i, b row
// j). Pairs of a rows go through qdot2SIMD, which shares each b load across
// both accumulators; an odd last row goes through it as a pair with itself,
// stored twice with the same sums. A convolution
// that is not on the direct tile calls this with a = padded weight rows and
// b = the chunk's im2colQ patch matrix; Dense with a = the chunk's padded
// activation rows and b = the padded weight rows.
func qgemmNT(out []int32, a, b []int8, m, n, k int) {
	i := 0
	for ; i+2 <= m; i += 2 {
		qdot2SIMD(out[i*n:(i+1)*n], out[(i+1)*n:(i+2)*n], a[i*k:(i+1)*k], a[(i+1)*k:(i+2)*k], b, n, k)
	}
	if i < m {
		row, ar := out[i*n:(i+1)*n], a[i*k:(i+1)*k]
		qdot2SIMD(row, row, ar, ar, b, n, k)
	}
}

// im2colQ lowers one int8 CHW sample to the patch matrix the quantized
// convolution's GEMM lowering consumes — every convolution the host has no
// direct tile for — and the scalar oracle's: dst[p*ld+c] = the c-th element
// of output pixel p's receptive field, p walking output pixels row-major (y,
// then x) and c walking the patch in (ic, ky, kx) order — the float im2col's
// exact patch layout, at a caller-chosen row stride ld >= inC*kh*kh (the engine passes
// the 16-padded stride; bytes between the patch and the stride are left
// untouched, which is safe because the matching weight pad is zero). dst
// must have oh*ow*ld elements. The ubiquitous 3x3 and 5x5 kernels get
// unrolled bodies; other sizes copy each kh-length run.
func im2colQ(dst, src []int8, inC, h, w, kh, oh, ow, ld int) {
	switch kh {
	case 3:
		for y := 0; y < oh; y++ {
			di := y * ow * ld
			for x := 0; x < ow; x++ {
				for ic := 0; ic < inC; ic++ {
					base := (ic*h+y)*w + x
					r0 := src[base : base+3]
					r1 := src[base+w : base+w+3]
					r2 := src[base+2*w : base+2*w+3]
					d := dst[di+ic*9 : di+ic*9+9]
					d[0], d[1], d[2] = r0[0], r0[1], r0[2]
					d[3], d[4], d[5] = r1[0], r1[1], r1[2]
					d[6], d[7], d[8] = r2[0], r2[1], r2[2]
				}
				di += ld
			}
		}
	case 5:
		for y := 0; y < oh; y++ {
			di := y * ow * ld
			for x := 0; x < ow; x++ {
				for ic := 0; ic < inC; ic++ {
					base := (ic*h+y)*w + x
					d := dst[di+ic*25 : di+ic*25+25]
					for r := 0; r < 5; r++ {
						s := src[base+r*w : base+r*w+5]
						d5 := d[r*5 : r*5+5]
						d5[0], d5[1], d5[2], d5[3], d5[4] = s[0], s[1], s[2], s[3], s[4]
					}
				}
				di += ld
			}
		}
	default:
		for y := 0; y < oh; y++ {
			di := y * ow * ld
			for x := 0; x < ow; x++ {
				c := 0
				for ic := 0; ic < inC; ic++ {
					for ky := 0; ky < kh; ky++ {
						copy(dst[di+c:di+c+kh], src[(ic*h+y+ky)*w+x:(ic*h+y+ky)*w+x+kh])
						c += kh
					}
				}
				di += ld
			}
		}
	}
}
