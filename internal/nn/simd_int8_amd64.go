//go:build amd64

package nn

// Integer SIMD kernels for the INT8 inference path (simd_int8_amd64.s).
// Every tier computes the same int32 wraparound sums as qdotRowRef; because
// two's-complement addition is associative, the lane regrouping the vector
// reductions perform cannot change the resulting bits, so AVX2 == VNNI ==
// generic on every input (pinned exhaustively by simd_int8_amd64_test.go and
// the qgemm fuzz gate in simd_int8_test.go). The accumulator max-pool is
// exact on every tier too, and the input quantizer and the requantizer replay
// their scalar loops' expressions lane for lane. The floor is AVX2: a host
// without it runs qdotRowRef, maxPoolAcc and quantizeActs, the portable
// references every other architecture's fallback runs too. There is no
// single-row dot kernel: the dual-row kernels take an odd row as a pair with
// itself.

// qgemm2AVX2 is the batch-tiled dual-row kernel: two a rows against the
// same b rows, the columns blocked four at a time into a 2x4 int32 register
// tile of ymm accumulators so the sign-extensions are amortized over eight
// accumulators — 0.375 extends per madd where one row at a time needs 1.5.
// Requires k >= 16 and k % 16 == 0 (no scalar tail) — the dispatcher
// enforces it.
//
//go:noescape
func qgemm2AVX2(out0, out1 []int32, a0, a1, b []int8, n, k int)

// qgemm2VNNI is the AVX-512 VNNI tier: VPDPBUSD retires 64 int8 MACs per
// accumulator per step. Its unsigned-operand requirement is met by flipping
// b with 0x80 and subtracting the precomputed 128*sum(a) compensation at
// store time — exact in the mod-2^32 ring, so still bit-identical. Same k
// preconditions.
//
//go:noescape
func qgemm2VNNI(out0, out1 []int32, a0, a1, b []int8, n, k int)

// requantizeRowAVX512 requantizes 8 accumulators per step: dword add of the
// broadcast bias (int32 wraparound, same as Go), VPMOVSXDQ widen, VPMULDQ
// signed 32x32->64 against the broadcast multiplier, VPADDQ the rounding
// constant, VPSRAQ by shift, VPMAXSQ/VPMINSQ clamp to [lo, 127], VPMOVQB
// narrow. Every lane computes the identical int64 expression as
// requantizeRowScalar's shift>0 path, so the bits cannot differ. Requires
// len(acc) > 0 and len(acc) % 8 == 0 and 0 < shift < 62 — the dispatcher
// enforces both and routes everything else (plus the block tail) to the
// scalar loop.
//
//go:noescape
func requantizeRowAVX512(dst []int8, acc []int32, bias, m int32, shift int, lo int8)

// qconvDirect4x16AVX2 is the short-K convolution tile: four output channels
// by two eight-pixel row segments of int32 sums, the input read where it lies
// through the tables of convDirectTables and the taps taken two at a time
// through VPMADDWD (simd_int8_amd64.s has the lane layout). It computes
// qdotRowRef's wraparound sums over the receptive field regrouped by tap
// pair, hence the same bits.
//
//go:noescape
func qconvDirect4x16AVX2(acc []int32, stride, nch int, wpk []int32, in []int8, offs, segs []int) //lint:allow simdcover register-tiled convolution with no scalar twin; its fallback on every other host is the im2colQ + qgemmNT lowering runConv keeps, and simd_int8_amd64_test.go pins the tile to qdotRowRef over im2colQ patches

// qconvDirect8x16VNNI is the long-K convolution tile: eight output channels
// by two eight-pixel row segments, the same tables as qconvDirect4x16AVX2,
// the taps taken four at a time through VPDPBUSD against sums that start at
// -128*sum(w), the unsigned operand being the input bytes XORed with 0x80
// (simd_int8_amd64.s has the lane layout). Exact mod 2^32, so qdotRowRef's
// bits.
//
//go:noescape
func qconvDirect8x16VNNI(acc []int32, stride, nch int, wpk []int32, in []int8, offs, segs []int) //lint:allow simdcover register-tiled convolution with no scalar twin; its fallback on every other host is the im2colQ + qgemmNT lowering runConv keeps, and simd_int8_amd64_test.go pins the tile to qdotRowRef over im2colQ patches

// maxPoolAccAVX2 is maxPoolAcc eight outputs per step (VPMAXSD across the
// row pair, then across each horizontal pair, then VPADDD the bias;
// simd_int8_amd64.s).
//
//go:noescape
func maxPoolAccAVX2(dst, src []int32, imgs, h, w, ld int, bias int32)

// quantizeActsAVX2 is quantizeActs four lanes per step: the same VDIVPD
// quotient, math.Round as truncation plus an exact half-fraction step, NaN
// to zero, the ±127 clamp (simd_int8_amd64.s).
//
//go:noescape
func quantizeActsAVX2(dst []int8, src []float64, scale float64)

// maxPoolAccSIMD dispatches the accumulator max-pool.
func maxPoolAccSIMD(dst, src []int32, imgs, h, w, ld int, bias int32) {
	if hasAVX2 {
		maxPoolAccAVX2(dst, src, imgs, h, w, ld, bias)
		return
	}
	maxPoolAcc(dst, src, imgs, h, w, ld, bias)
}

// quantizeActsSIMD dispatches the input quantizer; a slice shorter than one
// vector stays on the scalar loop.
func quantizeActsSIMD(dst []int8, src []float64, scale float64) {
	if hasAVX2 && len(src) >= 4 {
		quantizeActsAVX2(dst, src, scale)
		return
	}
	quantizeActs(dst, src, scale)
}

// requantizeRow dispatches the row requantizer: full 8-lane blocks go to the
// AVX-512 kernel when the CPU+OS support it, the shift is in the kernel's
// domain (shift >= 62 only arises from degenerate scale ratios; the scalar
// path keeps the spec's exact semantics there), and the row is long enough
// to amortize the kernel's fixed cost (the per-call zmm state transition
// after VZEROUPPER — measured crossover between 128 and 256 elements on a
// Sapphire Rapids class host; the engine's conv rows span the whole batch,
// 4k+ elements, where the kernel runs ~3.5x the scalar loop). The remainder
// goes to the scalar loop.
func requantizeRow(dst []int8, acc []int32, bias, m int32, shift int, lo int8) {
	if hasAVX512 && shift > 0 && shift < 62 && len(acc) >= 192 {
		n8 := len(acc) &^ 7
		requantizeRowAVX512(dst[:n8], acc[:n8], bias, m, shift, lo)
		if n8 == len(acc) {
			return
		}
		requantizeRowScalar(dst[n8:len(acc)], acc[n8:], bias, m, shift, lo)
		return
	}
	requantizeRowScalar(dst, acc, bias, m, shift, lo)
}

// qdot2SIMD dispatches the batch-tiled dual-row kernel: out0[j] =
// dot(a0, b row j) and out1[j] = dot(a1, b row j). The rows may be one row
// passed twice (out0 == out1, a0 == a1): the kernels only store to their
// output rows, never read them, so that row gets the same sums twice. The asm
// tiers only handle vector-width multiples (the engine pads every weight and
// im2col row to padTo16, so this is the hot case); any other k, and every k
// on a host below the AVX2 floor, falls back to the reference loop. Tier order
// is widest-first: VNNI when the CPU+OS support AVX-512 and k is large
// enough for its 64-byte main loop to engage (below that the zmm
// zeroing/reduce overhead on mostly-empty vectors loses to AVX2 — conv k=16
// layers measured ~1.4x slower on VNNI), then AVX2.
func qdot2SIMD(out0, out1 []int32, a0, a1, b []int8, n, k int) {
	if !hasAVX2 || k < 16 || k%16 != 0 {
		qdotRowRef(out0, a0, b, n, k)
		qdotRowRef(out1, a1, b, n, k)
		return
	}
	if hasVNNI && k >= longK {
		qgemm2VNNI(out0, out1, a0, a1, b, n, k)
		return
	}
	qgemm2AVX2(out0, out1, a0, a1, b, n, k)
}

// qconvDirectFits is the one predicate that takes a convolution off the
// im2colQ + qgemmNT lowering, and kPad alone then names the tile: output rows
// wide enough for an eight-pixel segment, and either rows short enough
// (kPad < longK) that qdot2SIMD would run them on the AVX2 dot kernel — one
// horizontal reduction per output over a patch matrix as costly to build as
// the dots are to run — on the AVX2 pair tile, or longer rows on the VNNI
// quad tile, which reads the input where it lies instead of paying im2colQ to
// feed the VNNI GEMM. A host with AVX2 but no VNNI keeps the GEMM for those.
func qconvDirectFits(kPad, ow int) bool {
	if kPad < longK {
		return hasAVX2 && ow >= 8
	}
	return hasVNNI && ow >= 8
}

// qconvDirectSIMD runs a convolution Recompile prepared for a tile (op.segs,
// op.offs, op.wpk; kPad picks which) over the whole chunk — one kernel call
// per sample per channel group, each walking the sample's whole segment list
// — into the [oc][s*np+j] accumulator block runConv requantizes. The lowering
// is the compile's: the flags it read are not consulted again.
func qconvDirectSIMD(op *qOp, batch int, cur []int8, acc []int32) {
	np := op.oh * op.ow
	cols := batch * np
	if op.kPad >= longK {
		group := 8 + 2*len(op.offs) // eight starting dwords, then eight per tap quad
		for s := 0; s < batch; s++ {
			in := cur[s*op.inLen : (s+1)*op.inLen]
			for oc := 0; oc < op.outC; oc += 8 {
				qconvDirect8x16VNNI(acc[oc*cols+s*np:], cols, min(8, op.outC-oc), op.wpk[oc/8*group:], in, op.offs, op.segs)
			}
		}
		return
	}
	group := 2 * len(op.offs) // four dwords per tap pair
	for s := 0; s < batch; s++ {
		in := cur[s*op.inLen : (s+1)*op.inLen]
		for oc := 0; oc < op.outC; oc += 4 {
			qconvDirect4x16AVX2(acc[oc*cols+s*np:], cols, min(4, op.outC-oc), op.wpk[oc/4*group:], in, op.offs, op.segs)
		}
	}
}
