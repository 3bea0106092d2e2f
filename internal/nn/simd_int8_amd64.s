// Integer SIMD kernels for the INT8 inference path. See simd_int8_amd64.go
// for the dispatch layer and qkernels.go (qdotRowRef) for the reference
// semantics. All accumulation is int32 two's-complement wraparound, which is
// associative — the vector lane regrouping below is therefore bit-identical
// to the scalar reference by construction, with no rounding to pin. The two
// kernels that do round, requantizeRowAVX512 and quantizeActsAVX2, replay
// the scalar loop's expression lane for lane.

#include "textflag.h"

// 0x80 in every byte: XORing an int8 with it adds 128 (mod 256), i.e. maps
// signed [-128,127] onto unsigned [0,255]. The VNNI kernel uses this to feed
// VPDPBUSD's unsigned operand; see qgemm2VNNI below for the compensation.
DATA qflip<>+0(SB)/8, $0x8080808080808080
GLOBL qflip<>(SB), RODATA|NOPTR, $8

// func qgemm2AVX2(out0, out1 []int32, a0, a1, b []int8, n, k int)
//
// Batch-tiled dual-row kernel: two a rows against the same n rows of b, the
// columns blocked 4 at a time into a 2x4 register tile of int32 accumulators
// (Y0..Y7). Per 16-byte k-step the two a rows are sign-extended once (Y8/Y9)
// and each b row once (Y10), giving 6 VPMOVSXBW per 128 MACs where one row at
// a time needs 8 per 64 — 0.375 extends per madd instead of 1.5. int32
// wraparound addition is associative, so this regrouping is bit-identical to
// eight qdotRowRef calls — no accumulation-order contract constrains the
// blocking. The dispatcher guarantees k >= 16 and k % 16 == 0 (the engine
// pads every weight and im2col row to padTo16), so there is no scalar tail;
// a trailing n % 4 column loop reuses the shared-b dual-row pattern.
TEXT ·qgemm2AVX2(SB), NOSPLIT, $0-136
	MOVQ out0_base+0(FP), DI
	MOVQ out1_base+24(FP), AX
	MOVQ a0_base+48(FP), SI
	MOVQ a1_base+72(FP), R13
	MOVQ b_base+96(FP), BX
	MOVQ n+120(FP), CX
	MOVQ k+128(FP), DX
	MOVQ DX, R11
	SUBQ $16, R11        // R11 = k-16
	LEAQ (DX)(DX*2), R12 // R12 = 3k
	XORQ R8, R8          // j

g2a_jquad:
	LEAQ 3(R8), R14
	CMPQ R14, CX
	JGE  g2a_jtail
	MOVQ  R8, R9
	IMULQ DX, R9
	ADDQ  BX, R9 // R9 = &b[j*k], advanced 16 per k-step
	VPXOR Y0, Y0, Y0 // acc[a0][j+0]
	VPXOR Y1, Y1, Y1 // acc[a1][j+0]
	VPXOR Y2, Y2, Y2 // acc[a0][j+1]
	VPXOR Y3, Y3, Y3 // acc[a1][j+1]
	VPXOR Y4, Y4, Y4 // acc[a0][j+2]
	VPXOR Y5, Y5, Y5 // acc[a1][j+2]
	VPXOR Y6, Y6, Y6 // acc[a0][j+3]
	VPXOR Y7, Y7, Y7 // acc[a1][j+3]
	XORQ  R10, R10

g2a_kloop:
	VPMOVSXBW (SI)(R10*1), Y8   // a0 words
	VPMOVSXBW (R13)(R10*1), Y9  // a1 words
	VPMOVSXBW (R9), Y10         // b row j+0
	VPMADDWD  Y10, Y8, Y11
	VPADDD    Y11, Y0, Y0
	VPMADDWD  Y10, Y9, Y11
	VPADDD    Y11, Y1, Y1
	VPMOVSXBW (R9)(DX*1), Y10   // b row j+1
	VPMADDWD  Y10, Y8, Y11
	VPADDD    Y11, Y2, Y2
	VPMADDWD  Y10, Y9, Y11
	VPADDD    Y11, Y3, Y3
	VPMOVSXBW (R9)(DX*2), Y10   // b row j+2
	VPMADDWD  Y10, Y8, Y11
	VPADDD    Y11, Y4, Y4
	VPMADDWD  Y10, Y9, Y11
	VPADDD    Y11, Y5, Y5
	VPMOVSXBW (R9)(R12*1), Y10  // b row j+3
	VPMADDWD  Y10, Y8, Y11
	VPADDD    Y11, Y6, Y6
	VPMADDWD  Y10, Y9, Y11
	VPADDD    Y11, Y7, Y7
	ADDQ $16, R9
	ADDQ $16, R10
	CMPQ R10, R11
	JLE  g2a_kloop

	// VPHADDD tree: three hadds collapse four 8-lane accumulators into one
	// xmm of [j, j+1, j+2, j+3] column sums per out row, stored with a
	// single 16-byte write — 6 ops per 4 outputs instead of 8 per 1, which
	// is what makes the tile pay off at small k (conv1 is k=16).
	VPHADDD Y2, Y0, Y8
	VPHADDD Y6, Y4, Y9
	VPHADDD Y9, Y8, Y8
	VEXTRACTI128 $1, Y8, X9
	VPADDD  X9, X8, X8
	VMOVDQU X8, (DI)(R8*4)
	VPHADDD Y3, Y1, Y8
	VPHADDD Y7, Y5, Y9
	VPHADDD Y9, Y8, Y8
	VEXTRACTI128 $1, Y8, X9
	VPADDD  X9, X8, X8
	VMOVDQU X8, (AX)(R8*4)
	ADDQ $4, R8
	JMP  g2a_jquad

g2a_jtail:
	CMPQ R8, CX
	JGE  g2a_done
	MOVQ  R8, R9
	IMULQ DX, R9
	ADDQ  BX, R9
	VPXOR Y6, Y6, Y6 // accumulator for a0
	VPXOR Y7, Y7, Y7 // accumulator for a1
	XORQ  R10, R10

g2a_tloop:
	VPMOVSXBW (R9)(R10*1), Y10 // shared b
	VPMOVSXBW (SI)(R10*1), Y8
	VPMADDWD  Y10, Y8, Y8
	VPADDD    Y8, Y6, Y6
	VPMOVSXBW (R13)(R10*1), Y9
	VPMADDWD  Y10, Y9, Y9
	VPADDD    Y9, Y7, Y7
	ADDQ $16, R10
	CMPQ R10, R11
	JLE  g2a_tloop

	VEXTRACTI128 $1, Y6, X8
	VPADDD  X8, X6, X6
	VPSRLDQ $8, X6, X8
	VPADDD  X8, X6, X6
	VPSRLDQ $4, X6, X8
	VPADDD  X8, X6, X6
	MOVQ X6, R14
	MOVL R14, (DI)(R8*4)
	VEXTRACTI128 $1, Y7, X8
	VPADDD  X8, X7, X7
	VPSRLDQ $8, X7, X8
	VPADDD  X8, X7, X7
	VPSRLDQ $4, X7, X8
	VPADDD  X8, X7, X7
	MOVQ X7, R14
	MOVL R14, (AX)(R8*4)
	INCQ R8
	JMP  g2a_jtail

g2a_done:
	VZEROUPPER
	RET

// func qgemm2VNNI(out0, out1 []int32, a0, a1, b []int8, n, k int)
//
// AVX-512 VNNI tier: VPDPBUSD fuses the extend+madd+add chain into one
// instruction that retires 64 int8 MACs per accumulator, but its first
// operand is UNSIGNED. The standard fixup applies: XOR each b byte with
// 0x80 (= b+128 viewed unsigned, exact in the mod-2^32 ring VPDPBUSD
// accumulates in, since the instruction's dword adds wrap rather than
// saturate), so each lane accumulates sum((b[p]+128)*a[p]) =
// dot + 128*sum(a). The preamble computes comp_i = 128*sum_p a_i[p] once
// per call with the exact-by-range VPMADDWD-by-ones trick, and the stores
// subtract it — every step is exact mod 2^32, and the true dot fits int32,
// so the result is bit-identical to qdotRowRef.
//
// Same 2x4 column tile as the other qgemm2 kernels (accumulators Z0..Z7,
// 16 lanes each), 64-byte main k-steps with a 16-byte xmm-load remainder:
// the xmm loads zero the upper 48 bytes of both operand registers, so after
// the flip the upper b bytes become +128 against zero a bytes — zero
// products — and full-width VPDPBUSD into the live zmm accumulators stays
// exact without clobbering them. Precondition k >= 16 && k % 16 == 0 as
// with the other tiers.
TEXT ·qgemm2VNNI(SB), NOSPLIT, $0-136
	MOVQ out0_base+0(FP), DI
	MOVQ out1_base+24(FP), AX
	MOVQ a0_base+48(FP), SI
	MOVQ a1_base+72(FP), R13
	MOVQ b_base+96(FP), BX
	MOVQ n+120(FP), CX
	MOVQ k+128(FP), DX

	// comp_i = 128 * sum_p a_i[p], computed as VPMADDWD against words of 1
	// (exact: |pair sum| <= 2*127). Stored negated: R14 = -comp0 and
	// X15 = -comp1 (spilled so the GPRs stay free for addressing).
	VPCMPEQD Y12, Y12, Y12
	VPSRLW   $15, Y12, Y12 // Y12 = 16 words of 1
	VPXOR    Y13, Y13, Y13 // sum(a0) lanes
	VPXOR    Y14, Y14, Y14 // sum(a1) lanes
	MOVQ DX, R11
	SUBQ $16, R11 // R11 = k-16
	XORQ R10, R10

vnni_comp:
	VPMOVSXBW (SI)(R10*1), Y8
	VPMADDWD  Y12, Y8, Y8
	VPADDD    Y8, Y13, Y13
	VPMOVSXBW (R13)(R10*1), Y9
	VPMADDWD  Y12, Y9, Y9
	VPADDD    Y9, Y14, Y14
	ADDQ $16, R10
	CMPQ R10, R11
	JLE  vnni_comp

	VEXTRACTI128 $1, Y13, X8
	VPADDD  X8, X13, X13
	VPSRLDQ $8, X13, X8
	VPADDD  X8, X13, X13
	VPSRLDQ $4, X13, X8
	VPADDD  X8, X13, X13
	MOVQ X13, R14
	SHLL $7, R14
	NEGL R14 // R14 = -comp0
	VEXTRACTI128 $1, Y14, X8
	VPADDD  X8, X14, X14
	VPSRLDQ $8, X14, X8
	VPADDD  X8, X14, X14
	VPSRLDQ $4, X14, X8
	VPADDD  X8, X14, X14
	MOVQ X14, R9
	SHLL $7, R9
	NEGL R9
	MOVQ R9, X15 // X15 = -comp1 (scalar, for the column tail)

	// Vector forms of the compensations for the quad stores.
	MOVL R14, X12
	VPBROADCASTD X12, X12 // X12 = [-comp0] x4
	VPBROADCASTD X15, X13 // X13 = [-comp1] x4

	VPBROADCASTQ qflip<>(SB), Z10 // 0x80 in every byte
	MOVQ DX, R11
	SUBQ $64, R11        // R11 = k-64 (main loop bound)
	LEAQ (DX)(DX*2), R12 // R12 = 3k
	XORQ R8, R8          // j

vnni_jquad:
	LEAQ 3(R8), R9
	CMPQ R9, CX
	JGE  vnni_jtail
	MOVQ  R8, R9
	IMULQ DX, R9
	ADDQ  BX, R9 // R9 = &b[j*k], advanced per k-step
	VPXORD Z0, Z0, Z0 // acc[a0][j+0]
	VPXORD Z1, Z1, Z1 // acc[a1][j+0]
	VPXORD Z2, Z2, Z2 // acc[a0][j+1]
	VPXORD Z3, Z3, Z3 // acc[a1][j+1]
	VPXORD Z4, Z4, Z4 // acc[a0][j+2]
	VPXORD Z5, Z5, Z5 // acc[a1][j+2]
	VPXORD Z6, Z6, Z6 // acc[a0][j+3]
	VPXORD Z7, Z7, Z7 // acc[a1][j+3]
	XORQ R10, R10
	CMPQ R11, $0
	JL   vnni_krem // k < 64: 16-byte steps only

vnni_kmain:
	VMOVDQU64 (SI)(R10*1), Z8  // a0
	VMOVDQU64 (R13)(R10*1), Z9 // a1
	VMOVDQU64 (R9), Z11        // b row j+0
	VPXORD   Z10, Z11, Z11
	VPDPBUSD Z8, Z11, Z0
	VPDPBUSD Z9, Z11, Z1
	VMOVDQU64 (R9)(DX*1), Z11 // b row j+1
	VPXORD   Z10, Z11, Z11
	VPDPBUSD Z8, Z11, Z2
	VPDPBUSD Z9, Z11, Z3
	VMOVDQU64 (R9)(DX*2), Z11 // b row j+2
	VPXORD   Z10, Z11, Z11
	VPDPBUSD Z8, Z11, Z4
	VPDPBUSD Z9, Z11, Z5
	VMOVDQU64 (R9)(R12*1), Z11 // b row j+3
	VPXORD   Z10, Z11, Z11
	VPDPBUSD Z8, Z11, Z6
	VPDPBUSD Z9, Z11, Z7
	ADDQ $64, R9
	ADDQ $64, R10
	CMPQ R10, R11
	JLE  vnni_kmain

vnni_krem:
	CMPQ R10, DX
	JGE  vnni_reduce
	VMOVDQU (SI)(R10*1), X8  // upper 48 a bytes zeroed
	VMOVDQU (R13)(R10*1), X9
	VMOVDQU (R9), X11
	VPXORD   Z10, Z11, Z11 // upper b bytes flip to +128; a there is 0
	VPDPBUSD Z8, Z11, Z0
	VPDPBUSD Z9, Z11, Z1
	VMOVDQU (R9)(DX*1), X11
	VPXORD   Z10, Z11, Z11
	VPDPBUSD Z8, Z11, Z2
	VPDPBUSD Z9, Z11, Z3
	VMOVDQU (R9)(DX*2), X11
	VPXORD   Z10, Z11, Z11
	VPDPBUSD Z8, Z11, Z4
	VPDPBUSD Z9, Z11, Z5
	VMOVDQU (R9)(R12*1), X11
	VPXORD   Z10, Z11, Z11
	VPDPBUSD Z8, Z11, Z6
	VPDPBUSD Z9, Z11, Z7
	ADDQ $16, R9
	ADDQ $16, R10
	JMP  vnni_krem

vnni_reduce:
	// Fold each zmm accumulator to its low ymm, then the same VPHADDD tree
	// as qgemm2AVX2 collapses each 4-column row into one xmm, plus the
	// broadcast compensation, stored with a single 16-byte write.
	VEXTRACTI64X4 $1, Z0, Y8
	VPADDD Y8, Y0, Y0
	VEXTRACTI64X4 $1, Z1, Y8
	VPADDD Y8, Y1, Y1
	VEXTRACTI64X4 $1, Z2, Y8
	VPADDD Y8, Y2, Y2
	VEXTRACTI64X4 $1, Z3, Y8
	VPADDD Y8, Y3, Y3
	VEXTRACTI64X4 $1, Z4, Y8
	VPADDD Y8, Y4, Y4
	VEXTRACTI64X4 $1, Z5, Y8
	VPADDD Y8, Y5, Y5
	VEXTRACTI64X4 $1, Z6, Y8
	VPADDD Y8, Y6, Y6
	VEXTRACTI64X4 $1, Z7, Y8
	VPADDD Y8, Y7, Y7
	VPHADDD Y2, Y0, Y8
	VPHADDD Y6, Y4, Y9
	VPHADDD Y9, Y8, Y8
	VEXTRACTI128 $1, Y8, X9
	VPADDD  X9, X8, X8
	VPADDD  X12, X8, X8 // -comp0 on all four columns
	VMOVDQU X8, (DI)(R8*4)
	VPHADDD Y3, Y1, Y8
	VPHADDD Y7, Y5, Y9
	VPHADDD Y9, Y8, Y8
	VEXTRACTI128 $1, Y8, X9
	VPADDD  X9, X8, X8
	VPADDD  X13, X8, X8 // -comp1
	VMOVDQU X8, (AX)(R8*4)
	ADDQ $4, R8
	JMP  vnni_jquad

vnni_jtail:
	CMPQ R8, CX
	JGE  vnni_done
	MOVQ  R8, R9
	IMULQ DX, R9
	ADDQ  BX, R9
	VPXORD Z0, Z0, Z0 // accumulator for a0
	VPXORD Z1, Z1, Z1 // accumulator for a1
	XORQ R10, R10
	CMPQ R11, $0
	JL   vnni_trem

vnni_tmain:
	VMOVDQU64 (SI)(R10*1), Z8
	VMOVDQU64 (R13)(R10*1), Z9
	VMOVDQU64 (R9)(R10*1), Z11
	VPXORD   Z10, Z11, Z11
	VPDPBUSD Z8, Z11, Z0
	VPDPBUSD Z9, Z11, Z1
	ADDQ $64, R10
	CMPQ R10, R11
	JLE  vnni_tmain

vnni_trem:
	CMPQ R10, DX
	JGE  vnni_treduce
	VMOVDQU (SI)(R10*1), X8
	VMOVDQU (R13)(R10*1), X9
	VMOVDQU (R9)(R10*1), X11
	VPXORD   Z10, Z11, Z11
	VPDPBUSD Z8, Z11, Z0
	VPDPBUSD Z9, Z11, Z1
	ADDQ $16, R10
	JMP  vnni_trem

vnni_treduce:
	MOVQ X15, R10 // -comp1
	VEXTRACTI64X4 $1, Z0, Y8
	VPADDD  Y8, Y0, Y0
	VEXTRACTI128 $1, Y0, X8
	VPADDD  X8, X0, X0
	VPSRLDQ $8, X0, X8
	VPADDD  X8, X0, X0
	VPSRLDQ $4, X0, X8
	VPADDD  X8, X0, X0
	MOVQ X0, R9
	ADDL R14, R9
	MOVL R9, (DI)(R8*4)
	VEXTRACTI64X4 $1, Z1, Y8
	VPADDD  Y8, Y1, Y1
	VEXTRACTI128 $1, Y1, X8
	VPADDD  X8, X1, X1
	VPSRLDQ $8, X1, X8
	VPADDD  X8, X1, X1
	VPSRLDQ $4, X1, X8
	VPADDD  X8, X1, X1
	MOVQ X1, R9
	ADDL R10, R9
	MOVL R9, (AX)(R8*4)
	INCQ R8
	JMP  vnni_jtail

vnni_done:
	VZEROUPPER
	RET

// func requantizeRowAVX512(dst []int8, acc []int32, bias, m int32, shift int, lo int8)
//
// 8 accumulators per step. Dword bias add wraps exactly like Go's int32 +,
// VPMOVSXDQ/VPMULDQ form the exact signed int64 product (v+bias)*m, VPADDQ
// adds the hoisted rounding constant 1<<(shift-1), VPSRAQ floors like Go's
// arithmetic >>, and VPMAXSQ/VPMINSQ clamp to [lo, 127] so the VPMOVQB
// truncation never drops significant bits. Preconditions (dispatcher):
// len(acc) > 0, len(acc) % 8 == 0, 0 < shift < 62.
TEXT ·requantizeRowAVX512(SB), NOSPLIT, $0-65
	MOVQ dst_base+0(FP), DI
	MOVQ acc_base+24(FP), SI
	MOVQ acc_len+32(FP), R12

	MOVL bias+48(FP), AX
	VMOVD AX, X1
	VPBROADCASTD X1, Y1     // bias in every dword
	MOVL m+52(FP), AX
	VMOVD AX, X2
	VPBROADCASTD X2, Z2     // m in every dword (VPMULDQ reads the even ones)

	MOVQ shift+56(FP), CX
	DECQ CX
	MOVQ $1, AX
	SHLQ CL, AX             // rnd = 1 << (shift-1)
	VMOVQ AX, X3
	VPBROADCASTQ X3, Z3
	INCQ CX
	MOVQ CX, X4             // VPSRAQ count

	MOVBQSX lo+64(FP), AX
	VMOVQ AX, X5
	VPBROADCASTQ X5, Z5     // lower clamp bound as int64 lanes
	MOVQ $127, AX
	VMOVQ AX, X6
	VPBROADCASTQ X6, Z6     // upper clamp bound

	XORQ BX, BX

rq_loop:
	VMOVDQU (SI)(BX*4), Y7
	VPADDD  Y1, Y7, Y7      // v + bias, int32 wraparound
	VPMOVSXDQ Y7, Z7        // 8 x int64
	VPMULDQ Z2, Z7, Z7      // p = int64(v+bias) * int64(m), exact
	VPADDQ  Z3, Z7, Z7      // p + rnd
	VPSRAQ  X4, Z7, Z7      // >> shift (arithmetic)
	VPMAXSQ Z5, Z7, Z7      // max(r, lo)
	VPMINSQ Z6, Z7, Z7      // min(r, 127)
	VPMOVQB Z7, X7          // truncate qwords to 8 bytes
	VMOVQ X7, (DI)(BX*1)
	ADDQ $8, BX
	CMPQ BX, R12
	JL   rq_loop

	VZEROUPPER
	RET

// func qconvDirect4x16AVX2(acc []int32, stride, nch int, wpk []int32, in []int8, offs, segs []int)
//
// The direct INT8 convolution of one sample for a group of four output
// channels, in the shape of the float tile (convDirect4x8AVX2, simd_amd64.s):
// each pass of the outer loop takes two (input origin, output position)
// segments of eight pixels from segs and holds a 4-channel x (8+8)-pixel tile
// of int32 sums in Y4-Y11 across the whole tap walk. Taps go two at a time:
// per segment, VPMOVSXBD widens the eight input bytes under tap c and under
// tap c+1 to dwords, and a shift and a word blend leave pixel i's dword
// holding (x_c[i], x_c+1[i]) as two int16s; VPMADDWD against the broadcast
// (w_c, w_c+1) pair of a channel is then x_c[i]*w_c + x_c+1[i]*w_c+1 per
// pixel, exact (|.| <= 2*128*128), and VPADDD adds it in with int32
// wraparound. wpk holds the group's pairs four dwords (channels) per tap
// pair; len(offs) is even, an odd field's spare tap repeating a valid offset
// under a zero weight. Sums start at zero — the bias is requantizeRow's — and
// land at acc[ch*stride + position], of which only the first nch (1..4)
// channel rows are stored. len(segs) is a multiple of four; every segment
// is eight pixels wide (the dispatcher sends narrower rows to the GEMM).
TEXT ·qconvDirect4x16AVX2(SB), NOSPLIT, $0-136
	MOVQ offs_base+88(FP), R8
	MOVQ offs_len+96(FP), R12
	SHRQ $1, R12             // tap pairs
	MOVQ segs_base+112(FP), BX
	MOVQ segs_len+120(FP), R13
	LEAQ (BX)(R13*8), R13    // end of the segment list
	MOVQ stride+24(FP), R14
	SHLQ $2, R14             // channel row stride in bytes

qc_tile:
	CMPQ BX, R13
	JGE  qc_done
	MOVQ in_base+64(FP), AX
	MOVQ 0(BX), SI
	ADDQ AX, SI              // first segment's input origin
	MOVQ 16(BX), DX
	ADDQ AX, DX              // second segment's
	VPXOR Y4, Y4, Y4
	VPXOR Y5, Y5, Y5
	VPXOR Y6, Y6, Y6
	VPXOR Y7, Y7, Y7
	VPXOR Y8, Y8, Y8
	VPXOR Y9, Y9, Y9
	VPXOR Y10, Y10, Y10
	VPXOR Y11, Y11, Y11
	MOVQ wpk_base+40(FP), R9
	MOVQ R8, R10
	MOVQ R12, CX

qc_pair:
	MOVQ 0(R10), AX
	MOVQ 8(R10), R11
	VPMOVSXBD (SI)(AX*1), Y0
	VPMOVSXBD (SI)(R11*1), Y3
	VPSLLD $16, Y3, Y3
	VPBLENDW $0xAA, Y3, Y0, Y0  // odd words: tap c+1; even words: tap c
	VPMOVSXBD (DX)(AX*1), Y1
	VPMOVSXBD (DX)(R11*1), Y3
	VPSLLD $16, Y3, Y3
	VPBLENDW $0xAA, Y3, Y1, Y1
	VPBROADCASTD 0(R9), Y2
	VPMADDWD Y0, Y2, Y3
	VPADDD   Y3, Y4, Y4
	VPMADDWD Y1, Y2, Y3
	VPADDD   Y3, Y5, Y5
	VPBROADCASTD 4(R9), Y2
	VPMADDWD Y0, Y2, Y3
	VPADDD   Y3, Y6, Y6
	VPMADDWD Y1, Y2, Y3
	VPADDD   Y3, Y7, Y7
	VPBROADCASTD 8(R9), Y2
	VPMADDWD Y0, Y2, Y3
	VPADDD   Y3, Y8, Y8
	VPMADDWD Y1, Y2, Y3
	VPADDD   Y3, Y9, Y9
	VPBROADCASTD 12(R9), Y2
	VPMADDWD Y0, Y2, Y3
	VPADDD   Y3, Y10, Y10
	VPMADDWD Y1, Y2, Y3
	VPADDD   Y3, Y11, Y11
	ADDQ $16, R9
	ADDQ $16, R10
	DECQ CX
	JNZ  qc_pair

	MOVQ acc_base+0(FP), DI
	MOVQ 8(BX), CX
	MOVQ 24(BX), R9
	LEAQ (DI)(R9*4), R9      // second segment's output
	LEAQ (DI)(CX*4), DI      // first segment's
	MOVQ nch+32(FP), CX
	VMOVDQU Y4, (DI)
	VMOVDQU Y5, (R9)
	DECQ CX
	JZ   qc_next
	ADDQ R14, DI
	ADDQ R14, R9
	VMOVDQU Y6, (DI)
	VMOVDQU Y7, (R9)
	DECQ CX
	JZ   qc_next
	ADDQ R14, DI
	ADDQ R14, R9
	VMOVDQU Y8, (DI)
	VMOVDQU Y9, (R9)
	DECQ CX
	JZ   qc_next
	ADDQ R14, DI
	ADDQ R14, R9
	VMOVDQU Y10, (DI)
	VMOVDQU Y11, (R9)

qc_next:
	ADDQ $32, BX
	JMP  qc_tile

qc_done:
	VZEROUPPER
	RET

// QV_DOT(W, CH0, CH1) accumulates one channel of the VNNI tile: W is the
// channel's broadcast (w_c..w_c+3) dword, Y0/Y1 the flipped input quads of
// pixels 0-3 and 4-7 of both segments.
#define QV_DOT(W, CH0, CH1) \
	VPDPBUSD W, Y0, CH0; \
	VPDPBUSD W, Y1, CH1

// QV_STORE(XLO, YLO, XHI, YHI) stores one channel's sixteen sums: the low
// lanes are the first segment's pixels 0-3 and 4-7 at DI, the high lanes the
// second segment's at R9.
#define QV_STORE(XLO, YLO, XHI, YHI) \
	VMOVDQU32 XLO, (DI); \
	VMOVDQU32 XHI, 16(DI); \
	VEXTRACTI32X4 $1, YLO, (R9); \
	VEXTRACTI32X4 $1, YHI, 16(R9)

// func qconvDirect8x16VNNI(acc []int32, stride, nch int, wpk []int32, in []int8, offs, segs []int)
//
// The long-K direct INT8 convolution of one sample for a group of eight
// output channels: qconvDirect4x16AVX2's walk — two eight-pixel segments a
// pass, the input read where it lies through offs and segs — with the taps
// taken four at a time through VPDPBUSD. Per tap, VPBROADCASTQ loads the
// eight bytes under it in each segment and VPBLENDD joins them, the first
// segment in the low 128-bit lane and the second in the high one; two
// VPUNPCKLBW and a VPUNPCKLWD/VPUNPCKHWD pair then leave, per lane, pixel i's
// dword holding its four tap bytes (c, c+1, c+2, c+3), pixels 0-3 in Y0 and
// 4-7 in Y1. XOR with 0x80 makes those bytes VPDPBUSD's unsigned operand
// (x+128), and each channel's accumulator pair takes one VPDPBUSD each
// against the broadcast (w_c..w_c+3) dword. The sums start at -128*sum(w),
// so every step is exact mod 2^32 and the result is qdotRowRef's wraparound
// sum (the compensation qgemm2VNNI makes at store, made at load).
//
// wpk is the group's eight starting dwords, then eight dwords (channels)
// per tap quad; len(offs) is a multiple of four, a short last quad repeating
// a valid offset under zero weights. Channel ch's low accumulator is
// Y(16+2ch) (pixels 0-3 of both segments), its high one Y(17+2ch) (4-7), so
// each lane stores whole to its segment. Sums land at acc[ch*stride +
// position], of which only the first nch (1..8) channel rows are stored.
// len(segs) is a multiple of four; every segment is eight pixels wide.
TEXT ·qconvDirect8x16VNNI(SB), NOSPLIT, $0-136
	MOVQ segs_base+112(FP), BX
	MOVQ segs_len+120(FP), R13
	LEAQ (BX)(R13*8), R13    // end of the segment list
	MOVQ stride+24(FP), R14
	SHLQ $2, R14             // channel row stride in bytes
	VPBROADCASTQ qflip<>(SB), Y15

qv_tile:
	CMPQ BX, R13
	JGE  qv_done
	MOVQ in_base+64(FP), AX
	MOVQ 0(BX), SI
	ADDQ AX, SI              // first segment's input origin
	MOVQ 16(BX), DX
	ADDQ AX, DX              // second segment's
	MOVQ wpk_base+40(FP), R9
	VPBROADCASTD 0(R9), Y16
	VPBROADCASTD 0(R9), Y17
	VPBROADCASTD 4(R9), Y18
	VPBROADCASTD 4(R9), Y19
	VPBROADCASTD 8(R9), Y20
	VPBROADCASTD 8(R9), Y21
	VPBROADCASTD 12(R9), Y22
	VPBROADCASTD 12(R9), Y23
	VPBROADCASTD 16(R9), Y24
	VPBROADCASTD 16(R9), Y25
	VPBROADCASTD 20(R9), Y26
	VPBROADCASTD 20(R9), Y27
	VPBROADCASTD 24(R9), Y28
	VPBROADCASTD 24(R9), Y29
	VPBROADCASTD 28(R9), Y30
	VPBROADCASTD 28(R9), Y31
	ADDQ $32, R9
	MOVQ offs_base+88(FP), R10
	MOVQ offs_len+96(FP), CX
	SHRQ $2, CX              // tap quads

qv_quad:
	MOVQ 0(R10), AX
	MOVQ 8(R10), R11
	MOVQ 16(R10), R12
	MOVQ 24(R10), R8
	VPBROADCASTQ (SI)(AX*1), Y0
	VPBROADCASTQ (DX)(AX*1), Y4
	VPBLENDD $0xF0, Y4, Y0, Y0  // low lane: segment 0 under tap c; high: segment 1
	VPBROADCASTQ (SI)(R11*1), Y1
	VPBROADCASTQ (DX)(R11*1), Y5
	VPBLENDD $0xF0, Y5, Y1, Y1  // tap c+1
	VPBROADCASTQ (SI)(R12*1), Y2
	VPBROADCASTQ (DX)(R12*1), Y6
	VPBLENDD $0xF0, Y6, Y2, Y2  // tap c+2
	VPBROADCASTQ (SI)(R8*1), Y3
	VPBROADCASTQ (DX)(R8*1), Y7
	VPBLENDD $0xF0, Y7, Y3, Y3  // tap c+3
	VPUNPCKLBW Y1, Y0, Y0       // (c, c+1) byte pairs per pixel
	VPUNPCKLBW Y3, Y2, Y2       // (c+2, c+3)
	VPUNPCKHWD Y2, Y0, Y1       // pixels 4-7: (c, c+1, c+2, c+3) per dword
	VPUNPCKLWD Y2, Y0, Y0       // pixels 0-3
	VPXOR Y15, Y0, Y0
	VPXOR Y15, Y1, Y1
	VPBROADCASTD 0(R9), Y8
	QV_DOT(Y8, Y16, Y17)
	VPBROADCASTD 4(R9), Y9
	QV_DOT(Y9, Y18, Y19)
	VPBROADCASTD 8(R9), Y10
	QV_DOT(Y10, Y20, Y21)
	VPBROADCASTD 12(R9), Y11
	QV_DOT(Y11, Y22, Y23)
	VPBROADCASTD 16(R9), Y12
	QV_DOT(Y12, Y24, Y25)
	VPBROADCASTD 20(R9), Y13
	QV_DOT(Y13, Y26, Y27)
	VPBROADCASTD 24(R9), Y14
	QV_DOT(Y14, Y28, Y29)
	VPBROADCASTD 28(R9), Y8
	QV_DOT(Y8, Y30, Y31)
	ADDQ $32, R9
	ADDQ $32, R10
	DECQ CX
	JNZ  qv_quad

	MOVQ acc_base+0(FP), DI
	MOVQ 8(BX), CX
	MOVQ 24(BX), R9
	LEAQ (DI)(R9*4), R9      // second segment's output
	LEAQ (DI)(CX*4), DI      // first segment's
	MOVQ nch+32(FP), CX
	QV_STORE(X16, Y16, X17, Y17)
	DECQ CX
	JZ   qv_next
	ADDQ R14, DI
	ADDQ R14, R9
	QV_STORE(X18, Y18, X19, Y19)
	DECQ CX
	JZ   qv_next
	ADDQ R14, DI
	ADDQ R14, R9
	QV_STORE(X20, Y20, X21, Y21)
	DECQ CX
	JZ   qv_next
	ADDQ R14, DI
	ADDQ R14, R9
	QV_STORE(X22, Y22, X23, Y23)
	DECQ CX
	JZ   qv_next
	ADDQ R14, DI
	ADDQ R14, R9
	QV_STORE(X24, Y24, X25, Y25)
	DECQ CX
	JZ   qv_next
	ADDQ R14, DI
	ADDQ R14, R9
	QV_STORE(X26, Y26, X27, Y27)
	DECQ CX
	JZ   qv_next
	ADDQ R14, DI
	ADDQ R14, R9
	QV_STORE(X28, Y28, X29, Y29)
	DECQ CX
	JZ   qv_next
	ADDQ R14, DI
	ADDQ R14, R9
	QV_STORE(X30, Y30, X31, Y31)

qv_next:
	ADDQ $32, BX
	JMP  qv_tile

qv_done:
	VZEROUPPER
	RET

// func maxPoolAccAVX2(dst, src []int32, imgs, h, w, ld int, bias int32)
//
// maxPoolAcc over one channel row of a chunk: imgs images of h x w int32
// accumulators in, back to back; image s's (h/2) x (w/2) pooled sums plus
// the bias out at dst + s*ld. Eight outputs per step: VPMAXSD folds the two
// input rows' sixteen dwords into eight horizontal pairs across two ymm,
// VSHUFPS gathers the pairs' even and odd members (in-lane, so the result
// comes out qword-interleaved), VPMAXSD reduces each pair, VPERMQ restores
// the order and VPADDD adds the bias (int32 wraparound, as Go's +). A
// four-output xmm step needs no VPERMQ, and single outputs take the pair max
// on xmm too. Every load stays inside the 2*(w/2) columns the outputs read;
// an odd last row or column is never touched.
TEXT ·maxPoolAccAVX2(SB), NOSPLIT, $0-84
	MOVQ dst_base+0(FP), R14
	MOVQ src_base+24(FP), SI
	MOVQ imgs+48(FP), R8
	MOVQ h+56(FP), R9
	MOVQ w+64(FP), R10
	MOVL bias+80(FP), AX
	VMOVD AX, X4
	VPBROADCASTD X4, Y4      // bias in every dword
	MOVQ R10, R11
	SHLQ $2, R11             // input row stride, bytes
	MOVQ R9, R12
	IMULQ R11, R12           // input image stride, bytes
	SHRQ $1, R9              // output rows
	SHRQ $1, R10             // output columns
	TESTQ R9, R9
	JZ    mp_done
	TESTQ R10, R10
	JZ    mp_done

mp_img:
	TESTQ R8, R8
	JZ    mp_done
	MOVQ R14, DI             // output row
	MOVQ SI, BX              // input row pair
	MOVQ R9, R13

mp_row:
	LEAQ (BX)(R11*1), DX     // second input row
	XORQ CX, CX              // output column

mp_blk8:
	LEAQ 8(CX), AX
	CMPQ AX, R10
	JG   mp_blk4
	VMOVDQU (BX)(CX*8), Y0
	VMOVDQU 32(BX)(CX*8), Y1
	VPMAXSD (DX)(CX*8), Y0, Y0
	VPMAXSD 32(DX)(CX*8), Y1, Y1
	VSHUFPS $0x88, Y1, Y0, Y2 // even members: o0 o1 o4 o5 | o2 o3 o6 o7
	VSHUFPS $0xDD, Y1, Y0, Y3 // odd members, same order
	VPMAXSD Y3, Y2, Y2
	VPERMQ  $0xD8, Y2, Y2
	VPADDD  Y4, Y2, Y2
	VMOVDQU Y2, (DI)(CX*4)
	MOVQ AX, CX
	JMP  mp_blk8

mp_blk4:
	LEAQ 4(CX), AX
	CMPQ AX, R10
	JG   mp_one
	VMOVDQU (BX)(CX*8), X0
	VMOVDQU 16(BX)(CX*8), X1
	VPMAXSD (DX)(CX*8), X0, X0
	VPMAXSD 16(DX)(CX*8), X1, X1
	VSHUFPS $0x88, X1, X0, X2
	VSHUFPS $0xDD, X1, X0, X3
	VPMAXSD X3, X2, X2
	VPADDD  X4, X2, X2
	VMOVDQU X2, (DI)(CX*4)
	MOVQ AX, CX

mp_one:
	CMPQ CX, R10
	JGE  mp_rowdone
	VMOVQ   (BX)(CX*8), X0
	VMOVQ   (DX)(CX*8), X1
	VPMAXSD X1, X0, X0
	VPSHUFD $1, X0, X1
	VPMAXSD X1, X0, X0
	VPADDD  X4, X0, X0
	VMOVD   X0, (DI)(CX*4)
	INCQ CX
	JMP  mp_one

mp_rowdone:
	LEAQ (DI)(R10*4), DI     // next output row
	LEAQ (BX)(R11*2), BX     // next input row pair
	DECQ R13
	JNZ  mp_row
	ADDQ R12, SI             // next image
	MOVQ ld+72(FP), AX
	LEAQ (R14)(AX*4), R14
	DECQ R8
	JMP  mp_img

mp_done:
	VZEROUPPER
	RET

// Constants of quantizeActsAVX2, one float64 each, broadcast at entry.
DATA qaAbs<>+0(SB)/8, $0x7fffffffffffffff
GLOBL qaAbs<>(SB), RODATA|NOPTR, $8
DATA qaSign<>+0(SB)/8, $0x8000000000000000
GLOBL qaSign<>(SB), RODATA|NOPTR, $8
DATA qaHalf<>+0(SB)/8, $0.5
GLOBL qaHalf<>(SB), RODATA|NOPTR, $8
DATA qaOne<>+0(SB)/8, $1.0
GLOBL qaOne<>(SB), RODATA|NOPTR, $8
DATA qaMax<>+0(SB)/8, $127.0
GLOBL qaMax<>(SB), RODATA|NOPTR, $8
DATA qaMin<>+0(SB)/8, $-127.0
GLOBL qaMin<>(SB), RODATA|NOPTR, $8

// QROUND(X, T1, T2) maps the four float64 lanes of X to quantizeActs'
// values, still as float64: X/scale by VDIVPD (the scalar loop's IEEE
// division); round half away from zero as math.Round does — truncate, then
// step one away from zero where the fraction's magnitude is at least a half
// (the subtraction is exact, so 0.49999999999999994 stays 0 where
// floor(x+0.5) would not); NaN to +0; clamp to [-127, 127]. ±Inf truncates
// to itself and its fraction is NaN, so it takes no step and saturates.
// Reads the broadcast constants in Y9-Y15; T1 and T2 are clobbered.
#define QROUND(X, T1, T2) \
	VDIVPD   Y15, X, X; \
	VROUNDPD $3, X, T1; \
	VSUBPD   T1, X, T2; \
	VANDPD   Y14, T2, T2; \
	VCMPPD   $0x1d, Y13, T2, T2; \
	VANDPD   Y12, X, X; \
	VORPD    Y11, X, X; \
	VANDPD   T2, X, X; \
	VADDPD   T1, X, X; \
	VCMPPD   $7, X, X, T2; \
	VANDPD   T2, X, X; \
	VMAXPD   Y9, X, X; \
	VMINPD   Y10, X, X

// func quantizeActsAVX2(dst []int8, src []float64, scale float64)
//
// quantizeActs four lanes at a time (QROUND, then VCVTTPD2DQ — exact, the
// values are integers in [-127, 127] — and two saturating packs that cannot
// saturate), and the last len % 4 values one at a time: VMOVSD zeroes the
// other three lanes, which the macro carries along as zeros.
TEXT ·quantizeActsAVX2(SB), NOSPLIT, $0-56
	MOVQ dst_base+0(FP), DI
	MOVQ src_base+24(FP), SI
	MOVQ src_len+32(FP), CX
	VBROADCASTSD scale+48(FP), Y15
	VBROADCASTSD qaAbs<>(SB), Y14
	VBROADCASTSD qaHalf<>(SB), Y13
	VBROADCASTSD qaSign<>(SB), Y12
	VBROADCASTSD qaOne<>(SB), Y11
	VBROADCASTSD qaMax<>(SB), Y10
	VBROADCASTSD qaMin<>(SB), Y9
	MOVQ CX, DX
	ANDQ $-4, DX
	XORQ BX, BX

qa_loop4:
	CMPQ BX, DX
	JGE  qa_tail
	VMOVUPD (SI)(BX*8), Y0
	QROUND(Y0, Y1, Y2)
	VCVTTPD2DQY Y0, X0
	VPACKSSDW X0, X0, X0
	VPACKSSWB X0, X0, X0
	VMOVD X0, (DI)(BX*1)
	ADDQ $4, BX
	JMP  qa_loop4

qa_tail:
	CMPQ BX, CX
	JGE  qa_done
	VMOVSD (SI)(BX*8), X0
	QROUND(Y0, Y1, Y2)
	VCVTTPD2DQY Y0, X0
	VMOVD X0, AX
	MOVB  AX, (DI)(BX*1)
	INCQ BX
	JMP  qa_tail

qa_done:
	VZEROUPPER
	RET
