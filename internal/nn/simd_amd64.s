// AVX2 element-parallel kernels, plus the two SSE2 kernels that have no
// wider twin (pool2x2, transpose2x2: SSE2 is the amd64 baseline, so they run
// undispatched). See simd_amd64.go for the bit-identity contract:
// lanes are independent output elements; per-element operation order matches
// the portable Go loops (simd_portable.go) exactly (multiply then add — no
// FMA). The AVX2 bodies use only VEX-encoded instructions and end with
// VZEROUPPER, so they never pay SSE/AVX transition penalties.

#include "textflag.h"

// func reluFwdAVX2(dst, src []float64)
// dst[i] = src[i] if src[i] > 0 else +0, for i < len(dst).
// VMAXPD with the zero vector as the second source returns +0 for NaN and
// for both-zero compares — the scalar `if v > 0` branch's outcomes, four
// lanes wide.
TEXT ·reluFwdAVX2(SB), NOSPLIT, $0-48
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ src_base+24(FP), SI
	VXORPS Y0, Y0, Y0

vrloop16:
	CMPQ CX, $16
	JL   vrloop4
	VMOVUPD 0(SI), Y1
	VMOVUPD 32(SI), Y2
	VMOVUPD 64(SI), Y3
	VMOVUPD 96(SI), Y4
	VMAXPD Y0, Y1, Y1
	VMAXPD Y0, Y2, Y2
	VMAXPD Y0, Y3, Y3
	VMAXPD Y0, Y4, Y4
	VMOVUPD Y1, 0(DI)
	VMOVUPD Y2, 32(DI)
	VMOVUPD Y3, 64(DI)
	VMOVUPD Y4, 96(DI)
	ADDQ $128, SI
	ADDQ $128, DI
	SUBQ $16, CX
	JMP  vrloop16

vrloop4:
	CMPQ CX, $4
	JL   vrloop1
	VMOVUPD 0(SI), Y1
	VMAXPD Y0, Y1, Y1
	VMOVUPD Y1, 0(DI)
	ADDQ $32, SI
	ADDQ $32, DI
	SUBQ $4, CX
	JMP  vrloop4

vrloop1:
	CMPQ CX, $0
	JE   vrdone
	VMOVSD (SI), X1
	VMAXSD X0, X1, X1
	VMOVSD X1, (DI)
	ADDQ $8, SI
	ADDQ $8, DI
	DECQ CX
	JMP  vrloop1

vrdone:
	VZEROUPPER
	RET

// func reluBwdAVX2(dst, grad, in []float64)
// dst[i] = grad[i] if in[i] > 0 else +0, for i < len(dst).
// VCMPPD predicate 1 (LT) builds the 0 < in mask (false for NaN) four lanes
// at a time; VANDPD passes grad bits verbatim where true, +0 where false —
// the scalar branch's two outcomes.
TEXT ·reluBwdAVX2(SB), NOSPLIT, $0-72
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ grad_base+24(FP), SI
	MOVQ in_base+48(FP), BX
	VXORPS Y0, Y0, Y0

vbloop8:
	CMPQ CX, $8
	JL   vbloop4
	VMOVUPD 0(BX), Y1
	VMOVUPD 32(BX), Y2
	VCMPPD  $1, Y1, Y0, Y1
	VCMPPD  $1, Y2, Y0, Y2
	VANDPD  0(SI), Y1, Y1
	VANDPD  32(SI), Y2, Y2
	VMOVUPD Y1, 0(DI)
	VMOVUPD Y2, 32(DI)
	ADDQ $64, SI
	ADDQ $64, DI
	ADDQ $64, BX
	SUBQ $8, CX
	JMP  vbloop8

vbloop4:
	CMPQ CX, $4
	JL   vbloop1
	VMOVUPD 0(BX), Y1
	VCMPPD  $1, Y1, Y0, Y1
	VANDPD  0(SI), Y1, Y1
	VMOVUPD Y1, 0(DI)
	ADDQ $32, SI
	ADDQ $32, DI
	ADDQ $32, BX
	SUBQ $4, CX
	JMP  vbloop4

vbloop1:
	CMPQ CX, $0
	JE   vbdone
	VMOVSD  (BX), X1
	VUCOMISD X0, X1
	JA      vbcopy
	VMOVSD X0, (DI)
	JMP    vbnext

vbcopy:
	VMOVSD (SI), X3
	VMOVSD X3, (DI)

vbnext:
	ADDQ $8, SI
	ADDQ $8, DI
	ADDQ $8, BX
	DECQ CX
	JMP  vbloop1

vbdone:
	VZEROUPPER
	RET

// func stepAVX2(lr, scale float64, g, p []float64)
// p[i] -= lr*g[i]/scale: multiply, divide, subtract — the scalar update's
// exact operation sequence per element, four lanes wide (division order is
// fixed; the multiply's operand order only matters for NaN payloads, see the
// contract).
TEXT ·stepAVX2(SB), NOSPLIT, $0-64
	VBROADCASTSD lr+0(FP), Y0
	VBROADCASTSD scale+8(FP), Y1
	MOVQ g_base+16(FP), SI
	MOVQ p_base+40(FP), DI
	MOVQ p_len+48(FP), CX

vploop8:
	CMPQ CX, $8
	JL   vploop1
	VMULPD 0(SI), Y0, Y2
	VMULPD 32(SI), Y0, Y3
	VDIVPD Y1, Y2, Y2
	VDIVPD Y1, Y3, Y3
	VMOVUPD 0(DI), Y4
	VMOVUPD 32(DI), Y5
	VSUBPD Y2, Y4, Y4
	VSUBPD Y3, Y5, Y5
	VMOVUPD Y4, 0(DI)
	VMOVUPD Y5, 32(DI)
	ADDQ $64, SI
	ADDQ $64, DI
	SUBQ $8, CX
	JMP  vploop8

vploop1:
	CMPQ CX, $0
	JE   vpdone
	VMOVSD (SI), X2
	VMULSD X2, X0, X2
	VDIVSD X1, X2, X2
	VMOVSD (DI), X4
	VSUBSD X2, X4, X4
	VMOVSD X4, (DI)
	ADDQ $8, SI
	ADDQ $8, DI
	DECQ CX
	JMP  vploop1

vpdone:
	VZEROUPPER
	RET

// func nnDot4x8AVX2(out []float64, on int, init, a []float64, k int, bt []float64, ld int)
// A 4x8 output tile accumulates in Y4-Y11 across the whole K loop: four
// rows of a (stride k) against the same eight bt columns (row stride ld),
// so each bt element is loaded once per four output rows instead of once
// per row. Per element the sequence is still init + a[c]*bt[c][l] with c
// strictly ascending — rows are just more independent lanes. out rows are
// written at stride on; init supplies the 4x8 starting values row-major.
TEXT ·nnDot4x8AVX2(SB), NOSPLIT, $0-120
	MOVQ out_base+0(FP), DI
	MOVQ on+24(FP), DX
	SHLQ $3, DX // out row stride in bytes
	MOVQ init_base+32(FP), AX
	MOVQ a_base+56(FP), R9
	MOVQ k+80(FP), CX
	MOVQ bt_base+88(FP), BX
	MOVQ ld+112(FP), R8
	SHLQ $3, R8 // bt row stride in bytes
	MOVQ CX, R10
	SHLQ $3, R10 // a row stride in bytes
	LEAQ (R9)(R10*1), R11
	LEAQ (R11)(R10*1), R12
	LEAQ (R12)(R10*1), R13
	VMOVUPD 0(AX), Y4
	VMOVUPD 32(AX), Y5
	VMOVUPD 64(AX), Y6
	VMOVUPD 96(AX), Y7
	VMOVUPD 128(AX), Y8
	VMOVUPD 160(AX), Y9
	VMOVUPD 192(AX), Y10
	VMOVUPD 224(AX), Y11

qloop:
	CMPQ CX, $0
	JE   qdone
	VMOVUPD 0(BX), Y0
	VMOVUPD 32(BX), Y1
	VBROADCASTSD (R9), Y2
	VMULPD Y0, Y2, Y3
	VADDPD Y3, Y4, Y4
	VMULPD Y1, Y2, Y3
	VADDPD Y3, Y5, Y5
	VBROADCASTSD (R11), Y2
	VMULPD Y0, Y2, Y3
	VADDPD Y3, Y6, Y6
	VMULPD Y1, Y2, Y3
	VADDPD Y3, Y7, Y7
	VBROADCASTSD (R12), Y2
	VMULPD Y0, Y2, Y3
	VADDPD Y3, Y8, Y8
	VMULPD Y1, Y2, Y3
	VADDPD Y3, Y9, Y9
	VBROADCASTSD (R13), Y2
	VMULPD Y0, Y2, Y3
	VADDPD Y3, Y10, Y10
	VMULPD Y1, Y2, Y3
	VADDPD Y3, Y11, Y11
	ADDQ $8, R9
	ADDQ $8, R11
	ADDQ $8, R12
	ADDQ $8, R13
	ADDQ R8, BX
	DECQ CX
	JMP  qloop

qdone:
	VMOVUPD Y4, 0(DI)
	VMOVUPD Y5, 32(DI)
	ADDQ DX, DI
	VMOVUPD Y6, 0(DI)
	VMOVUPD Y7, 32(DI)
	ADDQ DX, DI
	VMOVUPD Y8, 0(DI)
	VMOVUPD Y9, 32(DI)
	ADDQ DX, DI
	VMOVUPD Y10, 0(DI)
	VMOVUPD Y11, 32(DI)
	VZEROUPPER
	RET

// RELUPOOL stores one channel's two pooled values at (DI) and steps DI a
// plane: A holds conv row 2y's four sums a0..a3, B row 2y+1's b0..b3. The
// pool scans each window in MaxPool2D.Forward's order — a0, a1, b0, b1 for
// the first, a2, a3, b2, b3 for the second, the two windows side by side in
// one X register — with pool2x2SSE2's operand roles: the candidate is the
// first source and the running best the second, which VMAXPD returns on ties
// and NaN, so a later candidate wins only on strict >. Row 2y is rectified
// first with reluFwdAVX2's VMAXPD against zero (Y12); that is all the ReLU
// the window needs (reluPool), since a later candidate <= 0 or NaN never
// beats a best >= +0, exactly as its rectified +0 would not.
#define RELUPOOL(A, B, XA, XB) \
	VMAXPD       Y12, A, A; \
	VPERMPD      $0xD8, A, A; \
	VPERMPD      $0xD8, B, B; \
	VEXTRACTF128 $1, A, X0; \
	VMAXPD       XA, X0, X0; \
	VMAXPD       X0, XB, X1; \
	VEXTRACTF128 $1, B, X2; \
	VMAXPD       X1, X2, X2; \
	VMOVUPD      X2, (DI); \
	ADDQ         AX, DI

// func convDirect4x8AVX2(out []float64, np int, bias, wt, in []float64, offs, segs []int, sw int, pool bool)
// The direct convolution of one sample for four output channels: nnDot4x8AVX2
// with the bt += ld advance replaced by a table load. Each pass of the outer
// loop takes two (input origin, output position) segments from segs and holds
// a 4-channel x (4+4)-pixel tile in Y4-Y11 across the whole table walk: per c,
// offs[c] locates the two four-pixel input runs (Y0, Y1) and each of the four
// weight rows (stride len(offs)) contributes one broadcast. Per element the
// sequence is bias + wt[c]*in[...] with c strictly ascending, multiply then
// add — convDirectGo's, lanes being independent pixels and channels. The
// dispatcher guarantees four channels and sw == 4 (the segment width this
// body hard-codes); len(segs) is a multiple of four and len(offs) >= 1.
//
// With pool the two segments are conv rows 2y and 2y+1 of the same columns,
// and the tile leaves through RELUPOOL instead of eight stores: per channel
// two pooled values at the first segment's output position.
TEXT ·convDirect4x8AVX2(SB), NOSPLIT, $0-161
	MOVQ offs_base+104(FP), R8
	MOVQ offs_len+112(FP), R12
	MOVQ R12, R10
	SHLQ $3, R10            // weight row stride in bytes
	LEAQ (R10)(R10*2), R11  // three weight rows
	MOVQ segs_base+128(FP), BX
	MOVQ segs_len+136(FP), R13
	LEAQ (BX)(R13*8), R13   // end of the segment list
	VXORPD Y12, Y12, Y12    // ReLU's zero

ctile:
	CMPQ BX, R13
	JGE  cdone
	MOVQ in_base+80(FP), AX
	MOVQ 0(BX), SI
	LEAQ (AX)(SI*8), SI     // first segment's input origin
	MOVQ 16(BX), DX
	LEAQ (AX)(DX*8), DX     // second segment's
	MOVQ bias_base+32(FP), AX
	VBROADCASTSD 0(AX), Y4
	VMOVAPD Y4, Y5
	VBROADCASTSD 8(AX), Y6
	VMOVAPD Y6, Y7
	VBROADCASTSD 16(AX), Y8
	VMOVAPD Y8, Y9
	VBROADCASTSD 24(AX), Y10
	VMOVAPD Y10, Y11
	MOVQ wt_base+56(FP), R9
	XORQ CX, CX

cloop:
	MOVQ (R8)(CX*8), AX
	VMOVUPD (SI)(AX*8), Y0
	VMOVUPD (DX)(AX*8), Y1
	VBROADCASTSD (R9), Y2
	VMULPD Y0, Y2, Y3
	VADDPD Y3, Y4, Y4
	VMULPD Y1, Y2, Y3
	VADDPD Y3, Y5, Y5
	VBROADCASTSD (R9)(R10*1), Y2
	VMULPD Y0, Y2, Y3
	VADDPD Y3, Y6, Y6
	VMULPD Y1, Y2, Y3
	VADDPD Y3, Y7, Y7
	VBROADCASTSD (R9)(R10*2), Y2
	VMULPD Y0, Y2, Y3
	VADDPD Y3, Y8, Y8
	VMULPD Y1, Y2, Y3
	VADDPD Y3, Y9, Y9
	VBROADCASTSD (R9)(R11*1), Y2
	VMULPD Y0, Y2, Y3
	VADDPD Y3, Y10, Y10
	VMULPD Y1, Y2, Y3
	VADDPD Y3, Y11, Y11
	ADDQ $8, R9
	INCQ CX
	CMPQ CX, R12
	JLT  cloop

	MOVQ out_base+0(FP), DI
	MOVQ np+24(FP), AX
	SHLQ $3, AX             // channel plane stride in bytes
	MOVQ 8(BX), CX
	LEAQ (DI)(CX*8), DI     // first segment's output
	CMPB pool+160(FP), $0
	JNE  cpool
	MOVQ 24(BX), R9
	MOVQ out_base+0(FP), CX
	LEAQ (CX)(R9*8), R9     // second segment's
	VMOVUPD Y4, (DI)
	VMOVUPD Y5, (R9)
	ADDQ AX, DI
	ADDQ AX, R9
	VMOVUPD Y6, (DI)
	VMOVUPD Y7, (R9)
	ADDQ AX, DI
	ADDQ AX, R9
	VMOVUPD Y8, (DI)
	VMOVUPD Y9, (R9)
	ADDQ AX, DI
	ADDQ AX, R9
	VMOVUPD Y10, (DI)
	VMOVUPD Y11, (R9)
	ADDQ $32, BX
	JMP  ctile

cpool:
	RELUPOOL(Y4, Y5, X4, X5)
	RELUPOOL(Y6, Y7, X6, X7)
	RELUPOOL(Y8, Y9, X8, X9)
	RELUPOOL(Y10, Y11, X10, X11)
	ADDQ $32, BX
	JMP  ctile

cdone:
	VZEROUPPER
	RET

// func pool2x2SSE2(dst, row0, row1 []float64)
// dst[x] = max of the 2x2 window (row0[2x], row0[2x+1], row1[2x], row1[2x+1])
// in the scalar loop's candidate order: each MAXPD/MAXSD has the new
// candidate as its destination operand, so the running best (the source) is
// returned on ties and NaN candidates — exactly the scalar strict-> update.
// Two windows per vector pass: UNPCKLPD/UNPCKHPD split even/odd lanes.
TEXT ·pool2x2SSE2(SB), NOSPLIT, $0-72
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), BX
	MOVQ row0_base+24(FP), SI
	MOVQ row1_base+48(FP), DX
	XORQ AX, AX

pair:
	LEAQ 2(AX), CX
	CMPQ CX, BX
	JGT  tail
	MOVUPD   (SI), X0   // [a0 b0]
	MOVUPD   16(SI), X1 // [a1 b1]
	MOVAPD   X0, X2
	UNPCKLPD X1, X0     // X0 = [a0 a1] = running best
	UNPCKHPD X1, X2     // X2 = [b0 b1]
	MAXPD    X0, X2     // X2 = (X2 > X0) ? X2 : X0
	MOVUPD   (DX), X3   // [c0 d0]
	MOVUPD   16(DX), X4 // [c1 d1]
	MOVAPD   X3, X5
	UNPCKLPD X4, X3     // X3 = [c0 c1]
	UNPCKHPD X4, X5     // X5 = [d0 d1]
	MAXPD    X2, X3     // X3 = (X3 > X2) ? X3 : X2
	MAXPD    X3, X5     // X5 = (X5 > X3) ? X5 : X3
	MOVUPD   X5, (DI)
	ADDQ     $32, SI
	ADDQ     $32, DX
	ADDQ     $16, DI
	ADDQ     $2, AX
	JMP      pair

tail:
	CMPQ AX, BX
	JGE  done
	MOVSD (SI), X0
	MOVSD 8(SI), X1
	MAXSD X0, X1
	MOVSD (DX), X2
	MAXSD X1, X2
	MOVSD 8(DX), X3
	MAXSD X2, X3
	MOVSD X3, (DI)
	ADDQ  $16, SI
	ADDQ  $16, DX
	ADDQ  $8, DI
	INCQ  AX
	JMP   tail

done:
	RET

// Lanes 0..rem-1 of a tail's load mask: the four qwords at bwdTail+24-8*rem.
DATA bwdTail<>+0(SB)/8, $-1
DATA bwdTail<>+8(SB)/8, $-1
DATA bwdTail<>+16(SB)/8, $-1
GLOBL bwdTail<>(SB), RODATA|NOPTR, $48

// func convBwdAVX2(g []float64, ow int, in, wt, gw, gb, gi []float64, offs []int, k int)
// convBwdGo for k in {1, 3, 5}. The gradient plane is tested four values at
// a time — VCMPPD NEQ_UQ against zero (true for NaN, false for either zero)
// and VMOVMSKPD; the last one to three values load under a VMASKMOVPD mask,
// so nothing past the plane is read — and the set bits are taken lowest
// first, so nonzero values are visited in ascending p. For each, gv goes
// into the bias-gradient sum (X4, stored once at the end), the field origin
// p + y*(k-1) follows y (R13 is the end of row y, R12 its y*(k-1)), and two
// walks over offs, k entries a step, do the rows: gw row += gv * field row,
// then, when gi is not empty, gi field row += gv * weight row. A row is one
// four-wide and one scalar multiply-add at k = 5, one two-wide and one
// scalar at k = 3, one scalar at k = 1; every element gets one multiply then
// one add, as in the Go loop.
TEXT ·convBwdAVX2(SB), NOSPLIT, $0-184
	MOVQ    g_base+0(FP), SI
	MOVQ    g_len+8(FP), CX
	MOVQ    gb_base+104(FP), AX
	VMOVSD  (AX), X4
	VXORPD  Y3, Y3, Y3
	XORQ    DX, DX           // first p of the group
	XORQ    R12, R12
	MOVQ    ow+24(FP), R13

bgroup:
	MOVQ CX, AX
	SUBQ DX, AX              // values left
	JLE  bdone
	CMPQ AX, $4
	JGE  bfull
	LEAQ bwdTail<>+24(SB), BX
	SHLQ $3, AX
	SUBQ AX, BX
	VMOVUPD    (BX), Y1
	VMASKMOVPD (SI)(DX*8), Y1, Y1
	JMP  btest

bfull:
	VMOVUPD (SI)(DX*8), Y1

btest:
	VCMPPD    $4, Y3, Y1, Y1
	VMOVMSKPD Y1, BX
	TESTQ     BX, BX
	JZ        bnext

bbit:
	BSFQ BX, AX
	ADDQ DX, AX              // p
	VBROADCASTSD (SI)(AX*8), Y0
	VADDSD       X0, X4, X4

brow:
	CMPQ AX, R13
	JLT  bfield
	ADDQ ow+24(FP), R13
	MOVQ k+176(FP), DI
	LEAQ -1(R12)(DI*1), R12
	JMP  brow

bfield:
	LEAQ (AX)(R12*1), DI     // field origin
	MOVQ offs_base+152(FP), R8
	MOVQ offs_len+160(FP), R9
	LEAQ (R8)(R9*8), R9      // end of offs
	MOVQ in_base+32(FP), R11
	LEAQ (R11)(DI*8), R11
	MOVQ gw_base+80(FP), R10
	MOVQ k+176(FP), AX
	CMPQ AX, $3
	JEQ  bw3
	JGT  bw5

bw1:
	MOVQ   (R8), AX
	VMULSD (R11)(AX*8), X0, X2
	VADDSD (R10), X2, X2
	VMOVSD X2, (R10)
	ADDQ   $8, R8
	ADDQ   $8, R10
	CMPQ   R8, R9
	JLT    bw1
	JMP    bgi

bw3:
	MOVQ    (R8), AX
	VMULPD  (R11)(AX*8), X0, X1
	VADDPD  (R10), X1, X1
	VMOVUPD X1, (R10)
	VMULSD  16(R11)(AX*8), X0, X2
	VADDSD  16(R10), X2, X2
	VMOVSD  X2, 16(R10)
	ADDQ    $24, R8
	ADDQ    $24, R10
	CMPQ    R8, R9
	JLT     bw3
	JMP     bgi

bw5:
	MOVQ    (R8), AX
	VMULPD  (R11)(AX*8), Y0, Y1
	VADDPD  (R10), Y1, Y1
	VMOVUPD Y1, (R10)
	VMULSD  32(R11)(AX*8), X0, X2
	VADDSD  32(R10), X2, X2
	VMOVSD  X2, 32(R10)
	ADDQ    $40, R8
	ADDQ    $40, R10
	CMPQ    R8, R9
	JLT     bw5

bgi:
	MOVQ  gi_len+136(FP), AX
	TESTQ AX, AX
	JZ    bclear
	MOVQ  offs_base+152(FP), R8
	MOVQ  gi_base+128(FP), R11
	LEAQ  (R11)(DI*8), R11
	MOVQ  wt_base+56(FP), R10
	MOVQ  k+176(FP), AX
	CMPQ  AX, $3
	JEQ   bi3
	JGT   bi5

bi1:
	MOVQ   (R8), AX
	VMULSD (R10), X0, X2
	VADDSD (R11)(AX*8), X2, X2
	VMOVSD X2, (R11)(AX*8)
	ADDQ   $8, R8
	ADDQ   $8, R10
	CMPQ   R8, R9
	JLT    bi1
	JMP    bclear

bi3:
	MOVQ    (R8), AX
	VMULPD  (R10), X0, X1
	VADDPD  (R11)(AX*8), X1, X1
	VMOVUPD X1, (R11)(AX*8)
	VMULSD  16(R10), X0, X2
	VADDSD  16(R11)(AX*8), X2, X2
	VMOVSD  X2, 16(R11)(AX*8)
	ADDQ    $24, R8
	ADDQ    $24, R10
	CMPQ    R8, R9
	JLT     bi3
	JMP     bclear

bi5:
	MOVQ    (R8), AX
	VMULPD  (R10), Y0, Y1
	VADDPD  (R11)(AX*8), Y1, Y1
	VMOVUPD Y1, (R11)(AX*8)
	VMULSD  32(R10), X0, X2
	VADDSD  32(R11)(AX*8), X2, X2
	VMOVSD  X2, 32(R11)(AX*8)
	ADDQ    $40, R8
	ADDQ    $40, R10
	CMPQ    R8, R9
	JLT     bi5

bclear:
	LEAQ -1(BX), AX
	ANDQ AX, BX              // drop the lane just done
	JNZ  bbit

bnext:
	ADDQ $4, DX
	JMP  bgroup

bdone:
	MOVQ   gb_base+104(FP), AX
	VMOVSD X4, (AX)
	VZEROUPPER
	RET

// func transpose2x2SSE2(dst, src []float64, rows, cols int)
// dst[c*rows+r] = src[r*cols+c] over the even region r < rows&^1,
// c < cols&^1 (callers finish odd tails). Pure data movement — bit-exact by
// construction. Column pairs are outer and row pairs inner, so the stores
// stream contiguously down two dst rows while the strided loads stay on two
// prefetchable src streams.
TEXT ·transpose2x2SSE2(SB), NOSPLIT, $0-64
	MOVQ dst_base+0(FP), DI
	MOVQ src_base+24(FP), CX
	MOVQ rows+48(FP), R8
	MOVQ cols+56(FP), BX
	MOVQ R8, R9
	SHLQ $3, R9  // rows*8
	MOVQ BX, R11
	SHLQ $3, R11 // cols*8
	XORQ R12, R12

cpair:
	LEAQ 2(R12), AX
	CMPQ AX, BX
	JGT  tdone
	LEAQ (CX)(R12*8), SI  // src + c*8
	MOVQ DI, DX           // dst column c
	LEAQ (DI)(R9*1), R10  // dst column c+1
	XORQ R13, R13

rpair:
	LEAQ 2(R13), AX
	CMPQ AX, R8
	JGT  rdone
	MOVUPD   (SI), X0          // [s(r,c)   s(r,c+1)]
	MOVUPD   (SI)(R11*1), X1   // [s(r+1,c) s(r+1,c+1)]
	MOVAPD   X0, X2
	UNPCKLPD X1, X0            // [s(r,c)   s(r+1,c)]
	MOVUPD   X0, (DX)
	UNPCKHPD X1, X2            // [s(r,c+1) s(r+1,c+1)]
	MOVUPD   X2, (R10)
	LEAQ     (SI)(R11*2), SI
	ADDQ     $16, DX
	ADDQ     $16, R10
	ADDQ     $2, R13
	JMP      rpair

rdone:
	LEAQ (DI)(R9*2), DI
	ADDQ $2, R12
	JMP  cpair

tdone:
	RET
