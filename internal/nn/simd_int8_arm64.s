// NEON tier of the INT8 kernels. Same contract as the amd64 tiers: int32
// two's-complement wraparound accumulation, associative, so any lane
// regrouping is bit-identical to qdotRowRef. The multiply-accumulate core is
// SMULL/SMULL2 (exact: |product| <= 127*127, far inside int16) followed by
// SADALP, which pairwise-widens the int16 products into the int32
// accumulator lanes. Go's arm64 assembler has no mnemonics for the vector
// forms of SMULL/SMULL2/SADALP, so those three are WORD-encoded; the
// encodings are fixed register assignments documented per line and verified
// against `go tool objdump` (see simd_int8_arm64_test.go for the runtime
// pin on arm64 hosts).
//
// The kernel requires k >= 16 and k % 16 == 0 — the dispatcher
// (simd_int8_arm64.go) routes everything else to the scalar reference.

#include "textflag.h"

// func qdot2NEON(out0, out1 []int32, a0, a1, b []int8, n, k int)
//
// Dual-row form: each 16-byte step of the b row is loaded once and multiplied
// against both a rows, halving the b traffic exactly like the amd64
// batch-tiled kernels (the engine's ForwardBatch pairs rows through this).
TEXT ·qdot2NEON(SB), NOSPLIT, $0-136
	MOVD out0_base+0(FP), R0
	MOVD out1_base+24(FP), R1
	MOVD a0_base+48(FP), R2
	MOVD a1_base+72(FP), R3
	MOVD b_base+96(FP), R4
	MOVD n+120(FP), R5
	MOVD k+128(FP), R6
	MOVD $0, R7 // j

n2_jloop:
	CMP  R5, R7
	BGE  n2_done
	MUL  R6, R7, R8
	ADD  R4, R8, R8 // R8 = &b[j*k]
	MOVD R2, R9     // a0 cursor
	MOVD R3, R10    // a1 cursor
	VEOR V4.B16, V4.B16, V4.B16 // acc row 0
	VEOR V5.B16, V5.B16, V5.B16 // acc row 1
	MOVD R6, R11    // bytes remaining

n2_kloop:
	VLD1.P 16(R9), [V0.B16]
	VLD1.P 16(R10), [V1.B16]
	VLD1.P 16(R8), [V2.B16]
	WORD $0x0E22C008 // SMULL  V8.8H, V0.8B, V2.8B
	WORD $0x4E22C009 // SMULL2 V9.8H, V0.16B, V2.16B
	WORD $0x4E606904 // SADALP V4.4S, V8.8H
	WORD $0x4E606924 // SADALP V4.4S, V9.8H
	WORD $0x0E22C02A // SMULL  V10.8H, V1.8B, V2.8B
	WORD $0x4E22C02B // SMULL2 V11.8H, V1.16B, V2.16B
	WORD $0x4E606945 // SADALP V5.4S, V10.8H
	WORD $0x4E606965 // SADALP V5.4S, V11.8H
	SUBS $16, R11
	BNE  n2_kloop

	VADDV V4.S4, V4
	VADDV V5.S4, V5
	VMOV  V4.S[0], R12
	VMOV  V5.S[0], R13
	MOVW  R12, (R0)(R7<<2)
	MOVW  R13, (R1)(R7<<2)
	ADD   $1, R7
	B     n2_jloop

n2_done:
	RET
