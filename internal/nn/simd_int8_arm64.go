//go:build arm64

package nn

// NEON tier of the INT8 inference kernels (simd_int8_arm64.s). The contract
// is identical to the amd64 tiers: int32 wraparound accumulation is
// associative, so the vector lane regrouping reproduces qdotRowRef's bits
// exactly — AVX2 == VNNI == NEON == generic on every input. The
// arm64 bit-identity test (simd_int8_arm64_test.go) pins the kernel
// against the scalar reference when run on arm64 hardware or under
// emulation; amd64 CI additionally cross-builds and vets this file so
// encoding regressions surface without an arm64 host.

// qdot2NEON is the dual-row NEON kernel: 16 int8 MACs per step via
// SMULL/SMULL2 into int16 products (exact, |p| <= 127*127) and SADALP
// pairwise widening accumulation into four int32 lanes, each 16-byte block of
// the b row loaded once and multiplied against both a rows, mirroring the
// amd64 batch-tiled kernels' b-sharing. Requires k >= 16 and k % 16 == 0 —
// the dispatcher enforces it.
//
//go:noescape
func qdot2NEON(out0, out1 []int32, a0, a1, b []int8, n, k int)

// qdot2SIMD dispatches the dual-row kernel exactly like the amd64 version:
// the asm tier only handles vector-width multiples (the engine pads every
// weight and im2col row to padTo16, so this is the hot case), and the rows
// may be one row passed twice.
func qdot2SIMD(out0, out1 []int32, a0, a1, b []int8, n, k int) {
	if k >= 16 && k%16 == 0 {
		qdot2NEON(out0, out1, a0, a1, b, n, k)
		return
	}
	qdotRowRef(out0, a0, b, n, k)
	qdotRowRef(out1, a1, b, n, k)
}

// requantizeRow has no NEON tier yet: the scalar loop in qkernels.go is the
// semantics, and profiling on amd64 showed it only dominates once the GEMM
// itself is vectorized wider than this tier goes.
func requantizeRow(dst []int8, acc []int32, bias, m int32, shift int, lo int8) {
	requantizeRowScalar(dst, acc, bias, m, shift, lo)
}
