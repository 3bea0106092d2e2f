//go:build !amd64 && !arm64

package nn

// Generic tier of the INT8 kernels: the scalar reference loops ARE the
// semantics every vector tier (amd64 AVX2/VNNI, arm64 NEON) reproduces bit
// for bit — int32 wraparound accumulation is associative, so lane regrouping
// cannot change the result — and they are what an amd64 host below the AVX2
// floor runs too. The float dispatchers live in simd_generic.go (!amd64);
// this file is split out because arm64 has its own int8 dispatch
// (simd_int8_arm64.go) but shares the portable float path.

// qdot2SIMD is the generic tier of the dual-row INT8 kernel: the vector
// versions share b loads across both rows, which cannot change the
// wraparound sums, so two reference passes are bit-identical.
func qdot2SIMD(out0, out1 []int32, a0, a1, b []int8, n, k int) {
	qdotRowRef(out0, a0, b, n, k)
	qdotRowRef(out1, a1, b, n, k)
}

// requantizeRow is the generic tier of the row requantizer: the scalar loop
// in qkernels.go IS the semantics (the amd64 AVX-512 kernel replays the same
// int64 expression lane for lane).
func requantizeRow(dst []int8, acc []int32, bias, m int32, shift int, lo int8) {
	requantizeRowScalar(dst, acc, bias, m, shift, lo)
}
