//go:build amd64

package nn

// Runtime CPU feature detection. The support floor on amd64 is AVX2
// (x86-64-v3), but AVX2 is not part of the GOAMD64=v1 baseline a default
// build targets, so the vector kernels dispatch behind these flags and a
// host below the floor runs the portable Go kernels instead
// (simd_portable.go, qdotRowRef). Dispatch cannot affect results: every
// kernel performs the identical per-element IEEE operations in the identical
// order as the portable loop (see simd_amd64.go), so a run on a pre-AVX2
// host is bit-for-bit the same as a run here — only slower. Tests may force
// a flag off, never on.

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32) //lint:allow simdcover CPU feature probe, not a data kernel; there is no scalar semantics to mirror

func xgetbv0() (eax, edx uint32) //lint:allow simdcover CPU feature probe, not a data kernel; there is no scalar semantics to mirror

var hasAVX2 = func() bool {
	maxID, _, _, _ := cpuid(0, 0)
	if maxID < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, c, _ := cpuid(1, 0); c&osxsave == 0 || c&avx == 0 {
		return false
	}
	// The OS must save/restore XMM and YMM state (XCR0 bits 1 and 2).
	if eax, _ := xgetbv0(); eax&0x6 != 0x6 {
		return false
	}
	_, b, _, _ := cpuid(7, 0)
	return b&(1<<5) != 0
}()

// hasAVX512 gates the plain AVX-512 integer kernels (requantizeRowAVX512's
// zmm int64 arithmetic). Beyond the AVX2 preconditions it needs AVX512F +
// AVX512VL (leaf 7 EBX bits 16 and 31) and an OS that saves the opmask/ZMM
// state (XCR0 bits 5-7).
var hasAVX512 = func() bool {
	if !hasAVX2 {
		return false
	}
	const xmmYmm, opmaskZmm = 0x6, 0xe0
	if eax, _ := xgetbv0(); eax&(xmmYmm|opmaskZmm) != xmmYmm|opmaskZmm {
		return false
	}
	_, b, _, _ := cpuid(7, 0)
	const avx512f, avx512vl = 1 << 16, 1 << 31
	return b&avx512f != 0 && b&avx512vl != 0
}()

// hasVNNI gates the AVX-512 VNNI tier of the integer GEMM kernels (VPDPBUSD
// over zmm plus the AVX512VL xmm remainder forms): hasAVX512 plus the
// AVX512VNNI bit (leaf 7 ECX bit 11).
var hasVNNI = func() bool {
	if !hasAVX512 {
		return false
	}
	_, _, c, _ := cpuid(7, 0)
	return c&(1<<11) != 0
}()
