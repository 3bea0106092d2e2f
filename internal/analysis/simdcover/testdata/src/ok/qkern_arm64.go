//go:build arm64

package ok

// qdotInt8NEON is the arm64 tier of the int8 kernel family. On an amd64
// test host this file is excluded from the build, so the kernel is checked
// through the raw-parse path: its fallback is qkern_generic.go's
// qdotInt8SIMD (identical signature, different file) and its pinning test
// is simd_arm64_ok_test.go (raw-parsed regardless of build tags).
func qdotInt8NEON(out []int32, a, b []int8, n, k int)

// cpuProbeARM64 mirrors the feature-probe exemption: no scalar twin exists,
// and the directive must be honored by the excluded-file scan itself.
func cpuProbeARM64() (a, b uint64) //lint:allow simdcover CPU feature probe, no scalar semantics to mirror

// scaleNEON has no fallback in any excluded file: kern_portable.go's
// scaleGo, loaded in every build, covers it.
func scaleNEON(x []float64, s float64)
