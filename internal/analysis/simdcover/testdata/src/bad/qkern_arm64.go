//go:build arm64

package bad

// Arm64 violations, checked from any host through the excluded-file scan.

// mulNEON has no generic twin anywhere and no pinning test.
func mulNEON(x []float32, s float32) // want `mulNEON .* has no generic fallback` `mulNEON .* is not referenced by any simd`

// dotNEON is pinned by simd_neon_bad_test.go, but the only bodied function
// with its signature sits in this same file — a dispatch wrapper in the
// kernel's own build is not a fallback.
func dotNEON(out []float32, a, b []float32, n int) // want `dotNEON .* has no generic fallback .* outside its own file`

func dotNEONSIMD(out []float32, a, b []float32, n int) {
	dotNEON(out, a, b, n)
}
