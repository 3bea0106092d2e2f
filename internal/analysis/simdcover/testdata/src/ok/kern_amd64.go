//go:build amd64

// Package ok mirrors the nn SIMD layout: a bodyless asm kernel, a
// dispatching wrapper, a !amd64 fallback with the kernel's signature, and a
// simd*_test.go pinning the kernel. Nothing here should be flagged.
package ok

// addAVX2 is implemented in kern_amd64.s.
func addAVX2(x, y []float64)

func addSIMD(x, y []float64) { addAVX2(x, y) }

// scaleAVX2 falls back to scaleGo in kern_portable.go, a file built on every
// architecture; amd64 below its floor calls that same function.
func scaleAVX2(x []float64, s float64)

func scaleSIMD(x []float64, s float64) {
	if len(x) >= 8 {
		scaleAVX2(x, s)
		return
	}
	scaleGo(x, s)
}
