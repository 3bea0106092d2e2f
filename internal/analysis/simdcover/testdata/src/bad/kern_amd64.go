//go:build amd64

// Package bad plants one violation per rule: a kernel with neither fallback
// nor test, one whose fallback signature drifted, one nobody pins, and one
// whose missing scalar twin is deliberate and annotated.
package bad

// mulAVX2 has no generic twin at all and no pinning test.
func mulAVX2(x []float64, s float64) // want `mulAVX2 has no generic fallback` `mulAVX2 is not referenced by any simd`

// subAVX2 is pinned by a test, but its fallback grew an extra result.
func subAVX2(x, y []float64) // want `subAVX2 has no generic fallback`

// dotAVX2 falls back correctly, but nothing pins it bit for bit.
func dotAVX2(out, a, b []float64, n int) // want `dotAVX2 is not referenced by any simd`

// tile4x8AVX2 deliberately has no scalar twin: on !amd64 its quad driver
// returns zero rows handled and the row path takes over.
func tile4x8AVX2(out []float64, on int) //lint:allow simdcover register tile falls back through the row path

// clampAVX2 is pinned, and a bodied function with its signature is even
// loaded in this build — but it is the dispatch wrapper below, in this
// amd64-only file. Only a file built on every architecture (or a
// build-tag-excluded one) can hold a fallback; other builds have nothing.
func clampAVX2(x []float64, lo, hi float64) // want `clampAVX2 has no generic fallback`

func clampSIMD(x []float64, lo, hi float64) { clampAVX2(x, lo, hi) }
