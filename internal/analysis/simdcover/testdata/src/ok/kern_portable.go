package ok

// scaleGo is the portable twin of scaleAVX2 (kern_amd64.go): this file has
// no build constraint and no GOOS/GOARCH suffix, so every architecture
// compiles this very loop — the strongest fallback there is, and it needs no
// !amd64 copy beside it. The same function covers scaleNEON, the arm64
// kernel raw-parsed from qkern_arm64.go.
func scaleGo(x []float64, s float64) {
	for i := range x {
		x[i] *= s
	}
}
