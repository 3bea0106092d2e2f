//go:build arm64

package nn

import (
	"math/rand"
	"testing"
)

// Cross-tier bit-identity for the NEON INT8 kernel: qdot2NEON must reproduce
// qdotRowRef's int32 wraparound bits on its whole vector-width-multiple
// domain (the dispatcher routes everything else to the reference), on two
// distinct rows and on one row passed as both (out0 == out1, a0 == a1), the
// pair qgemmNT runs an odd last row as. This is the arm64 counterpart of
// TestQdot2TiersBitIdentical: it runs on arm64 hardware or under emulation,
// and is the runtime pin for the WORD-encoded SMULL/SMULL2/SADALP core.
func TestQdotNEONTiersBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(103))
	for _, k := range []int{16, 32, 48, 64, 160, 400} {
		for _, n := range []int{1, 2, 3, 5, 7, 8, 11} {
			a0 := randInt8(rng, k)
			a1 := randInt8(rng, k)
			b := randInt8(rng, n*k)
			for p := 0; p < k; p++ { // ±127 extremes in row 0 of b
				if p%2 == 0 {
					b[p] = 127
				} else {
					b[p] = -127
				}
			}
			for p := 0; p < k; p++ { // all-(-128) a1: extreme row sums
				a1[p] = -128
			}
			want0, want1 := make([]int32, n), make([]int32, n)
			qdotRowRef(want0, a0, b, n, k)
			qdotRowRef(want1, a1, b, n, k)
			got := make([]int32, n)
			qdot2NEON(got, got, a1, a1, b, n, k)
			for j := range want1 {
				if got[j] != want1[j] {
					t.Fatalf("qdot2NEON aliased n=%d k=%d row %d: %d != ref %d", n, k, j, got[j], want1[j])
				}
			}
			got0, got1 := make([]int32, n), make([]int32, n)
			qdot2NEON(got0, got1, a0, a1, b, n, k)
			for j := range want0 {
				if got0[j] != want0[j] || got1[j] != want1[j] {
					t.Fatalf("qdot2NEON n=%d k=%d row %d: (%d, %d) != ref (%d, %d)",
						n, k, j, got0[j], got1[j], want0[j], want1[j])
				}
			}
		}
	}
	// Random fuzz over the same domain.
	for iter := 0; iter < 150; iter++ {
		k := 16 * (1 + rng.Intn(25))
		n := 1 + rng.Intn(13)
		a0 := randInt8(rng, k)
		a1 := randInt8(rng, k)
		b := randInt8(rng, n*k)
		want0, want1 := make([]int32, n), make([]int32, n)
		qdotRowRef(want0, a0, b, n, k)
		qdotRowRef(want1, a1, b, n, k)
		got0, got1 := make([]int32, n), make([]int32, n)
		qdot2NEON(got0, got1, a0, a1, b, n, k)
		for j := range want0 {
			if got0[j] != want0[j] || got1[j] != want1[j] {
				t.Fatalf("NEON fuzz n=%d k=%d row %d: (%d, %d) != ref (%d, %d)",
					n, k, j, got0[j], got1[j], want0[j], want1[j])
			}
		}
		got := make([]int32, n)
		qdot2NEON(got, got, a0, a0, b, n, k)
		for j := range want0 {
			if got[j] != want0[j] {
				t.Fatalf("NEON fuzz aliased n=%d k=%d row %d: %d != ref %d", n, k, j, got[j], want0[j])
			}
		}
	}
}
