package nn

// The INT8 kernel tier registry: an enumerable view of every dual-row
// dot-product implementation compiled into this binary and usable on this
// host: the generic reference, then avx2 and vnni on amd64 or neon on arm64
// (nothing more elsewhere, or on an amd64 host below the AVX2 floor). nnbench drives it to emit one micro-benchmark per tier (so a perf
// regression in a single tier is visible even when dispatch would hide it
// behind a faster one), and the dispatch-override tests walk it to prove
// tier selection can never change results.

// A QdotTier is one dual-row int8 kernel implementation. Asm tiers require
// k >= 16 and k % 16 == 0 — the same domain the dispatcher guarantees them
// (the engine pads every weight and im2col row to padTo16); callers of the
// registry must respect it.
type QdotTier struct {
	Name string
	// Qdot2 computes out0[j] = dot(a0, b row j) and out1[j] = dot(a1, b
	// row j) for j < n, rows of length k.
	Qdot2 func(out0, out1 []int32, a0, a1, b []int8, n, k int)
}

// QdotTiers lists the tiers available on this host, the generic reference
// first — every later entry must be bit-identical to it on every input
// (the cross-tier equivalence tests pin exactly that).
func QdotTiers() []QdotTier {
	ref := QdotTier{Name: "generic", Qdot2: func(out0, out1 []int32, a0, a1, b []int8, n, k int) {
		qdotRowRef(out0, a0, b, n, k)
		qdotRowRef(out1, a1, b, n, k)
	}}
	return append([]QdotTier{ref}, archQdotTiers()...)
}
