package numeric

import (
	"math"
	"math/rand"
)

// Clamp restricts x to [lo, hi].
func Clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

// Positive is the rectifier [x]^+ = max(x, 0) used throughout the paper's
// dual updates.
func Positive(x float64) float64 {
	if x > 0 {
		return x
	}
	return 0
}

// FiniteNonNeg reports 0 <= x < +Inf: the test for a quantity, price, rate
// or emission arriving from a flag, a config or the wire. Stated positively,
// so NaN fails it — x < 0 lets NaN and +Inf through, and one such value
// turns the ledger, the fit and every later slot into NaN with no error
// anywhere.
func FiniteNonNeg(x float64) bool { return 0 <= x && x < math.Inf(1) }

// SplitRNG derives a child RNG from a parent seed and a stream label so that
// independent subsystems (workload, market, bandit sampling, ...) consume
// decorrelated streams while the whole simulation stays reproducible from a
// single seed.
//
// SplitRNG is the repository's single blessed RNG constructor: the nodeterm
// analyzer (internal/analysis/nodeterm, run by cmd/carbonlint) forbids
// rand.New/rand.NewSource everywhere else, so every random draw in the
// system is reachable from (seed, label) and replays bit-for-bit.
//
// Derivation, in order:
//
//  1. an FNV-1a-style hash over the label's bytes. Audit note: the offset
//     basis 1469598103934665603 is the canonical 64-bit FNV basis
//     14695981039346656037 with its final digit dropped — nonstandard, but
//     the SplitMix64 finalizer below makes the choice of basis immaterial
//     for decorrelation, and the value is load-bearing for every pinned
//     stream, so it is documented rather than corrected;
//  2. XOR of that hash into the seed;
//  3. the SplitMix64 finalizer (Steele et al., "Fast Splittable
//     Pseudorandom Number Generators") for avalanche, so labels differing
//     in one bit yield uncorrelated child seeds;
//  4. the mixed value seeds the stream math/rand's rand.NewSource would
//     produce for it, draw for draw — the seed-0 and negative-seed mappings,
//     Seed and Read included. The recurrence is run by this package's own
//     source (rng.go), which keeps a slot's draws next to the handle
//     instead of spread over a 4.9 KB register; the stdlib source is the
//     oracle of the stream-equivalence tests and nothing else.
//
// The mapping from (seed, label) to the child stream is therefore part of
// the repository's compatibility surface — golden results and pinned test
// streams depend on it. TestSplitRNGStreamPinned locks the exact values;
// changing this derivation is a breaking change to every recorded result.
func SplitRNG(seed int64, stream string) *rand.Rand {
	h := uint64(seed)
	// FNV-1a over the stream label, mixed into the seed.
	const (
		offset = 1469598103934665603
		prime  = 1099511628211
	)
	hh := uint64(offset)
	for i := 0; i < len(stream); i++ {
		hh ^= uint64(stream[i])
		hh *= prime
	}
	h ^= hh
	// SplitMix64 finalizer for avalanche.
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return newSplitRand(int64(h))
}

// ApproxEqual reports whether a and b agree to within tol, measured
// relatively for values of magnitude above 1 and absolutely below. It is
// the repository's approved floating-point comparison: the floateq analyzer
// (run by cmd/carbonlint) forbids raw ==/!= between floats outside this
// package. NaN compares unequal to everything, including itself; tol must
// be non-negative.
func ApproxEqual(a, b, tol float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return false
	}
	if a == b {
		// Covers equal infinities and exact hits.
		return true
	}
	if math.IsInf(a, 0) || math.IsInf(b, 0) {
		// Unequal when only one side is infinite (or the signs differ);
		// without this guard the infinite scale below would absorb any
		// finite difference.
		return false
	}
	scale := math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
	return math.Abs(a-b) <= tol*scale
}

// ArgMin returns the index of the smallest element (first on ties), or -1
// for an empty slice.
func ArgMin(xs []float64) int {
	if len(xs) == 0 {
		return -1
	}
	best := 0
	for i, x := range xs {
		if x < xs[best] {
			best = i
		}
	}
	return best
}

// ArgMax returns the index of the largest element (first on ties), or -1 for
// an empty slice.
func ArgMax(xs []float64) int {
	if len(xs) == 0 {
		return -1
	}
	best := 0
	for i, x := range xs {
		if x > xs[best] {
			best = i
		}
	}
	return best
}
