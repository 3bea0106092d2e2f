package numeric

import "math/rand"

// The generator behind SplitRNG: math/rand's seeded additive lagged-Fibonacci
// source, x[n] = x[n-607] + x[n-273] with each output written over the
// oldest word, reproduced stream for stream. A fleet run owns three
// generators per edge and draws a handful of values from each per slot, so
// what a draw costs is the cache lines it touches, not its one addition. The
// stdlib source chases handle -> source header -> two lines of a 4.9 KB
// register on every draw, and a fleet's registers (150 MB at 10 000 edges)
// are never in cache when their turn comes. This one runs the recurrence
// readAhead outputs at a time into a buffer that lives with the handle, and
// visits the register once per burst.

const (
	rngLen = 607
	rngTap = 273

	// readAhead is how many outputs one visit to the register produces. It
	// makes splitRand 256 bytes, four cache lines. Measured on the
	// 10 000-edge fleet against 24: 8 runs 8 % and 16 runs 3-4 % behind (more
	// visits), 32 and 48 level, 64 behind again (a slot's draws spread over
	// more lines than it needs).
	readAhead = 24

	lcgMod     = 1<<31 - 1 // the seeding chain's modulus, a Mersenne prime
	lcgMul     = 48271
	lcgSeedFix = 89482311 // what the stdlib seeds with when seed ≡ 0 (mod lcgMod)
)

// lfSource is a rand.Source64: the read-ahead a draw is served from, and
// what a refill needs to find its place in the register. The stdlib's second
// cursor, feed, is always rngLen-rngTap ahead of tap, so it is not stored.
type lfSource struct {
	next uint32 // index of the next unread output in buf; readAhead when empty
	tap  uint32
	buf  [readAhead]uint64
	vec  *[rngLen]int64
}

// splitRand is what SplitRNG allocates for the draw path: the handle its
// callers hold and the source that handle dispatches to, in one object, so
// the hop between them stays within adjacent lines. A fleet's splitRands pack
// into a few megabytes that survive in cache from slot to slot; the
// registers do not, and are kept out of the way behind the pointer.
type splitRand struct {
	rand.Rand
	src lfSource
}

func newSplitRand(seed int64) *rand.Rand {
	g := &splitRand{src: lfSource{vec: new([rngLen]int64)}}
	g.src.Seed(seed)
	g.Rand = *rand.New(&g.src)
	return &g.Rand
}

// lcgMulMod returns a·x mod (2³¹−1) for a, x below the modulus. The stdlib
// computes its chain in 32 bits by Schrage's method (two divisions a step);
// the product fits in 62 bits, and 2³¹ ≡ 1 modulo a Mersenne number folds
// the high part onto the low. The modulus is prime, so a nonzero x never
// gives 0.
func lcgMulMod(a, x uint64) uint64 {
	p := a * x
	p = p&lcgMod + p>>31 // < 2³²
	p = p&lcgMod + p>>31 // ≤ 2³¹
	if p >= lcgMod {
		p -= lcgMod
	}
	return p
}

// lcgStart maps a seed to the chain's starting value as the stdlib does:
// reduced into [0, 2³¹−1), with 0 replaced by a fixed constant.
func lcgStart(seed int64) uint64 {
	seed %= lcgMod
	if seed < 0 {
		seed += lcgMod
	}
	if seed == 0 {
		seed = lcgSeedFix
	}
	return uint64(seed)
}

// seedRegister writes the initial register for seed: after 20 warm-up steps
// of the chain x -> 48271·x, three consecutive chain values per word at bit
// offsets 40, 20 and 0, XORed with the additive table. A value three steps on
// is 48271³·x, so the three offsets advance as independent chains and the
// multiplier's latency is paid once per word, not three times.
func seedRegister(vec, table *[rngLen]int64, seed int64) {
	const mul3 = lcgMul * lcgMul % lcgMod * lcgMul % lcgMod
	x := lcgStart(seed)
	for i := 0; i < 20; i++ {
		x = lcgMulMod(lcgMul, x)
	}
	a := lcgMulMod(lcgMul, x)
	b := lcgMulMod(lcgMul, a)
	c := lcgMulMod(lcgMul, b)
	for i := range vec {
		vec[i] = int64(a<<40^b<<20^c) ^ table[i]
		a, b, c = lcgMulMod(mul3, a), lcgMulMod(mul3, b), lcgMulMod(mul3, c)
	}
}

// Seed implements rand.Source: it rebuilds the register from seed and drops
// whatever read-ahead the previous seed left.
func (s *lfSource) Seed(seed int64) {
	s.next = readAhead
	s.tap = 0
	seedRegister(s.vec, &cooked, seed)
}

// fill runs the recurrence readAhead times, exactly as that many calls of the
// stdlib's Uint64 would.
func (s *lfSource) fill() {
	vec := s.vec
	tap := int(s.tap)
	feed := tap + rngLen - rngTap
	if feed >= rngLen {
		feed -= rngLen
	}
	for i := range s.buf {
		tap--
		if tap < 0 {
			tap += rngLen
		}
		feed--
		if feed < 0 {
			feed += rngLen
		}
		x := vec[feed] + vec[tap]
		vec[feed] = x
		s.buf[i] = uint64(x)
	}
	s.tap = uint32(tap)
	s.next = 0
}

// Uint64 implements rand.Source64.
func (s *lfSource) Uint64() uint64 {
	if s.next == readAhead {
		s.fill()
	}
	x := s.buf[s.next]
	s.next++
	return x
}

// Int63 implements rand.Source.
func (s *lfSource) Int63() int64 { return int64(s.Uint64() &^ (1 << 63)) }

// cooked is the seed-independent half of the initial register: the stdlib's
// rngCooked table, which it XORs into the chain's words. The table is 607
// unexported 64-bit constants. Copying them here would put 607 literals under
// this repository's name that nothing could check except against the stdlib,
// so the stdlib is asked for them instead, once, when the package loads: the
// recurrence is invertible, which turns any seeded stdlib source into a
// witness of its own initial state.
var cooked = deriveCooked(1)

func deriveCooked(witness int64) (table [rngLen]int64) {
	src := rand.NewSource(witness).(rand.Source64)

	// Output n is the sum written to vec[feed_n], and 607 consecutive feed
	// positions cover the register once, so 607 outputs are the whole
	// register as it stands after them.
	tap, feed := 0, rngLen-rngTap
	for range table {
		tap = (tap + rngLen - 1) % rngLen
		feed = (feed + rngLen - 1) % rngLen
		table[feed] = int64(src.Uint64())
	}
	// Undo the steps last to first. A step leaves vec[tap] alone, so
	// subtracting it from the sum restores vec[feed].
	for range table {
		table[feed] -= table[tap]
		tap = (tap + 1) % rngLen
		feed = (feed + 1) % rngLen
	}
	// What is left is chain(witness) XOR rngCooked; XOR the chain out.
	var chain, zero [rngLen]int64
	seedRegister(&chain, &zero, witness)
	for i := range table {
		table[i] ^= chain[i]
	}
	return table
}
