package numeric

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
	"unsafe"
)

// The stdlib source is the oracle for everything below: newSplitRand(seed)
// must be indistinguishable from rand.New(rand.NewSource(seed)) through every
// method of rand.Rand, for every seed.

// numOps is how many different calls sameDraw can make.
const numOps = 11

// sameDraw makes one call, picked by op, on both generators and reports
// whether they agreed. Float results are compared by bits.
func sameDraw(got, want *rand.Rand, op int) bool {
	switch op % numOps {
	case 0:
		return got.Int63() == want.Int63()
	case 1:
		return got.Uint64() == want.Uint64()
	case 2:
		return got.Uint32() == want.Uint32()
	case 3:
		return math.Float64bits(got.Float64()) == math.Float64bits(want.Float64())
	case 4:
		return math.Float64bits(got.NormFloat64()) == math.Float64bits(want.NormFloat64())
	case 5:
		return math.Float64bits(got.ExpFloat64()) == math.Float64bits(want.ExpFloat64())
	case 6:
		n := 1 + op%1000
		return got.Intn(n) == want.Intn(n)
	case 7:
		n := op % 9
		a, b := got.Perm(n), want.Perm(n)
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	case 8:
		var a, b [7]int
		got.Shuffle(len(a), func(i, j int) { a[i], a[j] = a[j]+i, a[i]+j })
		want.Shuffle(len(b), func(i, j int) { b[i], b[j] = b[j]+i, b[i]+j })
		return a == b
	case 9:
		// Odd lengths leave rand.Rand holding part of an Int63 for the next
		// Read, which an interleaved Seed must discard.
		a, b := make([]byte, op%13), make([]byte, op%13)
		got.Read(a)
		want.Read(b)
		return bytes.Equal(a, b)
	default:
		return got.Int31n(1<<20+1) == want.Int31n(1<<20+1)
	}
}

// sameStream plays draws calls on both generators, choosing each from a side
// stream so that no call pattern lines up with the read-ahead.
func sameStream(t *testing.T, seed int64, draws int) {
	t.Helper()
	got, want := newSplitRand(seed), rand.New(rand.NewSource(seed))
	pick := newSplitRand(seed ^ 0x5eed)
	for i := 0; i < draws; i++ {
		op := int(pick.Int31())
		if !sameDraw(got, want, op) {
			t.Fatalf("seed %d: call %d (op %d) differs from math/rand", seed, i, op%numOps)
		}
	}
}

func TestSplitRandMatchesStdlibStream(t *testing.T) {
	const m = 1<<31 - 1
	seeds := []int64{
		0, 1, -1, 2, -2, math.MinInt64, math.MaxInt64, math.MinInt64 + 1,
		m, -m, 2 * m, -2 * m, 3 * m, m * m, -m * m, // all seed as 89482311
		m - 1, m + 1, -m - 1, -m + 1, 1 << 31, 1 << 32, -(1 << 31), 1<<62 + 1,
		lcgSeedFix, 44488, 48271,
	}
	pick := SplitRNG(13, "seeds")
	for len(seeds) < 1100 {
		seeds = append(seeds, int64(pick.Uint64()))
	}
	for _, seed := range seeds {
		// Past the first 607 outputs, where every seeded word has entered
		// the sums, and across a hundred refills.
		sameStream(t, seed, 3200)
	}
}

func TestSplitRandSeedsZeroClassAlike(t *testing.T) {
	const m = 1<<31 - 1
	want := newSplitRand(lcgSeedFix).Uint64()
	for _, seed := range []int64{0, m, -m, 5 * m, m * m} {
		if got := newSplitRand(seed).Uint64(); got != want {
			t.Errorf("seed %d: first output %#x, want seed 89482311's %#x", seed, got, want)
		}
	}
}

// TestSplitRandReseed re-seeds at every offset into the read-ahead: whatever
// was generated ahead under the old seed must not leak into the new stream,
// and a byte left over from Read must be dropped as the stdlib drops it.
func TestSplitRandReseed(t *testing.T) {
	for used := 0; used <= 2*readAhead+1; used++ {
		got, want := newSplitRand(5), rand.New(rand.NewSource(5))
		for i := 0; i < used; i++ {
			got.Uint64()
			want.Uint64()
		}
		var a, b [3]byte
		got.Read(a[:])
		want.Read(b[:])
		got.Seed(-9)
		want.Seed(-9)
		got.Read(a[:])
		want.Read(b[:])
		if a != b {
			t.Fatalf("after %d draws and a re-seed: Read gave %v, math/rand %v", used, a, b)
		}
		for i := 0; i < 3*rngLen; i++ {
			if g, w := got.Uint64(), want.Uint64(); g != w {
				t.Fatalf("after %d draws and a re-seed: output %d = %#x, math/rand %#x", used, i, g, w)
			}
		}
	}
}

// TestCookedTableIndependentOfWitness derives the additive table from other
// stdlib sources than the one package init used. A mistake in the inversion
// or in the chain would leave a seed-dependent residue in the table.
func TestCookedTableIndependentOfWitness(t *testing.T) {
	for _, witness := range []int64{2, -1, 0, 987654321987, math.MinInt64} {
		if deriveCooked(witness) != cooked {
			t.Errorf("table derived from seed %d differs from the one derived at init", witness)
		}
	}
}

// TestLCGMulModMatchesSchrage checks the Mersenne fold against the stdlib's
// 32-bit formulation of one chain step, on boundary values and a long run,
// and the three-step multiplier against three single steps.
func TestLCGMulModMatchesSchrage(t *testing.T) {
	schrage := func(x int32) int32 {
		const (
			a = 48271
			q = 44488
			r = 3399
		)
		hi, lo := x/q, x%q
		x = a*lo - r*hi
		if x < 0 {
			x += lcgMod
		}
		return x
	}
	const mul3 = lcgMul * lcgMul % lcgMod * lcgMul % lcgMod
	check := func(x uint64) uint64 {
		got, want := lcgMulMod(lcgMul, x), uint64(schrage(int32(x)))
		if got != want || got == 0 || got >= lcgMod {
			t.Fatalf("lcgMulMod(48271, %d) = %d, Schrage gives %d", x, got, want)
		}
		three := uint64(schrage(schrage(int32(want))))
		if got := lcgMulMod(mul3, x); got != three {
			t.Fatalf("lcgMulMod(48271³, %d) = %d, three Schrage steps give %d", x, got, three)
		}
		return got
	}
	for _, x := range []uint64{1, 2, 44487, 44488, 44489, lcgMod / lcgMul, lcgMod/lcgMul + 1, lcgMod / 2, lcgMod - 2, lcgMod - 1} {
		check(x)
	}
	x := uint64(1)
	for i := 0; i < 1<<20; i++ {
		x = check(x)
	}
}

func TestSplitRandFootprint(t *testing.T) {
	// Not a contract, a tripwire: the draw path is laid out to fill whole
	// cache lines, and a field added to rand.Rand or lfSource would spill it
	// into the next allocator size class unnoticed.
	if size := unsafe.Sizeof(splitRand{}); size != 256 {
		t.Errorf("splitRand is %d bytes, want 256", size)
	}
	g := newSplitRand(1)
	if n := testing.AllocsPerRun(1000, func() { sinkU64 += g.Uint64() + uint64(g.Intn(10)) }); n != 0 {
		t.Errorf("drawing allocates %v objects per call", n)
	}
}

var (
	sinkRand *rand.Rand
	sinkU64  uint64
)

func FuzzSplitRNGStream(f *testing.F) {
	f.Add(int64(0), uint16(700))
	f.Add(int64(-1), uint16(readAhead+1))
	f.Add(int64(math.MinInt64), uint16(3000))
	f.Add(int64(1<<31-1), uint16(1))
	f.Fuzz(func(t *testing.T, seed int64, draws uint16) {
		sameStream(t, seed, int(draws))
		// And once more with a re-seed part of the way in.
		got, want := newSplitRand(seed), rand.New(rand.NewSource(seed))
		for i := 0; i < int(draws%97); i++ {
			if !sameDraw(got, want, i) {
				t.Fatalf("seed %d: call %d differs from math/rand", seed, i)
			}
		}
		got.Seed(seed + int64(draws))
		want.Seed(seed + int64(draws))
		for i := 0; i < 2*readAhead; i++ {
			if !sameDraw(got, want, i+int(draws)) {
				t.Fatalf("seed %d re-seeded %d: call %d differs from math/rand", seed, seed+int64(draws), i)
			}
		}
	})
}

// BenchmarkSplitRNGFleetSweep is the access pattern a fleet run has: 30 000
// generators (10 000 edges' policy, stream and loss streams), each asked for a
// few values before the next one's turn, so that by the time a generator is
// visited again its state has left the cache. A hot loop over one generator
// measures the addition; this measures the misses.
func BenchmarkSplitRNGFleetSweep(b *testing.B) {
	const gens, draws = 30000, 5
	fleet := make([]*rand.Rand, gens)
	for i := range fleet {
		fleet[i] = SplitRNG(int64(i), "sweep")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, g := range fleet {
			for k := 0; k < draws; k++ {
				sinkU64 += g.Uint64()
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/gens, "ns/visit")
}

func BenchmarkSplitRNGSeed(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sinkRand = SplitRNG(int64(i), "seed")
	}
}
