//go:build amd64

package nn

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// The dispatch wrappers pick one variant per length, so on any given host
// half the bodies would go untested through them. Pin every variant
// directly: the portable Go loop always, AVX2 when the host has it.

// eachDispatchFloor calls fn once per support floor this host can stand on,
// native first, by force-disabling the CPUID feature flags cumulatively:
// VNNI off, then AVX-512 off, then AVX2 off — at which point the dispatchers
// run the portable Go kernels, exactly as on a host below the amd64 floor.
// Flags are only ever force-DISABLED (forcing one on would execute
// instructions the host may lack) and are restored on return.
func eachDispatchFloor(fn func(floor string)) {
	saveAVX2, saveVNNI, saveAVX512 := hasAVX2, hasVNNI, hasAVX512
	defer func() { hasAVX2, hasVNNI, hasAVX512 = saveAVX2, saveVNNI, saveAVX512 }()
	fn("native")
	hasVNNI = false
	fn("no-vnni")
	hasAVX512 = false
	fn("no-avx512")
	hasAVX2 = false
	fn("no-avx2")
}

// BenchmarkDispatchFloors times the float forward, INT8 forward and training
// benchmarks at every floor: the measured cost of each tier the support
// policy keeps, and of standing below the floor (DESIGN.md §9 "Supported
// platforms" quotes this table).
func BenchmarkDispatchFloors(b *testing.B) {
	eachDispatchFloor(func(floor string) {
		b.Run(floor, func(b *testing.B) {
			b.Run("NetworkForwardBatch", BenchmarkNetworkForwardBatch)
			b.Run("QuantNetworkForwardBatch", BenchmarkQuantNetworkForwardBatch)
			b.Run("TrainEpoch", BenchmarkTrainEpoch)
		})
	})
}

func TestReluVariantsMatchScalarBitForBit(t *testing.T) {
	rng := rand.New(rand.NewSource(82))
	fwd := map[string]func([]float64, []float64){"go": reluFwdGo}
	bwd := map[string]func([]float64, []float64, []float64){"go": reluBwdGo}
	if hasAVX2 {
		fwd["avx2"] = reluFwdAVX2
		bwd["avx2"] = reluBwdAVX2
	}
	for name, fn := range fwd {
		for n := 0; n <= 40; n++ {
			src := simdCases(rng, n)
			got := simdCases(rng, n)
			fn(got, src)
			for i, v := range src {
				want := 0.0
				if v > 0 {
					want = v
				}
				if math.Float64bits(got[i]) != math.Float64bits(want) {
					t.Fatalf("fwd %s n=%d i=%d src=%v: got %x want %x", name, n, i, v,
						math.Float64bits(got[i]), math.Float64bits(want))
				}
			}
		}
	}
	for name, fn := range bwd {
		for n := 0; n <= 40; n++ {
			in := simdCases(rng, n)
			grad := simdCases(rng, n)
			got := simdCases(rng, n)
			fn(got, grad, in)
			for i := range in {
				want := 0.0
				if in[i] > 0 {
					want = grad[i]
				}
				if math.Float64bits(got[i]) != math.Float64bits(want) {
					t.Fatalf("bwd %s n=%d i=%d in=%v grad=%v: got %x want %x", name, n, i,
						in[i], grad[i], math.Float64bits(got[i]), math.Float64bits(want))
				}
			}
		}
	}
}

func TestStepVariantsMatchScalarBitForBit(t *testing.T) {
	rng := rand.New(rand.NewSource(84))
	variants := map[string]func(float64, float64, []float64, []float64){"go": stepGo}
	if hasAVX2 {
		variants["avx2"] = stepAVX2
	}
	for name, fn := range variants {
		for n := 0; n <= 40; n++ {
			lr, scale := rng.NormFloat64(), rng.NormFloat64()
			g := simdCases(rng, n)
			p := simdCases(rng, n)
			want := append([]float64(nil), p...)
			for j := range want {
				want[j] -= lr * g[j] / scale
			}
			got := append([]float64(nil), p...)
			fn(lr, scale, g, got)
			for j := range want {
				if !sameBits(got[j], want[j]) {
					t.Fatalf("%s n=%d j=%d: got %x want %x", name, n, j,
						math.Float64bits(got[j]), math.Float64bits(want[j]))
				}
			}
		}
	}
}

func TestPool2x2SSE2MatchesScalarBitForBit(t *testing.T) {
	rng := rand.New(rand.NewSource(86))
	for n := 0; n <= 33; n++ {
		row0 := simdCases(rng, 2*n)
		row1 := simdCases(rng, 2*n)
		got := simdCases(rng, n)
		pool2x2SSE2(got, row0, row1)
		for x := 0; x < n; x++ {
			best := row0[2*x]
			for _, c := range []float64{row0[2*x+1], row1[2*x], row1[2*x+1]} {
				if c > best {
					best = c
				}
			}
			if !sameBits(got[x], best) {
				t.Fatalf("n=%d x=%d: got %x want %x", n, x,
					math.Float64bits(got[x]), math.Float64bits(best))
			}
		}
	}
}

func TestTranspose2x2SSE2CoversEvenRegionBitForBit(t *testing.T) {
	rng := rand.New(rand.NewSource(87))
	for _, rows := range []int{0, 1, 2, 3, 5, 8, 13} {
		for _, cols := range []int{0, 1, 2, 3, 4, 7, 16} {
			src := simdCases(rng, rows*cols)
			const sentinel = -12345.5
			got := make([]float64, rows*cols)
			for i := range got {
				got[i] = sentinel
			}
			transpose2x2SSE2(got, src, rows, cols)
			r2, c2 := rows&^1, cols&^1
			for r := 0; r < rows; r++ {
				for c := 0; c < cols; c++ {
					want := sentinel // odd-tail elements are the wrapper's job
					if r < r2 && c < c2 {
						want = src[r*cols+c]
					}
					if !sameBits(got[c*rows+r], want) {
						t.Fatalf("rows=%d cols=%d r=%d c=%d: got %x want %x", rows, cols, r, c,
							math.Float64bits(got[c*rows+r]), math.Float64bits(want))
					}
				}
			}
		}
	}
}

// TestConvBwdAVX2MatchesGoTwin hands the AVX2 backward kernel and its
// portable twin the same channel plane, sample and tables and requires the
// same bits in gw, gb and gi, for k in {1, 3, 5}, with and without an input
// gradient, over odd plane widths and plane sizes that leave every tail
// length (oh*ow mod 4 = 0..3). The gradient plane is mostly zeros of both
// signs, with NaN and infinities among the rest. Every buffer sits inside a
// guard band: the kernel's gw, gb and gi must match the twin's element for
// element including the guards (nothing written outside its slice), and the
// gradient plane is followed by nonzero guards it must not read as its own.
func TestConvBwdAVX2MatchesGoTwin(t *testing.T) {
	if !hasAVX2 {
		t.Skip("host lacks AVX2")
	}
	const guard = 5
	band := func(rng *rand.Rand, n int) []float64 { return simdCases(rng, n+2*guard) }
	rng := rand.New(rand.NewSource(90))
	for _, k := range []int{1, 3, 5} {
		for _, inC := range []int{1, 2, 5} {
			for _, ow := range []int{1, 3, 5, 7, 9, 13} {
				for _, oh := range []int{1, 2, 3, 4, 7} {
					h, w := oh+k-1, ow+k-1
					kk, np := inC*k*k, oh*ow
					offs := convOffsets(NewArena(), inC, h, w, k)
					g := make([]float64, np+guard)
					for i := range g {
						switch {
						case i >= np:
							g[i] = 1
						case rng.Intn(3) == 0:
							g[i] = simdCases(rng, 1)[0]
						case rng.Intn(2) == 0:
							g[i] = math.Copysign(0, -1)
						}
					}
					in := band(rng, inC*h*w)[guard:][:inC*h*w]
					wt := band(rng, kk)[guard:][:kk]
					for _, wantIn := range []bool{false, true} {
						gw, gb, gi := band(rng, kk), band(rng, 1), band(rng, inC*h*w)
						wantGW, wantGB, wantGI := slices.Clone(gw), slices.Clone(gb), slices.Clone(gi)
						sub := func(s []float64, n int) []float64 { return s[guard : guard+n] }
						var giIn, wantGIIn []float64
						if wantIn {
							giIn, wantGIIn = sub(gi, inC*h*w), sub(wantGI, inC*h*w)
						}
						convBwdGo(g[:np], ow, in, wt, sub(wantGW, kk), sub(wantGB, 1), wantGIIn, offs, k)
						convBwdAVX2(g[:np], ow, in, wt, sub(gw, kk), sub(gb, 1), giIn, offs, k)
						for _, c := range []struct {
							name      string
							got, want []float64
						}{{"gw", gw, wantGW}, {"gb", gb, wantGB}, {"gi", gi, wantGI}} {
							for i := range c.want {
								if !sameBits(c.got[i], c.want[i]) {
									t.Fatalf("k=%d inC=%d out=%dx%d wantIn=%v: %s[%d] (guard %d) = %x, twin %x", k, inC, oh, ow, wantIn,
										c.name, i-guard, guard, math.Float64bits(c.got[i]), math.Float64bits(c.want[i]))
								}
							}
						}
					}
				}
			}
		}
	}
}

// TestConvDirect4x8AVX2MatchesGoTwin hands the AVX2 convolution tile and its
// portable twin the same tables and the same four channels and requires the
// same bits in every output element, over kernel sizes, channel depths and
// widths that put the last segment at every overlap (and, with one output
// row, an odd segment count), under both epilogues: plain, and ReLU + 2x2
// pool over odd and even conv outputs. Outputs start as garbage so a skipped
// lane shows.
func TestConvDirect4x8AVX2MatchesGoTwin(t *testing.T) {
	if !hasAVX2 {
		t.Skip("host lacks AVX2")
	}
	rng := rand.New(rand.NewSource(89))
	for _, pool := range []bool{false, true} {
		for _, k := range []int{1, 3, 5} {
			for _, inC := range []int{1, 3, 8} {
				for _, ow := range []int{4, 5, 6, 7, 8, 11, 26} {
					for _, oh := range []int{1, 2, 5} {
						h, w := oh+k-1, ow+k-1
						kk, np := inC*k*k, oh*ow
						if pool {
							np = (oh / 2) * (ow / 2)
						}
						offs, segs, sw := convDirectTables(NewArena(), inC, h, w, k, 4, pool)
						in := simdCases(rng, inC*h*w)
						wt := simdCases(rng, 4*kk)
						bias := simdCases(rng, 4)
						want := simdCases(rng, 4*np)
						got := simdCases(rng, 4*np)
						convDirectGo(want, np, bias, wt, in, offs, segs, sw, pool)
						convDirect4x8AVX2(got, np, bias, wt, in, offs, segs, sw, pool)
						for i := range want {
							if !sameBits(got[i], want[i]) {
								t.Fatalf("pool=%v k=%d inC=%d out=%dx%d elem %d: got %x want %x", pool, k, inC, oh, ow, i,
									math.Float64bits(got[i]), math.Float64bits(want[i]))
							}
						}
					}
				}
			}
		}
	}
}
