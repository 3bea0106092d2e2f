package nn

import (
	"math"
	"math/rand"
	"testing"
)

// The SIMD kernels must match the scalar references bit for bit on every
// lane, every tail length, and the awkward IEEE corners (-0, NaN, Inf): the
// training path's bit-identity guarantee rests on these primitives being
// exact drop-ins for the loops they replaced.

// sameBits is exact bit equality except that any two NaNs match: NaN
// payload propagation depends on hardware operand order, which the scalar
// reference does not pin down (see the contract note in simd_amd64.go).
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

// simdCases builds inputs covering vector bodies and all tail lengths, with
// special values scattered through both lanes and tails.
func simdCases(rng *rand.Rand, n int) []float64 {
	specials := []float64{0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1), -1e-308, 1e308}
	s := make([]float64, n)
	for i := range s {
		if rng.Intn(4) == 0 {
			s[i] = specials[rng.Intn(len(specials))]
		} else {
			s[i] = rng.NormFloat64()
		}
	}
	return s
}

func TestReluFwdSIMDMatchesScalarBitForBit(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	for n := 0; n <= 35; n++ {
		src := simdCases(rng, n)
		want := make([]float64, n)
		for i, v := range src {
			if v > 0 {
				want[i] = v
			} else {
				want[i] = 0
			}
		}
		got := simdCases(rng, n) // pre-fill with garbage to catch skipped lanes
		reluFwdSIMD(got, src)
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("relu fwd n=%d i=%d src=%v: got %x want %x", n, i, src[i],
					math.Float64bits(got[i]), math.Float64bits(want[i]))
			}
		}
	}
}

func TestNNDot8SIMDMatchesScalarBitForBit(t *testing.T) {
	rng := rand.New(rand.NewSource(74))
	for _, k := range []int{0, 1, 2, 3, 7, 8, 17, 64} {
		for _, n := range []int{8, 9, 16, 23} {
			a := simdCases(rng, k)
			var bt []float64
			if k > 0 {
				bt = simdCases(rng, (k-1)*n+8)
			}
			init := simdCases(rng, 8)
			want := make([]float64, 8)
			for l := 0; l < 8; l++ {
				s := init[l]
				for c := 0; c < k; c++ {
					s += a[c] * bt[c*n+l]
				}
				want[l] = s
			}
			got := simdCases(rng, 8)
			nnDot8Go(got, init, a, bt, n)
			for l := range want {
				if !sameBits(got[l], want[l]) {
					t.Fatalf("nnDot8 k=%d n=%d l=%d: got %x want %x", k, n, l,
						math.Float64bits(got[l]), math.Float64bits(want[l]))
				}
			}
		}
	}
}

// TestGemmNNMatchesGemmNT pins the NN-form kernel (and its 8/scalar tail
// blocking) against the NT reference across shapes with every tail length,
// including the special-value lanes simdCases injects. The reference is the
// shipped GemmNTBiasJ with its operands swapped: that computes the transposed
// product, wantT[j*m+i] = bias[i] + sum_p b[j*k+p]*a[i*k+p] — the same
// products in the same p order, under a row-indexed bias.
func TestGemmNNMatchesGemmNT(t *testing.T) {
	rng := rand.New(rand.NewSource(75))
	for _, dims := range [][3]int{{1, 8, 1}, {3, 16, 9}, {2, 23, 5}, {4, 33, 7}, {8, 17, 3}, {5, 40, 12}} {
		m, n, k := dims[0], dims[1], dims[2]
		a := simdCases(rng, m*k)
		b := simdCases(rng, n*k)
		bt := make([]float64, k*n)
		for c := 0; c < k; c++ {
			for j := 0; j < n; j++ {
				bt[c*n+j] = b[j*k+c]
			}
		}
		bias := simdCases(rng, m)
		wantT := make([]float64, n*m)
		got := make([]float64, m*n)
		for i := range got {
			got[i] = bias[i/n]
		}
		GemmNTBiasJ(wantT, b, a, bias, n, m, k)
		GemmNNAccI(got, a, bt, m, n, k, n)
		for i := range got {
			if want := wantT[i%n*m+i/n]; !sameBits(got[i], want) {
				t.Fatalf("AccI m=%d n=%d k=%d elem %d: got %x want %x", m, n, k, i,
					math.Float64bits(got[i]), math.Float64bits(want))
			}
		}
	}
}

// TestDensePanelsMatchGemmNT pins the panel-packed Dense GEMM against the NT
// reference on every dispatch floor: output widths with no, one and several
// overlapping last panels, batch sizes below, at and off the four-row tile
// (the overlapping last tile), special-value lanes included.
func TestDensePanelsMatchGemmNT(t *testing.T) {
	rng := rand.New(rand.NewSource(90))
	eachDispatchFloor(func(floor string) {
		for _, n := range []int{1, 7, 8, 9, 10, 84, 120, 256} {
			for _, m := range []int{1, 3, 4, 5, 64} {
				for _, k := range []int{1, 5, 32} {
					d := NewDense(k, n, rng)
					copy(d.w.Data, simdCases(rng, n*k))
					copy(d.b.Data, simdCases(rng, n))
					arena := NewArena()
					in := arena.Tensor(m, k)
					copy(in.Data, simdCases(rng, m*k))
					want := make([]float64, m*n)
					GemmNTBiasJ(want, in.Data, d.w.Data, d.b.Data, m, n, k)
					check := func(what string, got []float64) {
						for i := range want {
							if !sameBits(got[i], want[i]) {
								t.Fatalf("%s: %s m=%d n=%d k=%d elem %d: got %x want %x", floor, what, m, n, k, i,
									math.Float64bits(got[i]), math.Float64bits(want[i]))
							}
						}
					}
					check("Dense.ForwardBatch", d.ForwardBatch(in, arena).Data)
					if n >= 8 { // the layer keeps batches under four off the panels; the kernel takes them row by row
						got := simdCases(rng, m*n)
						GemmPanelBiasJ(got, in.Data, d.w.Data, d.b.Data, make([]float64, 8*k), m, n, k)
						check("GemmPanelBiasJ", got)
					}
				}
			}
		}
	})
}

// TestConvDirectMatchesForward pins the direct convolution — the AVX2 tile
// convDirect4x8AVX2 where the floor allows, its portable twin convDirectGo
// everywhere else — against per-sample Conv2D.Forward on every dispatch
// floor, over kernel sizes, channel counts on and off the four-channel group
// (1 and 3 never reach the tile; 6 overlaps its last group), and output
// widths below one segment, at it, and at every overlap of the last one. The
// no-avx2 floor runs convDirectGo over the tables the tile was just given, so
// its bounds checks vouch for every address the assembly formed.
func TestConvDirectMatchesForward(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	eachDispatchFloor(func(floor string) {
		for _, k := range []int{1, 3, 5} {
			for _, inC := range []int{1, 3, 8} {
				for _, outC := range []int{1, 3, 4, 6, 8, 12} {
					for _, ow := range []int{1, 2, 3, 4, 5, 7, 8, 11, 15, 26} {
						conv := NewConv2D(inC, outC, k, rng)
						copy(conv.w.Data, simdCases(rng, conv.w.Len()))
						copy(conv.b.Data, simdCases(rng, outC))
						// Non-square: the height trails the width by a
						// different amount per case, never below the kernel.
						h, w := k+(ow+outC)%5, ow+k-1
						for _, batch := range []int{1, 7} {
							arena := NewArena()
							in := arena.Tensor(batch, inC, h, w)
							copy(in.Data, simdCases(rng, in.Len()))
							got := conv.ForwardBatch(in, arena)
							inLen, outLen := inC*h*w, got.Len()/batch
							for s := 0; s < batch; s++ {
								smp := &Tensor{Shape: []int{inC, h, w}, Data: in.Data[s*inLen : (s+1)*inLen]}
								want := conv.Forward(smp).Data
								for i, wv := range want {
									if gv := got.Data[s*outLen+i]; !sameBits(gv, wv) {
										t.Fatalf("%s: k=%d inC=%d outC=%d in=%dx%d batch=%d sample %d elem %d: got %x want %x",
											floor, k, inC, outC, h, w, batch, s, i, math.Float64bits(gv), math.Float64bits(wv))
									}
								}
							}
						}
					}
				}
			}
		}
	})
}

// TestGemmNNStridedAndAccVariants pins the Dense backward kernels against
// scalar replays of their per-element dot sequences, covering the 4x8 tile,
// the 8-column blocks, and scalar tails: the in-place accumulate kernel
// (GemmNNAccI) over a bias-seeded output, as Dense.BackwardBatch's input
// gradient runs it over a cleared one, and over an arbitrary output, also
// reading bt at a row stride wider than n.
func TestGemmNNStridedAndAccVariants(t *testing.T) {
	rng := rand.New(rand.NewSource(76))
	// replay is the scalar sequence both kernels must reproduce: each element
	// starts from init and adds its k products in ascending order.
	replay := func(init func(i, j int) float64, a, bt []float64, m, n, k, ld int) []float64 {
		want := make([]float64, m*n)
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				s := init(i, j)
				for c := 0; c < k; c++ {
					s += a[i*k+c] * bt[c*ld+j]
				}
				want[i*n+j] = s
			}
		}
		return want
	}
	same := func(what string, got, want []float64, m, n, k, ld int) {
		for i := range want {
			if !sameBits(got[i], want[i]) {
				t.Fatalf("%s m=%d n=%d k=%d ld=%d elem %d: got %x want %x", what, m, n, k, ld, i,
					math.Float64bits(got[i]), math.Float64bits(want[i]))
			}
		}
	}
	for _, dims := range [][3]int{{1, 8, 1}, {4, 9, 5}, {8, 16, 7}, {5, 23, 3}, {6, 40, 12}} {
		m, n, k := dims[0], dims[1], dims[2]
		a := simdCases(rng, m*k)
		bias := simdCases(rng, m)
		bt := simdCases(rng, k*n)
		got := make([]float64, m*n)
		for i := range got {
			got[i] = bias[i/n]
		}
		GemmNNAccI(got, a, bt, m, n, k, n)
		same("seeded", got, replay(func(i, _ int) float64 { return bias[i] }, a, bt, m, n, k, n), m, n, k, n)
		for _, ld := range []int{n, n + 5} {
			bt := simdCases(rng, k*ld)
			acc := simdCases(rng, m*n)
			want := replay(func(i, j int) float64 { return acc[i*n+j] }, a, bt, m, n, k, ld)
			GemmNNAccI(acc, a, bt, m, n, k, ld)
			same("AccI", acc, want, m, n, k, ld)
		}
	}
}

func TestStepSIMDMatchesScalarBitForBit(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for n := 0; n <= 35; n++ {
		for _, pair := range [][2]float64{{0.01, 64}, {0.5, 1}, {-2, 3}, {rng.NormFloat64(), 7}} {
			lr, scale := pair[0], pair[1]
			g := simdCases(rng, n)
			p := simdCases(rng, n)
			want := append([]float64(nil), p...)
			for j := range want {
				want[j] -= lr * g[j] / scale
			}
			got := append([]float64(nil), p...)
			stepSIMD(lr, scale, g, got)
			for j := range want {
				if !sameBits(got[j], want[j]) {
					t.Fatalf("step n=%d lr=%v j=%d: got %x want %x", n, lr, j,
						math.Float64bits(got[j]), math.Float64bits(want[j]))
				}
			}
		}
	}
}

// TestTransposeSIMDMatchesScalar pins the blocked transpose (even region
// plus both odd tails) with strict bit equality — it moves data untouched.
func TestTransposeSIMDMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(80))
	for _, rows := range []int{1, 2, 3, 5, 8, 13} {
		for _, cols := range []int{1, 2, 4, 7, 9, 16} {
			src := simdCases(rng, rows*cols)
			got := simdCases(rng, rows*cols)
			transposeSIMD(got, src, rows, cols)
			for r := 0; r < rows; r++ {
				for c := 0; c < cols; c++ {
					if math.Float64bits(got[c*rows+r]) != math.Float64bits(src[r*cols+c]) {
						t.Fatalf("rows=%d cols=%d (%d,%d): got %x want %x", rows, cols, r, c,
							math.Float64bits(got[c*rows+r]), math.Float64bits(src[r*cols+c]))
					}
				}
			}
		}
	}
}

// TestPool2x2SIMDMatchesScalarBitForBit pins the pooling kernel with strict
// bit equality (no NaN allowance: the result is always one of the inputs, so
// even NaN payloads must survive untouched), covering the scalar strict->
// candidate order on ties, -0 vs +0, and NaN in every window position.
func TestPool2x2SIMDMatchesScalarBitForBit(t *testing.T) {
	rng := rand.New(rand.NewSource(78))
	for n := 0; n <= 33; n++ {
		row0 := simdCases(rng, 2*n+1)
		row1 := simdCases(rng, 2*n+1)
		want := make([]float64, n)
		for x := 0; x < n; x++ {
			best := row0[2*x]
			if v := row0[2*x+1]; v > best {
				best = v
			}
			if v := row1[2*x]; v > best {
				best = v
			}
			if v := row1[2*x+1]; v > best {
				best = v
			}
			want[x] = best
		}
		got := simdCases(rng, n)
		pool2x2SIMD(got, row0, row1)
		for x := range want {
			if math.Float64bits(got[x]) != math.Float64bits(want[x]) {
				t.Fatalf("pool n=%d x=%d window=[%v %v %v %v]: got %x want %x", n, x,
					row0[2*x], row0[2*x+1], row1[2*x], row1[2*x+1],
					math.Float64bits(got[x]), math.Float64bits(want[x]))
			}
		}
	}
}

func TestReluBwdSIMDMatchesScalarBitForBit(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	for n := 0; n <= 35; n++ {
		in := simdCases(rng, n)
		grad := simdCases(rng, n)
		want := make([]float64, n)
		for i := range want {
			if in[i] > 0 {
				want[i] = grad[i]
			} else {
				want[i] = 0
			}
		}
		got := simdCases(rng, n)
		reluBwdSIMD(got, grad, in)
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("relu bwd n=%d i=%d in=%v grad=%v: got %x want %x", n, i, in[i], grad[i],
					math.Float64bits(got[i]), math.Float64bits(want[i]))
			}
		}
	}
}
