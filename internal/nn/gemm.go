package nn

// Deterministic matrix kernels and the index tables of the direct
// convolution. Dense lowers to a GEMM: the "NT" product of two row-major
// matrices sharing a contiguous K dimension, over eight-column weight panels
// (GemmPanelBiasJ), or one dot per output (GemmNTBiasJ) for a layer under
// eight outputs. Conv2D lowers to nothing: its forward kernel (convDirectSIMD)
// and its backward kernel (convBwdSIMD) read the input planes in place
// through the tables convDirectTables builds (the INT8 engine's direct
// convolution tiles walk the same offsets, qnetwork.go). The "NN" form
// (GemmNNAccI) is Dense.BackwardBatch's.
//
// The kernels are blocked over the *output* coordinates only; the K
// dimension is never split. That restriction is load-bearing: every output
// element accumulates its K products strictly in index order, one
// accumulator per element, which makes the float summation sequence — and
// therefore every result file derived from it — bit-for-bit identical to
// the per-sample reference loops the tests keep, Dense.Forward and
// Conv2D.Forward (batch_equiv_test.go pins the batched path against them).

// GemmNTBiasJ computes out[i*n+j] = bias[j] + sum_k a[i*k+p]*b[j*k+p] for
// an m-by-k matrix a and an n-by-k matrix b, both row-major: one dot per
// output, p ascending. It is the Dense kernel for layers under eight outputs
// (too narrow for a panel) and the reference the panel kernel and the NN form
// are tested against. bias must have length n.
func GemmNTBiasJ(out, a, b, bias []float64, m, n, k int) {
	for i := 0; i < m; i++ {
		ar := a[i*k : i*k+k]
		for j := 0; j < n; j++ {
			br := b[j*k : j*k+k]
			s := bias[j]
			for p, av := range ar {
				s += float64(av * br[p])
			}
			out[i*n+j] = s
		}
	}
}

// GemmNNAccI accumulates an NN-form product in place,
// out[i*n+j] += sum_c a[i*k+c]*bt[c*ld+j], bt read at row stride ld. It is
// GemmNTBiasJ's dot product with the second operand pre-transposed: each
// element continues its own running sum with c strictly ascending
// (TestGemmNNMatchesGemmNT), while eight adjacent columns accumulate side by
// side in SIMD registers. Dense.BackwardBatch runs it for the input gradient
// (over a cleared output) and for the weight gradient (c walking samples).
// Groups of four rows go through the 4x8 tile (gemmNNQuadAcc).
func GemmNNAccI(out, a, bt []float64, m, n, k, ld int) {
	i := gemmNNQuadAcc(out, a, bt, m, n, k, ld)
	for ; i < m; i++ {
		gemmNNAccRow(out[i*n:i*n+n], a[i*k:i*k+k], bt, n, ld)
	}
}

// GemmPanelBiasJ computes GemmNTBiasJ's product,
// out[i*n+j] = bias[j] + sum_c a[i*k+c]*w[j*k+c], eight output columns at a
// time: the eight weight rows of a column block are transposed into panel
// (panel[c*8+l] = w[(j+l)*k+c], 8*k elements of caller scratch), so the eight
// columns accumulate side by side while the inner loop streams one contiguous
// 64-byte row per c — reading a whole transposed weight matrix at its n-wide
// row stride instead maps every row of a block onto the same few cache sets.
// Each output still starts at its bias and walks c strictly ascending:
// GemmNTBiasJ's dot sequence, bit for bit. When n is not a multiple of
// eight the last block starts at n-8 and overlaps its neighbour, recomputing
// identical values, so there is no column tail. n must be at least 8.
func GemmPanelBiasJ(out, a, w, bias, panel []float64, m, n, k int) {
	for j := 0; j < n; j += 8 {
		if j > n-8 {
			j = n - 8
		}
		transposeSIMD(panel, w[j*k:(j+8)*k], 8, k)
		bj := bias[j : j+8]
		i := gemmPanelQuad(out[j:], n, bj, a, panel, m, k)
		for ; i < m; i++ {
			nnDot8Go(out[i*n+j:i*n+j+8], bj, a[i*k:i*k+k], panel, 8)
		}
	}
}

// convDirectTables builds, in arena scratch, the two index tables a direct
// convolution kernel (convDirectSIMD, qconvDirectSIMD) walks for an
// inC x h x w sample under a k x k kernel; every sample of a batch shares
// them, and they depend on nothing but the geometry.
//
// offs[c] is where the c-th element of a receptive field lies relative to
// the field's origin, c in (ic, ky, kx) order — Conv2D.Forward's
// accumulation order: offs[c] = (ic*h+ky)*w + kx. Three spare elements past
// len(offs) repeat the last offset, so a kernel that takes taps two or four
// at a time reslices the table up to a multiple of its step and gives the
// spare taps zero weights.
//
// segs lists the output in row segments of sw = min(seg, ow) pixels, one
// (input origin, output position) pair per segment: y*w+x and y*ow+x, the
// output position relative to a channel's oh*ow plane. A row's last segment
// starts at ow-sw, overlapping its neighbour where ow is not a multiple of
// sw (the overlap recomputes identical values), and the list is padded to an
// even count by repeating the final segment, because the kernels consume
// segments two at a time.
//
// With pool set the list instead covers the conv rows and columns a 2x2
// max pool reads — 2*ph x 2*pw for a ph x pw pool output — in vertical
// pairs: segments at x of conv rows 2y and 2y+1, both with output position
// y*pw + x/2 in the pooled plane, sw = min(seg, 2*pw). x steps by sw and a
// row's last pair starts at the even offset 2*pw-sw, so every segment
// covers whole pool windows; the count is even by construction.
func convDirectTables(a *Arena, inC, h, w, k, seg int, pool bool) (offs, segs []int, sw int) {
	oh, ow := h-k+1, w-k+1
	offs = convOffsets(a, inC, h, w, k)
	if pool {
		ph, cw := oh/2, ow&^1
		sw = min(seg, cw)
		segs = a.Ints(4 * ph * ((cw + sw - 1) / sw))
		t := 0
		for y := 0; y < ph; y++ {
			for x := 0; x < cw; x += sw {
				x = min(x, cw-sw)
				o := y*(cw/2) + x/2
				segs[t], segs[t+1], segs[t+2], segs[t+3] = 2*y*w+x, o, (2*y+1)*w+x, o
				t += 4
			}
		}
		return offs, segs, sw
	}
	sw = min(seg, ow)
	nseg := oh * ((ow + sw - 1) / sw)
	segs = a.Ints(2 * (nseg + nseg&1))
	t := 0
	for y := 0; y < oh; y++ {
		for x := 0; x < ow; x += sw {
			if x > ow-sw {
				x = ow - sw
			}
			segs[t], segs[t+1] = y*w+x, y*ow+x
			t += 2
		}
	}
	if t < len(segs) {
		segs[t], segs[t+1] = segs[t-2], segs[t-1]
	}
	return offs, segs, sw
}

// convOffsets is convDirectTables' offs alone — all the backward kernel
// (convBwdSIMD) walks, K entries at a time: offs[r*k] is where the r-th row
// of a receptive field, (ic, ky) in order, starts.
func convOffsets(a *Arena, inC, h, w, k int) []int {
	kk := inC * k * k
	offs := a.Ints(kk + 3)
	c := 0
	for ic := 0; ic < inC; ic++ {
		for ky := 0; ky < k; ky++ {
			for kx := 0; kx < k; kx++ {
				offs[c] = (ic*h+ky)*w + kx
				c++
			}
		}
	}
	offs[kk], offs[kk+1], offs[kk+2] = offs[kk-1], offs[kk-1], offs[kk-1]
	return offs[:kk]
}
