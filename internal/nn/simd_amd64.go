//go:build amd64

package nn

// SIMD kernels for the element-parallel hot loops. The support floor on
// amd64 is AVX2 (x86-64-v3), probed at run time (cpu_amd64.go) so a default
// GOAMD64=v1 build reaches it: every dispatcher below is "AVX2 when the host
// has it and the slice is long enough, otherwise the portable Go loop"
// (simd_portable.go) — the same function every non-amd64 build runs. Two
// kernels have no AVX2 form and run undispatched on SSE2, which is part of
// the amd64 baseline: pool2x2 and transpose2x2 (their Go bodies for other
// architectures live in simd_generic.go). Every kernel here holds a budget
// line: DESIGN.md §9's kernel table names its call site and its measured cost
// of removal, and a kernel that holds none is deleted, not kept.
//
// Bit-identity with the portable loops is structural, not approximate: every
// output element is produced by exactly the same IEEE-754 operations in the
// same order as the scalar loop — SIMD only computes independent elements
// side by side, never splits or reorders a single element's accumulation,
// and never uses FMA (whose single rounding would differ from the scalar
// mul-then-add). Results therefore do not depend on which side of the floor
// a host is; simd_test.go pins every dispatcher against the scalar
// references bit for bit, including -0, NaN, and Inf lanes and every tail
// length, and TestDispatchFeatureOverrideBitIdentical replays whole forward
// and training passes with the floor forced off.
//
// One deliberate carve-out: NaN payload bits. When both operands of an add
// or multiply are NaN, hardware propagates the first operand's payload, and
// the Go compiler does not specify scalar operand order — so a kernel may
// return a different NaN than the scalar loop (never a NaN where the scalar
// is finite, or vice versa). No network computation produces NaN from the
// finite inputs these kernels see, and the equivalence suites pin all real
// data paths bit for bit.

//go:noescape
func reluFwdAVX2(dst, src []float64)

//go:noescape
func reluBwdAVX2(dst, grad, in []float64)

//go:noescape
func nnDot4x8AVX2(out []float64, on int, init, a []float64, k int, bt []float64, ld int) //lint:allow simdcover register-tiled quad kernel with no scalar twin; below the floor and on !amd64 the quad drivers hand every row to the row path, and simd_test.go pins the drivers

//go:noescape
func convDirect4x8AVX2(out []float64, np int, bias, wt, in []float64, offs, segs []int, sw int, pool bool)

//go:noescape
func pool2x2SSE2(dst, row0, row1 []float64)

//go:noescape
func convBwdAVX2(g []float64, ow int, in, wt, gw, gb, gi []float64, offs []int, k int)

//go:noescape
func transpose2x2SSE2(dst, src []float64, rows, cols int)

//go:noescape
func stepAVX2(lr, scale float64, g, p []float64)

// reluFwdSIMD computes dst[i] = max(src[i], 0): src[i] if src[i] > 0,
// else +0 (also for NaN and -0 inputs, matching the scalar branch).
// src must be at least as long as dst.
func reluFwdSIMD(dst, src []float64) {
	if hasAVX2 && len(dst) >= 8 {
		reluFwdAVX2(dst, src)
		return
	}
	reluFwdGo(dst, src)
}

// stepSIMD applies the SGD update p[i] -= lr*g[i]/scale: per element one
// multiply, one divide, one subtract in that exact order (lr*g[i] is never
// folded into (lr/scale)*g[i], which would round differently).
// g must be at least as long as p.
func stepSIMD(lr, scale float64, g, p []float64) {
	if hasAVX2 && len(p) >= 8 {
		stepAVX2(lr, scale, g, p)
		return
	}
	stepGo(lr, scale, g, p)
}

// pool2x2SIMD computes one output row of a 2x2/stride-2 max pool:
// dst[x] = the maximum of row0[2x], row0[2x+1], row1[2x], row1[2x+1],
// scanned in that order with strict-> updates. MAXPD returns its source
// operand on ties and NaN candidates, which with the running best as source
// reproduces the scalar branch exactly — bit for bit, with no carve-outs
// (the result is always one of the inputs, untouched). row0 and row1 must
// have at least 2*len(dst) elements.
func pool2x2SIMD(dst, row0, row1 []float64) {
	pool2x2SSE2(dst, row0, row1)
}

// transposeSIMD writes dst[c*rows+r] = src[r*cols+c] — the out-of-place
// matrix transpose behind Dense's weight panels (forward) and transposed
// output gradients (backward). The 2x2-block kernel
// covers the even region (UNPCKLPD/UNPCKHPD, contiguous stores down two dst
// rows); the odd row/column tails finish scalar. Pure data movement, so the
// result is bit-exact trivially.
func transposeSIMD(dst, src []float64, rows, cols int) {
	r2, c2 := rows&^1, cols&^1
	transpose2x2SSE2(dst, src, rows, cols)
	for r := r2; r < rows; r++ {
		for c := 0; c < cols; c++ {
			dst[c*rows+r] = src[r*cols+c]
		}
	}
	for c := c2; c < cols; c++ {
		for r := 0; r < r2; r++ {
			dst[c*rows+r] = src[r*cols+c]
		}
	}
}

// convBwdSIMD is one output channel's share of Conv2D's backward pass over
// one sample (convBwdGo has the contract). The AVX2 kernel covers k in
// {1, 3, 5}, every zoo convolution: it tests the gradient plane four values
// at a time (a compare against zero and a movemask), visits the nonzero
// lanes in ascending order, and walks each field row at k = 5 as one
// four-wide and one scalar multiply-add, at k = 3 as one two-wide and one
// scalar, at k = 1 as one scalar. Other kernel sizes and hosts below the
// floor run the portable twin.
func convBwdSIMD(g []float64, ow int, in, wt, gw, gb, gi []float64, offs []int, k int) {
	if hasAVX2 && (k == 1 || k == 3 || k == 5) {
		convBwdAVX2(g, ow, in, wt, gw, gb, gi, offs, k)
		return
	}
	convBwdGo(g, ow, in, wt, gw, gb, gi, offs, k)
}

// reluBwdSIMD computes dst[i] = grad[i] if in[i] > 0, else +0.
// grad and in must be at least as long as dst.
func reluBwdSIMD(dst, grad, in []float64) {
	if hasAVX2 && len(dst) >= 8 {
		reluBwdAVX2(dst, grad, in)
		return
	}
	reluBwdGo(dst, grad, in)
}

// gemmPanelQuad runs the 4x8 tile down one eight-column weight panel (bt row
// stride 8) for all m rows of a, every row of a tile starting from the same
// eight biases, and returns the rows consumed: m, or 0 when the tile cannot
// run (the caller then goes row by row). When m is not a multiple of four the
// last tile starts at row m-4 and overlaps its neighbour, recomputing
// identical values. out is pre-sliced at the panel's first column; n is its
// row stride.
func gemmPanelQuad(out []float64, n int, bias, a, panel []float64, m, k int) int {
	if !hasAVX2 || m < 4 {
		return 0
	}
	var init [32]float64
	copy(init[0:8], bias)
	copy(init[8:16], bias)
	copy(init[16:24], bias)
	copy(init[24:32], bias)
	for i := 0; i < m; i += 4 {
		if i > m-4 {
			i = m - 4
		}
		nnDot4x8AVX2(out[i*n:], n, init[:], a[i*k:], k, panel, 8)
	}
	return m
}

// convDirectSIMD convolves one CHW sample with len(bias) output channels
// directly from the tables of convDirectTables: out[oc*np + p] = bias[oc] +
// sum_c wt[oc*kk+c] * in[origin(p) + offs[c]], c ascending, for every output
// pixel p the segment list covers — or, with pool, the rectified 2x2 max of
// those sums over each window of the pooled plane (convDirectGo's epilogue).
// The AVX2 kernel takes four output channels and two four-pixel segments per
// register tile and walks the whole segment list in one call; when the
// channel count is not a multiple of four the last group starts at
// len(bias)-4 and overlaps its neighbour, recomputing identical values. Fewer
// than four channels, rows narrower than a segment (sw < 4) and hosts below
// the floor run the portable twin over the same tables.
func convDirectSIMD(out []float64, np int, bias, wt, in []float64, offs, segs []int, sw int, pool bool) {
	outC, kk := len(bias), len(offs)
	if !hasAVX2 || sw != 4 || outC < 4 {
		convDirectGo(out, np, bias, wt, in, offs, segs, sw, pool)
		return
	}
	for oc := 0; oc < outC; oc += 4 {
		if oc > outC-4 {
			oc = outC - 4
		}
		convDirect4x8AVX2(out[oc*np:], np, bias[oc:oc+4], wt[oc*kk:], in, offs, segs, sw, pool)
	}
}

// gemmNNQuadAcc runs the 4x8 register tile in place over as many groups of
// four output rows as fit, each tile's init gathered from the rows' current
// values, and returns the rows consumed (callers finish the rest row by row).
func gemmNNQuadAcc(out, a, bt []float64, m, n, k, ld int) int {
	if !hasAVX2 || n < 8 {
		return 0
	}
	var init [32]float64
	i := 0
	for ; i+4 <= m; i += 4 {
		j := 0
		for ; j+8 <= n; j += 8 {
			copy(init[0:8], out[i*n+j:])
			copy(init[8:16], out[(i+1)*n+j:])
			copy(init[16:24], out[(i+2)*n+j:])
			copy(init[24:32], out[(i+3)*n+j:])
			nnDot4x8AVX2(out[i*n+j:], n, init[:], a[i*k:], k, bt[j:], ld)
		}
		for ; j < n; j++ {
			for r := 0; r < 4; r++ {
				s := out[(i+r)*n+j]
				ar := a[(i+r)*k : (i+r)*k+k]
				for c, av := range ar {
					s += av * bt[c*ld+j]
				}
				out[(i+r)*n+j] = s
			}
		}
	}
	return i
}
