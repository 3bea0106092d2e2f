package nn

// Deterministic blocked GEMM kernels. These are the single inference hot
// path of the repository: Dense and Conv2D (via im2col) both lower to a
// "NT" matrix product — dot products of two row-major matrices that share a
// contiguous K dimension.
//
// The kernels are blocked over the *output* coordinates only (eight columns
// of C per pass, so each element of A is loaded once per eight outputs);
// the K dimension is never split. That restriction is load-bearing: every
// output element accumulates its K products strictly in index order, one
// accumulator per element, which makes the float summation sequence — and
// therefore every result file derived from it — bit-for-bit identical to
// the reference loops in Dense.Forward and Conv2D.Forward
// (batch_equiv_test.go pins the batched path against them).

// GemmNTBiasJ computes out[i*n+j] = bias[j] + sum_k a[i*k+p]*b[j*k+p] for
// an m-by-k matrix a and an n-by-k matrix b, both row-major. It is the
// batched Dense kernel: a holds one sample per row, b one output unit's
// weights per row. bias must have length n.
func GemmNTBiasJ(out, a, b, bias []float64, m, n, k int) {
	for i := 0; i < m; i++ {
		ar := a[i*k : i*k+k]
		orow := out[i*n : i*n+n]
		j := 0
		for ; j+8 <= n; j += 8 {
			b0 := b[(j+0)*k : (j+0)*k+k]
			b1 := b[(j+1)*k : (j+1)*k+k]
			b2 := b[(j+2)*k : (j+2)*k+k]
			b3 := b[(j+3)*k : (j+3)*k+k]
			b4 := b[(j+4)*k : (j+4)*k+k]
			b5 := b[(j+5)*k : (j+5)*k+k]
			b6 := b[(j+6)*k : (j+6)*k+k]
			b7 := b[(j+7)*k : (j+7)*k+k]
			s0, s1, s2, s3 := bias[j], bias[j+1], bias[j+2], bias[j+3]
			s4, s5, s6, s7 := bias[j+4], bias[j+5], bias[j+6], bias[j+7]
			for p, av := range ar {
				s0 += av * b0[p]
				s1 += av * b1[p]
				s2 += av * b2[p]
				s3 += av * b3[p]
				s4 += av * b4[p]
				s5 += av * b5[p]
				s6 += av * b6[p]
				s7 += av * b7[p]
			}
			orow[j], orow[j+1], orow[j+2], orow[j+3] = s0, s1, s2, s3
			orow[j+4], orow[j+5], orow[j+6], orow[j+7] = s4, s5, s6, s7
		}
		for ; j+4 <= n; j += 4 {
			b0 := b[(j+0)*k : (j+0)*k+k]
			b1 := b[(j+1)*k : (j+1)*k+k]
			b2 := b[(j+2)*k : (j+2)*k+k]
			b3 := b[(j+3)*k : (j+3)*k+k]
			s0, s1, s2, s3 := bias[j], bias[j+1], bias[j+2], bias[j+3]
			for p, av := range ar {
				s0 += av * b0[p]
				s1 += av * b1[p]
				s2 += av * b2[p]
				s3 += av * b3[p]
			}
			orow[j], orow[j+1], orow[j+2], orow[j+3] = s0, s1, s2, s3
		}
		for ; j < n; j++ {
			br := b[j*k : j*k+k]
			s := bias[j]
			for p, av := range ar {
				s += av * br[p]
			}
			orow[j] = s
		}
	}
}

// GemmNTBiasI is GemmNTBiasJ with the bias indexed by the row instead of
// the column: out[i*n+j] = bias[i] + sum_k a[i*k+p]*b[j*k+p]. It is the
// convolution kernel: a holds one output channel's weights per row, b one
// output pixel's im2col patch per row. bias must have length m.
func GemmNTBiasI(out, a, b, bias []float64, m, n, k int) {
	for i := 0; i < m; i++ {
		ar := a[i*k : i*k+k]
		orow := out[i*n : i*n+n]
		bi := bias[i]
		j := 0
		for ; j+8 <= n; j += 8 {
			b0 := b[(j+0)*k : (j+0)*k+k]
			b1 := b[(j+1)*k : (j+1)*k+k]
			b2 := b[(j+2)*k : (j+2)*k+k]
			b3 := b[(j+3)*k : (j+3)*k+k]
			b4 := b[(j+4)*k : (j+4)*k+k]
			b5 := b[(j+5)*k : (j+5)*k+k]
			b6 := b[(j+6)*k : (j+6)*k+k]
			b7 := b[(j+7)*k : (j+7)*k+k]
			s0, s1, s2, s3 := bi, bi, bi, bi
			s4, s5, s6, s7 := bi, bi, bi, bi
			for p, av := range ar {
				s0 += av * b0[p]
				s1 += av * b1[p]
				s2 += av * b2[p]
				s3 += av * b3[p]
				s4 += av * b4[p]
				s5 += av * b5[p]
				s6 += av * b6[p]
				s7 += av * b7[p]
			}
			orow[j], orow[j+1], orow[j+2], orow[j+3] = s0, s1, s2, s3
			orow[j+4], orow[j+5], orow[j+6], orow[j+7] = s4, s5, s6, s7
		}
		for ; j+4 <= n; j += 4 {
			b0 := b[(j+0)*k : (j+0)*k+k]
			b1 := b[(j+1)*k : (j+1)*k+k]
			b2 := b[(j+2)*k : (j+2)*k+k]
			b3 := b[(j+3)*k : (j+3)*k+k]
			s0, s1, s2, s3 := bi, bi, bi, bi
			for p, av := range ar {
				s0 += av * b0[p]
				s1 += av * b1[p]
				s2 += av * b2[p]
				s3 += av * b3[p]
			}
			orow[j], orow[j+1], orow[j+2], orow[j+3] = s0, s1, s2, s3
		}
		for ; j < n; j++ {
			br := b[j*k : j*k+k]
			s := bi
			for p, av := range ar {
				s += av * br[p]
			}
			orow[j] = s
		}
	}
}

// GemmNNBiasILd computes out[i*n+j] = bias[i] + sum_c a[i*k+c]*bt[c*ld+j]
// for an m-by-k row-major matrix a and a k-row matrix bt read at row stride
// ld (>= n). It is GemmNTBiasI with the patch matrix pre-transposed (bt = b
// transposed, see im2colT): every output element still starts from the bias
// and accumulates its K products strictly in index order, so results are
// bit-identical to GemmNTBiasI — but adjacent output columns now read
// adjacent bt elements, so eight columns accumulate side by side in SIMD
// registers (nnDot8SIMD) without any sum being split or reordered. The
// stride lets a batch pack every sample's im2colT columns side by side and
// convolve each sample's slice straight into its own output rows. Groups of
// four output rows go through the 4x8 register tile (gemmNNQuadI); the
// remainder runs row by row. bias must have length m.
func GemmNNBiasILd(out, a, bt, bias []float64, m, n, k, ld int) {
	i := gemmNNQuadI(out, a, bt, bias, m, n, k, ld)
	for ; i < m; i++ {
		gemmNNRowI(out[i*n:i*n+n], bias[i], a[i*k:i*k+k], bt, n, ld)
	}
}

// GemmNNAccI accumulates an NN-form product in place:
// out[i*n+j] += sum_c a[i*k+c]*bt[c*ld+j]. Each output element continues
// its own running sum with c strictly ascending, so calling this once per
// sample replays a per-sample accumulation loop bit for bit. It is the
// batched weight-gradient kernel: a holds one sample's output-channel
// gradients, bt the recorded im2col rows (c walks output pixels).
func GemmNNAccI(out, a, bt []float64, m, n, k, ld int) {
	i := gemmNNQuadAcc(out, a, bt, m, n, k, ld)
	for ; i < m; i++ {
		gemmNNAccRow(out[i*n:i*n+n], a[i*k:i*k+k], bt, n, ld)
	}
}

// GemmNNBiasJ computes out[i*n+j] = bias[j] + sum_c a[i*k+c]*bt[c*n+j]: the
// Dense orientation of GemmNNBiasILd, consuming the weight matrix transposed
// (bt[c*n+j] = w[j*k+c]) so adjacent output units read adjacent elements.
// Each output's accumulation starts at its bias and walks c strictly
// ascending — the exact dot sequence of GemmNTBiasJ, so results are
// bit-identical. bias must have length n.
func GemmNNBiasJ(out, a, bt, bias []float64, m, n, k int) {
	i := gemmNNQuadJ(out, a, bt, bias, m, n, k, n)
	for ; i < m; i++ {
		gemmNNRowJ(out[i*n:i*n+n], bias, a[i*k:i*k+k], bt, n, n)
	}
}

// im2colT writes one CHW sample into the transposed patch matrix consumed by
// GemmNNBiasILd: dst[c*ld + off + p] = the c-th element of output pixel p's
// receptive field, with c in (ic, ky, kx) order and p walking output pixels
// row-major — the same (p, c) values as im2col, laid out c-major so the GEMM
// inner loop streams contiguous rows. ld is the row stride (>= off + oh*ow),
// letting a batch pack every sample's columns side by side in one matrix.
// Each (c, y) run is a contiguous ow-length copy from the source row.
func im2colT(dst []float64, off, ld int, src []float64, inC, h, w, kh, oh, ow int) {
	c := 0
	for ic := 0; ic < inC; ic++ {
		for ky := 0; ky < kh; ky++ {
			for kx := 0; kx < kh; kx++ {
				base := c*ld + off
				for y := 0; y < oh; y++ {
					srow := src[(ic*h+y+ky)*w+kx : (ic*h+y+ky)*w+kx+ow]
					copy(dst[base+y*ow:base+y*ow+ow], srow)
				}
				c++
			}
		}
	}
}

// im2col lowers one CHW sample to the patch matrix the convolution GEMM
// consumes: dst[p*kk+c] = the c-th element of output pixel p's receptive
// field, where p walks the output pixels row-major (y, then x) and c walks
// the patch in (ic, ky, kx) order — the exact accumulation order of the
// naive convolution loop, so the GEMM's K-sequential dot products replay
// the naive float summation term for term. dst must have oh*ow*inC*kh*kh
// elements.
func im2col(dst, src []float64, inC, h, w, kh, oh, ow int) {
	if kh == 3 {
		di := 0
		for y := 0; y < oh; y++ {
			for x := 0; x < ow; x++ {
				for ic := 0; ic < inC; ic++ {
					base := (ic*h+y)*w + x
					r0 := src[base : base+3]
					r1 := src[base+w : base+w+3]
					r2 := src[base+2*w : base+2*w+3]
					d := dst[di : di+9]
					d[0], d[1], d[2] = r0[0], r0[1], r0[2]
					d[3], d[4], d[5] = r1[0], r1[1], r1[2]
					d[6], d[7], d[8] = r2[0], r2[1], r2[2]
					di += 9
				}
			}
		}
		return
	}
	di := 0
	for y := 0; y < oh; y++ {
		for x := 0; x < ow; x++ {
			for ic := 0; ic < inC; ic++ {
				for ky := 0; ky < kh; ky++ {
					srow := src[(ic*h+y+ky)*w+x : (ic*h+y+ky)*w+x+kh]
					for kx := 0; kx < kh; kx++ {
						dst[di] = srow[kx]
						di++
					}
				}
			}
		}
	}
}
