package nn

// Portable Go kernels: the float hot loops as plain scalar Go, compiled on
// every GOARCH. They are the reference semantics the amd64 AVX2 assembly
// reproduces bit for bit (simd_amd64.go) and, at the same time, the code that
// runs wherever no vector tier does — every non-amd64 build and every amd64
// host below the AVX2 floor reach these same functions, so forcing
// hasAVX2 = false in an amd64 test executes exactly what a riscv64 or
// pre-Haswell host would (DESIGN.md §9 "Supported platforms"). simd_test.go
// pins whichever implementation dispatch selects against the same loops.

// reluFwdGo computes dst[i] = src[i] if src[i] > 0, else +0 (also for NaN
// and -0 inputs).
func reluFwdGo(dst, src []float64) {
	for i := range dst {
		if v := src[i]; v > 0 {
			dst[i] = v
		} else {
			dst[i] = 0
		}
	}
}

// reluBwdGo computes dst[i] = grad[i] if in[i] > 0, else +0.
func reluBwdGo(dst, grad, in []float64) {
	for i := range dst {
		if in[i] > 0 {
			dst[i] = grad[i]
		} else {
			dst[i] = 0
		}
	}
}

// stepGo applies the SGD update p[i] -= lr*g[i]/scale: per element one
// multiply, one divide, one subtract in that exact order (lr*g[i] is never
// folded into (lr/scale)*g[i], which would round differently).
func stepGo(lr, scale float64, g, p []float64) {
	for j := range p {
		p[j] -= lr * g[j] / scale
	}
}

// nnDot8Go accumulates eight adjacent output columns of an NN-form GEMM:
// out[l] = init[l] + sum_c a[c]*bt[c*n+l] for l in [0, 8), with c strictly
// ascending per column (the reference dot order — the eight sums are
// independent columns, none is ever split). init is read in full before out
// is written, so the two may alias. out and init must have at least 8
// elements; bt at least (len(a)-1)*n+8.
func nnDot8Go(out, init, a, bt []float64, n int) {
	s0, s1, s2, s3 := init[0], init[1], init[2], init[3]
	s4, s5, s6, s7 := init[4], init[5], init[6], init[7]
	for c, av := range a {
		row := bt[c*n : c*n+8]
		s0 += av * row[0]
		s1 += av * row[1]
		s2 += av * row[2]
		s3 += av * row[3]
		s4 += av * row[4]
		s5 += av * row[5]
		s6 += av * row[6]
		s7 += av * row[7]
	}
	out[0], out[1], out[2], out[3] = s0, s1, s2, s3
	out[4], out[5], out[6], out[7] = s4, s5, s6, s7
}

// gemmNNAccRow accumulates one NN-form GEMM row in place:
// orow[j] += sum_c ar[c]*bt[c*ld+j] for j < n, each element continuing its
// own running sum with c ascending: eight columns per pass, then a scalar
// tail — the same per-column dot order. It runs the rows the 4x8 tile leaves
// (m mod 4, every row of a batch under four, every row below the floor). ld
// is the bt row stride (>= n for sub-views).
func gemmNNAccRow(orow, ar, bt []float64, n, ld int) {
	j := 0
	for ; j+8 <= n; j += 8 {
		nnDot8Go(orow[j:j+8], orow[j:j+8], ar, bt[j:], ld)
	}
	for ; j < n; j++ {
		s := orow[j]
		for c, av := range ar {
			s += av * bt[c*ld+j]
		}
		orow[j] = s
	}
}

// convDirectGo is the direct convolution of one CHW sample over the tables of
// convDirectTables, for len(bias) output channels: every output element
// starts at its channel's bias and adds wt[r*kk+c] * in[origin+offs[c]] with
// c strictly ascending — Conv2D.Forward's sequence. Four-pixel segments are
// taken two at a time, eight independent sums per pass; narrower rows
// (sw < 4) go pixel by pixel. Every operand is reached through a
// bounds-checked slice of the sample, and the AVX2 kernel forms exactly these
// addresses from the same tables, so a table that passes here keeps the
// assembly inside the sample too.
//
// pool selects the epilogue. Plain stores every sum; with pool (tables built
// with pool set, np the pooled plane) the two segments of a pass are conv
// rows 2y and 2y+1, and each 2x2 window of their sums is rectified and
// pooled (reluPool) into one stored value — ReLU.Forward then
// MaxPool2D.Forward, bit for bit.
func convDirectGo(out []float64, np int, bias, wt, in []float64, offs, segs []int, sw int, pool bool) {
	kk := len(offs)
	for r, b := range bias {
		wr := wt[r*kk : r*kk+kk]
		orow := out[r*np : r*np+np]
		if sw != 4 {
			step := 2
			if pool {
				step = 4
			}
			for t := 0; t < len(segs); t += step {
				src := in[segs[t]:]
				if pool { // sw == 2: one window, rows 2y and 2y+1
					src1 := in[segs[t+2]:]
					orow[segs[t+1]] = reluPool(convDot(b, wr, offs, src), convDot(b, wr, offs, src[1:]),
						convDot(b, wr, offs, src1), convDot(b, wr, offs, src1[1:]))
					continue
				}
				dst := orow[segs[t+1] : segs[t+1]+sw]
				for l := range dst {
					dst[l] = convDot(b, wr, offs, src[l:])
				}
			}
			continue
		}
		for t := 0; t < len(segs); t += 4 {
			src0, src1 := in[segs[t]:], in[segs[t+2]:]
			s0, s1, s2, s3 := b, b, b, b
			s4, s5, s6, s7 := b, b, b, b
			for c, wv := range wr {
				off := offs[c]
				p, q := src0[off:off+4], src1[off:off+4]
				s0 += wv * p[0]
				s1 += wv * p[1]
				s2 += wv * p[2]
				s3 += wv * p[3]
				s4 += wv * q[0]
				s5 += wv * q[1]
				s6 += wv * q[2]
				s7 += wv * q[3]
			}
			if pool {
				d := orow[segs[t+1] : segs[t+1]+2]
				d[0], d[1] = reluPool(s0, s1, s4, s5), reluPool(s2, s3, s6, s7)
				continue
			}
			d := orow[segs[t+1] : segs[t+1]+4]
			d[0], d[1], d[2], d[3] = s0, s1, s2, s3
			d = orow[segs[t+3] : segs[t+3]+4]
			d[0], d[1], d[2], d[3] = s4, s5, s6, s7
		}
	}
}

// convDot is one output pixel of convDirectGo: b + sum_c wr[c]*src[offs[c]],
// c ascending.
func convDot(b float64, wr []float64, offs []int, src []float64) float64 {
	s := b
	for c, wv := range wr {
		s += wv * src[offs[c]]
	}
	return s
}

// reluPool is ReLU.Forward then MaxPool2D.Forward over one 2x2 window, given
// in the pool's scan order (row 2y at x, x+1, then row 2y+1), bit for bit:
// the first candidate is rectified (a if a > 0, else +0) and each later one
// wins only on strict >. The later candidates need no ReLU of their own: one
// that is <= 0 (either zero) or NaN never beats a best >= +0, exactly as its
// rectified +0 would not.
func reluPool(a, b, c, d float64) float64 {
	best := 0.0
	if a > 0 {
		best = a
	}
	if b > best {
		best = b
	}
	if c > best {
		best = c
	}
	if d > best {
		best = d
	}
	return best
}

// convBwdGo is one output channel's share of Conv2D's backward pass over one
// CHW sample, the specification the AVX2 kernel reproduces. g is the
// channel's oh*ow gradient plane (row width ow), wt and gw the channel's
// kk = len(offs) weights and weight gradients, gb its one bias gradient, and
// offs the receptive field's offsets from convOffsets, read k at a time: the
// field's rows, (ic, ky) order, each k contiguous elements. For every g[p]
// with g[p] != 0, p ascending (zeros of either sign are skipped; NaN is not),
// gb gets gv, each weight-gradient row gets gv times the field's input row
// and — unless gi is nil — each of the field's input-gradient rows gets gv
// times the weight row, one multiply then one add per element: Backward's
// terms in Backward's order. The pixel at p = y*ow+x has its field at
// y*w+x = p + y*(k-1) in the sample.
func convBwdGo(g []float64, ow int, in, wt, gw, gb, gi []float64, offs []int, k int) {
	sb := gb[0]
	for p, gv := range g {
		if gv == 0 {
			continue
		}
		sb += gv
		origin := p + p/ow*(k-1)
		for r := 0; r < len(offs); r += k {
			o := origin + offs[r]
			src, dst := in[o:o+k], gw[r:r+k]
			for j, v := range src {
				dst[j] += gv * v
			}
			if gi != nil {
				src, dst = wt[r:r+k], gi[o:o+k]
				for j, v := range src {
					dst[j] += gv * v
				}
			}
		}
	}
	gb[0] = sb
}
