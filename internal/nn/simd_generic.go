//go:build !amd64

package nn

// The float kernels off amd64: there is no vector tier, so the dispatchers
// are the portable Go loops of simd_portable.go — the same functions amd64
// runs below its AVX2 floor. The two kernels amd64 keeps on baseline SSE2
// without a portable twin (transpose, pool2x2) have their Go bodies here;
// simd_test.go runs on every architecture, pinning whichever implementation
// is active against the same scalar loops.

func reluFwdSIMD(dst, src []float64) { reluFwdGo(dst, src) }

func reluBwdSIMD(dst, grad, in []float64) { reluBwdGo(dst, grad, in) }

func stepSIMD(lr, scale float64, g, p []float64) { stepGo(lr, scale, g, p) }

func transposeSIMD(dst, src []float64, rows, cols int) {
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			dst[c*rows+r] = src[r*cols+c]
		}
	}
}

func pool2x2SIMD(dst, row0, row1 []float64) {
	for x := range dst {
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
		dst[x] = best
	}
}

func convDirectSIMD(out []float64, np int, bias, wt, in []float64, offs, segs []int, sw int, pool bool) {
	convDirectGo(out, np, bias, wt, in, offs, segs, sw, pool)
}

func convBwdSIMD(g []float64, ow int, in, wt, gw, gb, gi []float64, offs []int, k int) {
	convBwdGo(g, ow, in, wt, gw, gb, gi, offs, k)
}

// The 4x8 register tile is an amd64 AVX2 specialization; other architectures
// consume nothing and fall through to the portable row drivers.
func gemmPanelQuad(out []float64, n int, bias, a, panel []float64, m, k int) int { return 0 }

func gemmNNQuadAcc(out, a, bt []float64, m, n, k, ld int) int { return 0 }

// The INT8 convolution tiles are amd64 specializations too: nothing fits
// them here, Recompile prepares no op for one, runConv never calls this, and
// every convolution lowers through im2colQ + qgemmNT.
func qconvDirectFits(kPad, ow int) bool { return false }

func qconvDirectSIMD(op *qOp, batch int, cur []int8, acc []int32) {}

// So are the INT8 accumulator max-pool and input quantizer kernels (arm64's
// NEON tier is the dot kernels alone): the scalar loops of qkernels.go run.
func maxPoolAccSIMD(dst, src []int32, imgs, h, w, ld int, bias int32) {
	maxPoolAcc(dst, src, imgs, h, w, ld, bias)
}

func quantizeActsSIMD(dst []int8, src []float64, scale float64) { quantizeActs(dst, src, scale) }
