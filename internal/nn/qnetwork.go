package nn

import (
	"fmt"
	"math"
)

// QuantizedNetwork is the true-INT8 execution engine (DESIGN.md §9 "INT8
// fast path"): a compiled form of a fake-quant network that stores weights
// as int8 rows plus one float64 scale per tensor (aliasing the zoo's
// QuantizedWeights buffers, or a zero-padded int8 copy when a row length is
// not a vector-width multiple — never a float64 clone), runs dense layers as
// integer row-dot kernels and convolutions as a direct tile over the input
// planes where the host has one for the layer (qconvDirectFits), else as
// integer im2col + the same row-dot kernels, all with int32 accumulation,
// and carries activations between stages as int8 at statically calibrated
// scales. It runs the float network's stage list (planStages), one op per
// Conv2D or Dense stage: the stage's ReLU is the requantize clamp's lower
// bound, its max-pool runs on the convolution's int32 accumulators before
// the requantize, and both are exact (max and clamp commute with the
// monotone requantization), so the only rounding beyond weight/input
// quantization is the pinned fixed-point requantization after each op. The
// final Dense head dequantizes its int32 accumulators straight to float64
// logits, so downstream softmax/loss code is unchanged.
//
// It is an opt-in execution mode: the fake-quant float path remains the
// committed-results oracle, and this engine is reached only through the
// -int8 flags (models.TrainedZooConfig.Int8, deploy.NNRuntime.Int8).
type QuantizedNetwork struct {
	Name string

	inShape []int
	inScale float64 // input activation scale
	ops     []qOp
	outDim  int

	// Per-sample scratch high-water marks, fixed at build time so every
	// ForwardBatch performs the same four arena requests (zero steady-state
	// allocations, same discipline as the float path). Each is multiplied by
	// the batch size at request time: the engine lowers a whole chunk into
	// one accumulator block (through one im2col buffer, for a convolution
	// on the GEMM) so each conv or dense stage is a single batch pass rather
	// than per-sample row-dots.
	maxAct int // widest activation boundary
	maxCol int // widest col scratch an op uses (qOp.colLen)
	maxAcc int // widest accumulator block, plus a pooled conv's pooled sums

	actMax []float64 // calibration scratch, kept so a Recompile reuses it
	tables Arena     // the tile convolutions' operands; Reset by each Recompile
}

type qOpKind uint8

const (
	qConv qOpKind = iota
	qDense
	qHead
)

// qOp is one compiled Conv2D or Dense stage. Conv and Dense requantize back
// to int8 at the next boundary's scale, through the stage's ReLU and (conv)
// 2x2 max-pool; the head produces float64 logits.
type qOp struct {
	kind qOpKind

	// wq holds the int8 weight rows at stride kPad = padTo16(row length):
	// when the natural row length is already a vector-width multiple it
	// aliases the QuantizedWeights storage directly; otherwise it is a
	// zero-padded copy (still int8 — at most 15 extra bytes per row), so
	// the SIMD dots never run a scalar tail. The zero pad multiplies
	// whatever garbage sits in the matching patch/activation pad, and
	// adding zeros to an int32 wraparound sum is exact.
	wq    []int8
	wpad  []int8 // the op's own padded copy, when wq is one; kept for reuse
	kPad  int
	biasQ []int32 // bias in accumulator units: round(b/(sx*sw)), |.| <= 2^30
	m     int32   // fixed-point requant multiplier (quantMultiplier)
	shift int
	relu  bool // the stage's ReLU: requantize clamps to [0, 127]
	pool  bool // the stage's MaxPool2D: runConv pools the accumulators

	// zeroScale marks an all-zero weight tensor (sw == 0): the accumulator
	// units are undefined, so the op's output is the bias alone, quantized
	// at the output scale.
	zeroScale bool
	biasAtSy  []int8

	// head
	sxw   float64 // sx*sw: int32 accumulator -> float64 logits
	biasF []float64

	// Convolutions the host runs on a direct tile (qconvDirectFits) also
	// carry the tile's operands, all in the engine's tables arena:
	// convDirectTables' offsets (resliced to the tile's tap step) and
	// eight-pixel segments, and the weights repacked for the tile, zero past
	// the field and the last channel. Short-K (kPad < longK): int16 tap
	// pairs, one dword per channel and pair in four-channel groups,
	// wpk[(g*pairs+p)*4+l] = (w[4g+l][2p], w[4g+l][2p+1]). Long-K: per
	// eight-channel group, each channel's starting sum -128*sum(w) and then
	// int8 tap quads, wpk[g*8*(quads+1)+8*(1+q)+l] = (w[8g+l][4q..4q+3]).
	offs, segs []int
	wpk        []int32

	// geometry
	inC, outC, k  int // conv: oh x ow is the convolution's output, pooled or not
	h, w, oh, ow  int
	inDim, outDim int // dense/head
	inLen, outLen int // per-sample activation lengths, outLen after any pool
}

// actScale maps a calibrated activation maxAbs to a quantization scale,
// falling back to 1 for an all-zero boundary so activation scales are
// always positive.
func actScale(maxAbs float64) float64 {
	s := maxAbs / 127
	if s == 0 {
		return 1
	}
	return s
}

// maxAbsOf ignores NaNs (comparisons with NaN are false); quantizeActs
// handles them explicitly at inference time.
func maxAbsOf(data []float64) float64 {
	m := 0.0
	for _, v := range data {
		if a := math.Abs(v); a > m {
			m = a
		}
	}
	return m
}

// biasQLimit bounds a bias in accumulator units, and maxDotLen the int8
// products one accumulator sums (66 572): |dot| <= K*127*127, so
// |dot + bias| <= MaxInt32 and no accumulator, biased or not, wraps —
// which keeps the logits meaningful and pooling the accumulators exact.
// Recompile refuses a longer conv or dense row.
const (
	biasQLimit = 1 << 30
	maxDotLen  = (math.MaxInt32 - biasQLimit) / (127 * 127)
)

// longK is the padded row length from which a convolution is long-K: the
// VNNI dot kernel's threshold (qdot2SIMD), and so the line between the two
// convolution tiles (qconvDirectFits), whose weight packing differs.
const longK = 64

func clampBiasQ(v float64) int32 {
	q := math.Round(v)
	if q > biasQLimit {
		q = biasQLimit
	}
	if q < -biasQLimit {
		q = -biasQLimit
	}
	return int32(q)
}

func clampRoundInt8(v float64) int8 {
	q := math.Round(v)
	switch {
	case math.IsNaN(q):
		return 0
	case q > 127:
		return 127
	case q < -127:
		return -127
	}
	return int8(q)
}

// calibChunk bounds how many calibration samples go through one float pass,
// so the arena's high-water mark is one chunk's activations rather than the
// whole batch's at every layer. Chunking does not move a scale: samples are
// independent in ForwardBatch (batch_equiv_test.go) and max is exact, so the
// maximum over chunk maxima is the whole batch's maximum.
const calibChunk = 8

// resized returns s at length n, reusing its storage when the capacity
// suffices. Contents are unspecified.
func resized[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// calibrate runs the float network over calib, layer by layer, and records
// each boundary's maxAbs into actMax (resized to len(Layers)+1): actMax[i] is
// the input to layer i; actMax[len(Layers)] the logits (unused: the head
// dequantizes, it does not requantize). All scratch comes from a, which is
// Reset before every chunk.
func calibrate(actMax []float64, net *Network, calib *Tensor, a *Arena) []float64 {
	actMax = resized(actMax, len(net.Layers)+1)
	clear(actMax)
	n := calib.Shape[0]
	sampleLen := calib.Len() / n
	var shapeBuf [8]int
	shape := append(shapeBuf[:0], calib.Shape...)
	for start := 0; start < n; start += calibChunk {
		end := min(start+calibChunk, n)
		a.Reset()
		shape[0] = end - start
		cur := a.View(calib.Data[start*sampleLen:end*sampleLen], shape...)
		actMax[0] = max(actMax[0], maxAbsOf(cur.Data))
		for i, l := range net.Layers {
			cur = l.ForwardBatch(cur, a)
			actMax[i+1] = max(actMax[i+1], maxAbsOf(cur.Data))
		}
	}
	return actMax
}

// NewQuantizedNetwork compiles net — a fake-quant network whose parameters
// are the dequantized values of qw (QuantizedWeights.ApplyTo) — into the
// INT8 engine. calib is a [B, inShape...] batch of representative samples;
// the float network runs over it once, layer by layer, to calibrate one
// static activation scale per layer boundary (maxAbs/127, zero->one
// fallback). Weight scales come from qw; biases are read from net's float
// tensors in accumulator units. Each Conv2D or Dense stage of net
// (planStages) compiles to one op, its ReLU and MaxPool2D folded in; a
// Flatten stage costs nothing, and any other stage — a ReLU or MaxPool2D no
// such stage absorbs, or another layer type — is an error. No conv or dense
// row may sum more than maxDotLen products, and the final layer must be
// Dense — every zoo architecture qualifies.
func NewQuantizedNetwork(net *Network, qw *QuantizedWeights, calib *Tensor) (*QuantizedNetwork, error) {
	q := &QuantizedNetwork{}
	if err := q.Recompile(net, qw, calib, NewArena()); err != nil {
		return nil, err
	}
	return q, nil
}

// Recompile is NewQuantizedNetwork into an engine that already exists: q
// becomes the compiled form of (net, qw, calib), exactly the engine a fresh
// compile returns, reusing its op table and per-op buffers where they fit.
// The calibration pass takes all its scratch from a, the caller's arena,
// which it Resets. After an error q is partly overwritten and must not serve.
func (q *QuantizedNetwork) Recompile(net *Network, qw *QuantizedWeights, calib *Tensor, a *Arena) error {
	inShape := net.InShape()
	if len(calib.Shape) != len(inShape)+1 || calib.Shape[0] < 1 {
		return fmt.Errorf("nn: calibration batch shape %v does not cover input shape %v", calib.Shape, inShape)
	}
	for i, d := range inShape {
		if calib.Shape[i+1] != d {
			return fmt.Errorf("nn: calibration batch shape %v does not cover input shape %v", calib.Shape, inShape)
		}
	}
	if len(net.Layers) == 0 {
		return fmt.Errorf("nn: network %q has no layers", net.Name)
	}
	if _, ok := net.Layers[len(net.Layers)-1].(*Dense); !ok {
		return fmt.Errorf("nn: network %q does not end in a Dense head; the INT8 engine needs float logits", net.Name)
	}

	q.actMax = calibrate(q.actMax, net, calib, a)
	actMax := q.actMax

	// The previous compile's ops donate their buffers to the op that lands at
	// the same index; old shares q.ops' storage, and entry i is read before
	// the append that overwrites it.
	old := q.ops
	q.tables.Reset()
	q.Name, q.inShape, q.ops = net.Name, inShape, q.ops[:0]
	q.outDim, q.maxCol, q.maxAcc = 0, 0, 0
	q.inScale = actScale(actMax[0])
	s := q.inScale // running activation scale
	q.maxAct = shapeLen(inShape)
	ti := 0
	for _, st := range net.stages {
		l := net.Layers[st.at]
		op := qOp{relu: st.relu, pool: st.pool, inLen: shapeLen(st.in), outLen: shapeLen(st.out)}
		var rows, rowLen, acc int // weight rows, their length, per-sample accumulators
		switch t := l.(type) {
		case *Flatten:
			continue // activations are already flat CHW rows
		case *Conv2D:
			op.kind, op.inC, op.outC, op.k = qConv, t.InC, t.OutC, t.K
			op.h, op.w = st.in[1], st.in[2]
			op.oh, op.ow = op.h-op.k+1, op.w-op.k+1
			rows, rowLen, acc = t.OutC, t.InC*t.K*t.K, t.OutC*op.oh*op.ow
		case *Dense:
			op.kind, op.inDim, op.outDim = qDense, t.InDim, t.OutDim
			rows, rowLen, acc = t.OutDim, t.InDim, t.OutDim
		default:
			return fmt.Errorf("nn: layer %d of %q (%T) has no INT8 lowering; a ReLU must directly follow a Conv2D or Dense, a MaxPool2D a Conv2D or its ReLU", st.at, net.Name, l)
		}
		if ti+2 > len(qw.Tensors) {
			return fmt.Errorf("nn: quantized weights exhausted at layer %d of %q", st.at, net.Name)
		}
		if rowLen > maxDotLen {
			return errDotLen(st.at, net.Name, l, rowLen)
		}
		wt, bias := qw.Tensors[ti], l.Params()[1].Data
		ti += 2
		if i := len(q.ops); i < len(old) {
			op.wpad, op.biasQ, op.biasAtSy = old[i].wpad[:0], old[i].biasQ[:0], old[i].biasAtSy[:0]
		}
		if op.pool {
			acc += op.outLen // the accumulator block, then the pooled sums
		}
		q.maxAcc = max(q.maxAcc, acc)
		if st.end == len(net.Layers) {
			op.kind = qHead
			padWeightRows(&op, wt.Data, rows, rowLen)
			op.sxw, op.biasF, q.outDim = s*wt.Scale, bias, rows
		} else {
			// The stage requantizes at its first layer's raw output scale; the
			// folded ReLU and pool commute with the requantization.
			sy := actScale(actMax[st.at+1])
			compileRequantOp(&op, wt, bias, s, sy, rows, rowLen)
			if op.kind == qConv {
				compileConvTile(&op, wt.Data, &q.tables)
			}
			s = sy
		}
		q.ops = append(q.ops, op)
	}
	if ti != len(qw.Tensors) {
		return fmt.Errorf("nn: network %q consumed %d of %d quantized tensors", net.Name, ti, len(qw.Tensors))
	}
	for i := range q.ops {
		q.maxAct = max(q.maxAct, q.ops[i].outLen)
		q.maxCol = max(q.maxCol, q.ops[i].colLen())
	}
	return nil
}

// lo is the requantize clamp's lower bound: 0 with a ReLU folded in
// (relu ∘ clamp±127 ≡ clamp[0,127]), else -127.
func (op *qOp) lo() int8 {
	if op.relu {
		return 0
	}
	return -127
}

// colLen is the per-sample col scratch the compiled op reads and writes: a
// convolution's im2colQ patch rows when it lowers through the GEMM, else
// (on a tile) the unpooled requantize row, and nothing at all for a pooled
// tile or an all-zero tensor; a Dense op's padded activation row when its
// input is not already at the padded stride.
func (op *qOp) colLen() int {
	switch {
	case op.kind != qConv:
		if op.kPad != op.inDim {
			return op.kPad
		}
		return 0
	case op.zeroScale || len(op.segs) > 0 && op.pool:
		return 0
	case len(op.segs) > 0:
		return op.oh * op.ow
	}
	return op.oh * op.ow * op.kPad
}

func errDotLen(li int, name string, l Layer, k int) error {
	return fmt.Errorf("nn: layer %d of %q (%T) sums %d int8 products per output; past %d an int32 accumulator can wrap", li, name, l, k, maxDotLen)
}

// padWeightRows sets op.wq to rows of rowLen int8s at stride op.kPad =
// padTo16(rowLen), zero-filling the pad. When rowLen is already a
// vector-width multiple the QuantizedWeights storage is aliased as is — no
// copy; otherwise the copy lands in op.wpad.
func padWeightRows(op *qOp, data []int8, rows, rowLen int) {
	lp := padTo16(rowLen)
	op.kPad = lp
	if lp == rowLen {
		op.wq = data
		return
	}
	op.wpad = resized(op.wpad, rows*lp)
	for r := 0; r < rows; r++ {
		row := op.wpad[r*lp : (r+1)*lp]
		clear(row[copy(row, data[r*rowLen:(r+1)*rowLen]):])
	}
	op.wq = op.wpad
}

// compileRequantOp fills the requantizing conv/dense fields: the padded int8
// weight rows, the fixed-point multiplier for (sx*sw)/sy, and the bias in
// int32 accumulator units — or, for an all-zero weight tensor, the bias
// quantized directly at the output scale.
func compileRequantOp(op *qOp, wt QuantizedTensor, bias []float64, sx, sy float64, rows, rowLen int) {
	padWeightRows(op, wt.Data, rows, rowLen)
	if wt.Scale == 0 {
		op.zeroScale = true
		op.biasAtSy = resized(op.biasAtSy, len(bias))
		for o, b := range bias {
			op.biasAtSy[o] = max(clampRoundInt8(b/sy), op.lo())
		}
		return
	}
	sxw := sx * wt.Scale
	op.m, op.shift = quantMultiplier(sxw / sy)
	op.biasQ = resized(op.biasQ, len(bias))
	for o, b := range bias {
		op.biasQ[o] = clampBiasQ(b / sxw)
	}
}

// compileConvTile fills a direct tile's operands, from a, for a convolution
// whose geometry and padded rows op already holds and which the host runs on
// a tile (qconvDirectFits; an all-zero tensor runs nothing): the index
// tables, which depend on the geometry alone, and the weight rows (outC rows
// of inC*k*k int8s, unpadded) repacked as the tap pairs or, for a long-K
// layer, the starting sums and tap quads the kernel broadcasts.
func compileConvTile(op *qOp, w []int8, a *Arena) {
	if op.zeroScale || !qconvDirectFits(op.kPad, op.ow) {
		return
	}
	kk := op.inC * op.k * op.k
	op.offs, op.segs, _ = convDirectTables(a, op.inC, op.h, op.w, op.k, 8, false)
	if op.kPad >= longK {
		quads := (kk + 3) / 4
		op.offs = op.offs[:4*quads]
		group := 8 * (quads + 1)
		op.wpk = a.Int32s((op.outC + 7) / 8 * group)
		clear(op.wpk)
		for oc := 0; oc < op.outC; oc++ {
			dst := op.wpk[oc/8*group+oc%8:]
			var sum int32
			for c, v := range w[oc*kk : (oc+1)*kk] {
				dst[8+c/4*8] |= int32(uint32(uint8(v)) << (c % 4 * 8))
				sum += int32(v)
			}
			dst[0] = -128 * sum
		}
		return
	}
	pairs := (kk + 1) / 2
	op.offs = op.offs[:2*pairs]
	groups := (op.outC + 3) / 4
	op.wpk = a.Int32s(groups * pairs * 4)
	clear(op.wpk)
	for oc := 0; oc < op.outC; oc++ {
		row := w[oc*kk : (oc+1)*kk]
		dst := op.wpk[oc/4*pairs*4+oc%4:]
		for c, v := range row {
			dst[c/2*4] |= int32(uint16(v)) << (c % 2 * 16)
		}
	}
}

// ForwardBatch runs the INT8 engine on a [B, inShape...] float batch and
// returns [B, classes] float64 logits. All scratch comes from a (caller
// Resets between batches, same contract as Network.ForwardBatch); the call
// always issues the same four scratch requests plus the output tensor, so a
// warmed arena serves it without allocating.
//
//lint:hotroot quantized inference inner loop; all scratch comes from the arena
func (q *QuantizedNetwork) ForwardBatch(in *Tensor, a *Arena) *Tensor {
	batch := in.Shape[0]
	inLen := shapeLen(q.inShape)
	if in.Len() != batch*inLen {
		//lint:allow panicpolicy inference hot path: a shape mismatch is a programmer error, mirroring Network.ForwardBatch's layer guards
		panic(fmt.Sprintf("nn: QuantizedNetwork %q expected %d values per sample, got shape %v", q.Name, inLen, in.Shape))
	}
	out := a.Tensor(batch, q.outDim)
	cur := a.Int8s(batch * q.maxAct)
	nxt := a.Int8s(batch * q.maxAct)
	col := a.Int8s(batch * q.maxCol)
	acc := a.Int32s(batch * q.maxAcc)

	quantizeActsSIMD(cur[:batch*inLen], in.Data, q.inScale)
	for i := range q.ops {
		op := &q.ops[i]
		switch op.kind {
		case qConv:
			q.runConv(op, batch, cur, nxt, col, acc)
		case qDense:
			q.runDense(op, batch, cur, nxt, col, acc)
		case qHead:
			q.runHead(op, batch, cur, col, acc, out.Data)
			return out
		}
		cur, nxt = nxt, cur
	}
	return out // unreachable: compilation guarantees a qHead terminator
}

// runConv computes the WHOLE chunk's outC x (batch*np) accumulators, then
// requantizes them. A convolution compiled for a direct tile
// (compileConvTile) reads every sample's input planes where they lie,
// whatever the dispatch flags say now. Any other lowers the chunk at once:
// every sample's patch rows go into one shared im2col buffer (batch*np rows
// at the padded stride) and a single qgemmNT call does the rest, so the
// weight rows stream through the batch-tiled dual-row kernels once per chunk
// instead of once per sample. int32 wraparound addition is associative, so
// any grouping is
// bit-identical to per-sample row-dots over unpadded patches
// (qoracle_test.go). The accumulator block is laid out [oc][s*np+j]. A
// pooled convolution max-pools each channel's row of it, the whole chunk in
// one maxPoolAccSIMD call, into the per-sample [s][oc][j] activation layout
// behind the block with the channel's bias added, and one requantizeRow
// maps those pooled sums — a quarter of the pixels, and a row long enough
// for the AVX-512 tier — straight into the activations.
func (q *QuantizedNetwork) runConv(op *qOp, batch int, cur, nxt, col []int8, acc []int32) {
	pnp := op.outLen / op.outC // output pixels per channel, after any pool
	if op.zeroScale {
		for s := 0; s < batch; s++ {
			dst := nxt[s*op.outLen : (s+1)*op.outLen]
			for oc := 0; oc < op.outC; oc++ {
				b := op.biasAtSy[oc]
				row := dst[oc*pnp : (oc+1)*pnp]
				for j := range row {
					row[j] = b
				}
			}
		}
		return
	}
	np := op.oh * op.ow
	cols := batch * np
	if len(op.segs) > 0 {
		qconvDirectSIMD(op, batch, cur, acc[:op.outC*cols])
	} else {
		// Patch rows at the padded stride; the bytes between the patch and
		// the stride are whatever the arena held, annihilated by the zero
		// weight pad.
		spl := np * op.kPad // per-sample patch block
		for s := 0; s < batch; s++ {
			im2colQ(col[s*spl:(s+1)*spl], cur[s*op.inLen:(s+1)*op.inLen], op.inC, op.h, op.w, op.k, op.oh, op.ow, op.kPad)
		}
		qgemmNT(acc[:op.outC*cols], op.wq, col[:batch*spl], op.outC, cols, op.kPad)
	}
	if op.pool {
		pooled := acc[op.outC*cols : op.outC*cols+batch*op.outLen]
		for oc := 0; oc < op.outC; oc++ {
			maxPoolAccSIMD(pooled[oc*pnp:], acc[oc*cols:(oc+1)*cols], batch, op.oh, op.ow, op.outLen, op.biasQ[oc])
		}
		requantizeRow(nxt[:batch*op.outLen], pooled, 0, op.m, op.shift, op.lo())
		return
	}
	// The accumulator row for one output channel is contiguous across the
	// whole batch and shares one bias, so it requantizes as a single long row
	// — long enough for the AVX-512 tier to engage — into the col scratch
	// (dead once the GEMM has consumed it), and a per-sample copy scatters
	// the bytes back to the [s][oc][j] activation layout.
	rq := col[:cols]
	for oc := 0; oc < op.outC; oc++ {
		requantizeRow(rq, acc[oc*cols:(oc+1)*cols], op.biasQ[oc], op.m, op.shift, op.lo())
		for s := 0; s < batch; s++ {
			copy(nxt[s*op.outLen+oc*np:s*op.outLen+(oc+1)*np], rq[s*np:(s+1)*np])
		}
	}
}

// denseInputBatch returns the batch's activation rows at the kPad stride the
// GEMM consumes as its a operand: the cur block itself when inDim is already
// the padded stride (the rows are contiguous), else a strided copy into the
// col scratch (the pad bytes are garbage — the weight pad is zero, so the
// extra products vanish).
func denseInputBatch(op *qOp, batch int, cur, col []int8) []int8 {
	if op.kPad == op.inDim {
		return cur[:batch*op.inDim]
	}
	for s := 0; s < batch; s++ {
		copy(col[s*op.kPad:s*op.kPad+op.inDim], cur[s*op.inLen:(s+1)*op.inLen])
	}
	return col[:batch*op.kPad]
}

// Dense layers run ONE qgemmNT per chunk with the batch's activation rows as
// a (m = batch) and the weight rows as b (n = outDim): sample pairs stream
// through the batch-tiled dual-row kernels, so the weight matrix is
// sign-extended once per sample pair and per column quad instead of once per
// sample. The accumulator block lands per-sample contiguous (acc[s*outDim+o])
// so the requantize pass reads and writes sequentially.
func (q *QuantizedNetwork) runDense(op *qOp, batch int, cur, nxt, col []int8, acc []int32) {
	if op.zeroScale {
		for s := 0; s < batch; s++ {
			copy(nxt[s*op.outLen:(s+1)*op.outLen], op.biasAtSy)
		}
		return
	}
	qgemmNT(acc[:batch*op.outDim], denseInputBatch(op, batch, cur, col), op.wq, batch, op.outDim, op.kPad)
	for s := 0; s < batch; s++ {
		dst := nxt[s*op.outLen : (s+1)*op.outLen]
		arow := acc[s*op.outDim : (s+1)*op.outDim]
		requantizeRowPerCol(dst, arow, op.biasQ, op.m, op.shift, op.lo())
	}
}

// runHead dequantizes the final Dense's int32 accumulators straight to
// float64 logits: logits[o] = acc[o]*sx*sw + b[o]. Shared scalar Go on
// every tier, so the logits are cross-tier identical whenever the
// accumulators are. Batched exactly like runDense (one GEMM per chunk). An
// all-zero head weight tensor needs no special case: wq is all zeros, so
// acc == 0 and sxw == 0 leave exactly the bias.
func (q *QuantizedNetwork) runHead(op *qOp, batch int, cur, col []int8, acc []int32, out []float64) {
	qgemmNT(acc[:batch*op.outDim], denseInputBatch(op, batch, cur, col), op.wq, batch, op.outDim, op.kPad)
	for s := 0; s < batch; s++ {
		orow := out[s*op.outDim : (s+1)*op.outDim]
		arow := acc[s*op.outDim : (s+1)*op.outDim]
		for o, v := range arow {
			orow[o] = float64(v)*op.sxw + op.biasF[o]
		}
	}
}
