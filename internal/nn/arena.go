package nn

// Arena is a grow-only scratch allocator for the batched inference path.
// One arena belongs to exactly one goroutine at a time — a Scorer lane, a
// training run — while many may share the network (no sync.Pool: pooled
// buffers migrate between goroutines, which both breaks that ownership
// discipline and trips the race detector on the determinism tests).
//
// Buffers are keyed by call order: a fixed layer sequence requests the same
// buffers in the same order every batch, so once an arena has seen its
// largest batch every request is served from the cache and a steady-state
// slot step performs zero heap allocations (TestNNRuntimeSlotZeroAllocs in
// internal/deploy).
//
// Protocol: call Reset once per batch, build the input batch from the
// arena, run Network.ForwardBatch, consume the outputs, repeat. Reset
// recycles every buffer handed out since the previous Reset, so values must
// not be retained across batches.
type Arena struct {
	floats  [][]float64
	nfloats int
	ints    [][]int
	nints   int
	i8s     [][]int8
	ni8     int
	i32s    [][]int32
	ni32    int
	tensors []*Tensor
	nten    int
}

// NewArena creates an empty arena.
func NewArena() *Arena { return &Arena{} }

// Reset recycles every buffer handed out since the previous Reset. The
// buffers keep their capacity, so a warmed arena serves subsequent batches
// without allocating.
func (a *Arena) Reset() {
	a.nfloats, a.nints, a.nten = 0, 0, 0
	a.ni8, a.ni32 = 0, 0
}

// Floats returns a float64 scratch slice of length n. Contents are
// unspecified: callers must fully overwrite before reading.
func (a *Arena) Floats(n int) []float64 {
	if a.nfloats == len(a.floats) {
		a.floats = append(a.floats, make([]float64, n)) //lint:allow hotalloc grow-only arena pool; steady state reuses capacity
	} else if cap(a.floats[a.nfloats]) < n {
		a.floats[a.nfloats] = make([]float64, n) //lint:allow hotalloc grow-only arena pool; steady state reuses capacity
	}
	buf := a.floats[a.nfloats][:n]
	a.nfloats++
	return buf
}

// Ints returns an int scratch slice of length n — the direct convolution's
// offset and segment tables. Contents are unspecified: callers must fully
// overwrite before reading.
func (a *Arena) Ints(n int) []int {
	if a.nints == len(a.ints) {
		a.ints = append(a.ints, make([]int, n)) //lint:allow hotalloc grow-only arena pool; steady state reuses capacity
	} else if cap(a.ints[a.nints]) < n {
		a.ints[a.nints] = make([]int, n) //lint:allow hotalloc grow-only arena pool; steady state reuses capacity
	}
	buf := a.ints[a.nints][:n]
	a.nints++
	return buf
}

// Int8s returns an int8 scratch slice of length n for the quantized
// inference path. Contents are unspecified: callers must fully overwrite
// before reading.
func (a *Arena) Int8s(n int) []int8 {
	if a.ni8 == len(a.i8s) {
		a.i8s = append(a.i8s, make([]int8, n)) //lint:allow hotalloc grow-only arena pool; steady state reuses capacity
	} else if cap(a.i8s[a.ni8]) < n {
		a.i8s[a.ni8] = make([]int8, n) //lint:allow hotalloc grow-only arena pool; steady state reuses capacity
	}
	buf := a.i8s[a.ni8][:n]
	a.ni8++
	return buf
}

// Int32s returns an int32 scratch slice of length n — the quantized GEMM's
// accumulator scratch. Contents are unspecified.
func (a *Arena) Int32s(n int) []int32 {
	if a.ni32 == len(a.i32s) {
		a.i32s = append(a.i32s, make([]int32, n)) //lint:allow hotalloc grow-only arena pool; steady state reuses capacity
	} else if cap(a.i32s[a.ni32]) < n {
		a.i32s[a.ni32] = make([]int32, n) //lint:allow hotalloc grow-only arena pool; steady state reuses capacity
	}
	buf := a.i32s[a.ni32][:n]
	a.ni32++
	return buf
}

// Tensor returns a tensor of the given shape backed by arena scratch.
// Unlike NewTensor the data is NOT zeroed; every kernel in the batched path
// writes all of its output elements, and callers building inputs copy over
// the full extent.
func (a *Arena) Tensor(shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		if d <= 0 {
			//lint:allow panicpolicy mirrors NewTensor: a non-positive dimension is a programmer error on the inference hot path
			panic("nn: non-positive dimension in arena tensor shape")
		}
		n *= d
	}
	t := a.header()
	t.Shape = append(t.Shape[:0], shape...) //lint:allow hotalloc shape header grows once to its max rank, then reuses capacity
	t.Data = a.Floats(n)
	return t
}

// View returns a tensor header over existing data (no copy) — the batched
// Flatten uses it to reshape without touching the payload. The element
// count of shape must equal len(data).
func (a *Arena) View(data []float64, shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		n *= d
	}
	if n != len(data) {
		//lint:allow panicpolicy mirrors NewTensor: a shape/payload mismatch is a programmer error on the inference hot path
		panic("nn: arena view shape does not match data length")
	}
	t := a.header()
	t.Shape = append(t.Shape[:0], shape...) //lint:allow hotalloc shape header grows once to its max rank, then reuses capacity
	t.Data = data
	return t
}

// zeroFloats clears s (the compiler lowers the range-clear to memclr).
// Arena buffers are handed out dirty, so every batched accumulation target
// clears explicitly before its += loop.
func zeroFloats(s []float64) {
	for i := range s {
		s[i] = 0
	}
}

// header hands out a recycled tensor header.
func (a *Arena) header() *Tensor {
	if a.nten == len(a.tensors) {
		a.tensors = append(a.tensors, &Tensor{}) //lint:allow hotalloc grow-only header pool; steady state reuses capacity
	}
	t := a.tensors[a.nten]
	a.nten++
	return t
}
