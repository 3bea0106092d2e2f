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
	floats  pool[float64]
	ints    pool[int]
	int8s   pool[int8]
	int32s  pool[int32]
	headers pool[Tensor]
}

// pool is one element type's grow-only buffer list: bufs[:n] are handed out
// since the last Reset, the rest wait to be handed out again.
type pool[T any] struct {
	bufs [][]T
	n    int
}

// take returns the next buffer, of length n, growing the list or the
// buffer only when this call order has not yet seen a request that large.
func (p *pool[T]) take(n int) []T {
	if p.n == len(p.bufs) {
		p.bufs = append(p.bufs, make([]T, n)) //lint:allow hotalloc grow-only arena pool; steady state reuses capacity
	} else if cap(p.bufs[p.n]) < n {
		p.bufs[p.n] = make([]T, n) //lint:allow hotalloc grow-only arena pool; steady state reuses capacity
	}
	buf := p.bufs[p.n][:n]
	p.n++
	return buf
}

// NewArena creates an empty arena.
func NewArena() *Arena { return &Arena{} }

// Reset recycles every buffer handed out since the previous Reset. The
// buffers keep their capacity, so a warmed arena serves subsequent batches
// without allocating.
func (a *Arena) Reset() {
	a.floats.n, a.ints.n, a.int8s.n, a.int32s.n, a.headers.n = 0, 0, 0, 0, 0
}

// Floats returns a float64 scratch slice of length n. Contents are
// unspecified: callers must fully overwrite before reading.
func (a *Arena) Floats(n int) []float64 { return a.floats.take(n) }

// Ints returns an int scratch slice of length n — the direct convolution's
// offset and segment tables. Contents are unspecified: callers must fully
// overwrite before reading.
func (a *Arena) Ints(n int) []int { return a.ints.take(n) }

// Int8s returns an int8 scratch slice of length n for the quantized
// inference path. Contents are unspecified: callers must fully overwrite
// before reading.
func (a *Arena) Int8s(n int) []int8 { return a.int8s.take(n) }

// Int32s returns an int32 scratch slice of length n — the quantized GEMM's
// accumulator scratch. Contents are unspecified.
func (a *Arena) Int32s(n int) []int32 { return a.int32s.take(n) }

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
	t := &a.headers.take(1)[0]
	t.Shape = append(t.Shape[:0], shape...) //lint:allow hotalloc shape header grows once to its max rank, then reuses capacity
	t.Data = a.Floats(n)
	return t
}

// View returns a tensor header over existing data (no copy) — INT8
// calibration uses it to take its batch a chunk at a time. The element count
// of shape must equal len(data).
func (a *Arena) View(data []float64, shape ...int) *Tensor {
	if shapeLen(shape) != len(data) {
		//lint:allow panicpolicy mirrors NewTensor: a shape/payload mismatch is a programmer error on the inference hot path
		panic("nn: arena view shape does not match data length")
	}
	t := &a.headers.take(1)[0]
	t.Shape = append(t.Shape[:0], shape...)
	t.Data = data
	return t
}
