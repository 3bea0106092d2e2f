package nn

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// scoreChunk is how many samples go through one forward call: a lane's peak
// scratch is one chunk's activations whatever the slot or pool size, and the
// boundary does not show in the results (no sample sees its batch neighbours).
const scoreChunk = 32

// Scorer is the one chunked scoring loop, under an edge's slot and the zoo's
// pool evaluation alike: stack a chunk of samples into an arena, run the
// engine's batched forward pass, take SquaredLossRow and ArgmaxRow per row.
// The chunks of one Score are served on up to GOMAXPROCS lanes, each on its
// own grow-only arena. The zero Scorer is ready; Score calls must not overlap,
// and no goroutine outlives the Score that started it.
type Scorer struct {
	// Loss and Hit hold the last Score's per-sample squared loss and
	// correctness, in idx order. Score recycles them.
	Loss []float64
	Hit  []bool

	lanes  []*scoreLane // never more started than chunks; lane 0 is the caller's goroutine
	wg     sync.WaitGroup
	cursor atomic.Int64 // end of the last chunk claimed

	// The call in flight, read-only to the lanes.
	forward func(in *Tensor, a *Arena) *Tensor
	pool    []Sample
	idx     []int
}

// scoreLane is one worker's state. run is work bound once: `go ln.run()`
// starts a goroutine without allocating, `go ln.work()` wraps its receiver in
// a fresh closure per start.
type scoreLane struct {
	s     *Scorer
	arena *Arena
	shape []int
	run   func()
}

// lane returns lane w, creating the lanes up to it on first use.
func (s *Scorer) lane(w int) *scoreLane {
	for len(s.lanes) <= w {
		ln := &scoreLane{s: s, arena: NewArena()}
		ln.run = ln.work
		s.lanes = append(s.lanes, ln) //lint:allow hotalloc grow-only lane set; steady state starts the lanes it has
	}
	return s.lanes[w]
}

// Arena is lane 0's arena, free for the caller to borrow between Scores.
func (s *Scorer) Arena() *Arena { return s.lane(0).arena }

// Score evaluates pool[idx[0]], pool[idx[1]], … (all of one shape) with forward
// — (*Network).ForwardBatch or (*QuantizedNetwork).ForwardBatch, both read-only
// on their receiver — and returns the loss sum and hit count. Every sample's
// loss and hit land in their own Loss/Hit element and the sum runs over those
// in idx order: bit for bit a one-sample-at-a-time loop's result, whatever the
// lane count and whichever lane served which chunk.
func (s *Scorer) Score(forward func(in *Tensor, a *Arena) *Tensor, pool []Sample, idx []int) (sumLoss float64, hits int) {
	n := len(idx)
	if cap(s.Loss) < n {
		s.Loss, s.Hit = make([]float64, n), make([]bool, n) //lint:allow hotalloc grow-only result buffers; steady state reuses capacity
	}
	s.Loss, s.Hit = s.Loss[:n], s.Hit[:n]
	s.forward, s.pool, s.idx = forward, pool, idx
	s.cursor.Store(0)
	lanes := max(1, min(runtime.GOMAXPROCS(0), (n+scoreChunk-1)/scoreChunk))
	s.wg.Add(lanes)
	for w := 1; w < lanes; w++ {
		go s.lane(w).run()
	}
	s.lane(0).work()
	s.wg.Wait()
	for i, l := range s.Loss {
		sumLoss += l
		if s.Hit[i] {
			hits++
		}
	}
	return sumLoss, hits
}

// work claims chunks from the scorer's cursor until none is left.
func (ln *scoreLane) work() {
	s, a := ln.s, ln.arena
	defer s.wg.Done()
	for {
		hi := int(s.cursor.Add(scoreChunk))
		lo := hi - scoreChunk
		if lo >= len(s.idx) {
			return
		}
		chunk := s.idx[lo:min(hi, len(s.idx))]
		x := s.pool[chunk[0]].X
		sampleLen := x.Len()
		a.Reset()
		ln.shape = append(append(ln.shape[:0], len(chunk)), x.Shape...) //lint:allow hotalloc recycled shape buffer; grows once to the input rank
		in := a.Tensor(ln.shape...)
		for j, si := range chunk {
			copy(in.Data[j*sampleLen:(j+1)*sampleLen], s.pool[si].X.Data)
		}
		logits := s.forward(in, a)
		classes := logits.Shape[1]
		scratch := a.Floats(classes)
		for j, si := range chunk {
			row := logits.Data[j*classes : (j+1)*classes]
			s.Loss[lo+j] = SquaredLossRow(row, s.pool[si].Label, scratch)
			s.Hit[lo+j] = ArgmaxRow(row) == s.pool[si].Label
		}
	}
}
