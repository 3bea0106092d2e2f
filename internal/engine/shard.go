package engine

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// ShardStepper steps one contiguous edge range for one slot and returns its
// SlotDelta. The engine's root loop (RunSharded) fans each slot out to its
// shards and folds their deltas in canonical shard order, so every term is
// added in edge-index order — any ShardStepper that reports faithful
// per-edge deltas (an in-process Shard, or a regional coordinator across a
// TCP hop) yields a bit-identical Result.
type ShardStepper interface {
	// Range returns the shard's contiguous edge range as (start, count) in
	// global edge indices.
	Range() (start, count int)
	// Step serves slot `slot` on every edge of the shard. arms and downloads
	// are shard-local slices: index j corresponds to global edge start+j.
	// The returned delta covers exactly Range (RunSharded fails the run on
	// any other) and is valid until the next Step call.
	//
	// Under FailFast an edge failure aborts the step with the shard's
	// lowest-local-edge-index error (already wrapped with the global edge id
	// and slot). Under Degrade edge failures are absorbed into the delta
	// (WentDown/DownError) and Step only fails on misuse or a shard-level
	// fault (e.g. a lost regional link), which aborts the run regardless of
	// policy.
	Step(slot int, arms []int, downloads []bool) (SlotDelta, error)
}

// ShardConfig parameterizes an in-process Shard.
type ShardConfig struct {
	// Start is the global index of the shard's first edge.
	Start int
	// Workers bounds how many of the shard's edges step concurrently, the
	// caller's goroutine counted: 0 or 1 steps every edge on the caller's
	// goroutine. The delta is identical for every value.
	Workers int
	// Policy selects the failure reaction (see ShardStepper.Step).
	Policy ErrorPolicy
}

// Shard owns a contiguous range of edges and steps them with its own worker
// pool. It carries the per-edge down state across slots, so Degrade-mode
// fault handling is shard-local: a failed edge contributes the zeroed
// fallback delta (keeping the retries it burned) in the slot it goes down
// and empty deltas afterwards, exactly as the serial engine's accounting
// defines.
type Shard struct {
	start   int
	edges   []EdgeStepper
	workers int
	chunk   int // edges claimed per cursor add
	policy  ErrorPolicy
	down    []bool
	errs    []error
	buf     []EdgeDelta
	run     func() // work, bound once: `go s.run()` starts a worker without allocating

	// The step in flight, read-only to the workers.
	slot      int
	arms      []int
	downloads []bool
	cursor    atomic.Int64 // end of the last chunk claimed
	wg        sync.WaitGroup
}

var _ ShardStepper = (*Shard)(nil)

// NewShard builds a shard over the given steppers, which serve global edges
// cfg.Start through cfg.Start+len(edges)-1.
func NewShard(cfg ShardConfig, edges []EdgeStepper) (*Shard, error) {
	if cfg.Start < 0 {
		return nil, fmt.Errorf("engine: negative shard start %d", cfg.Start)
	}
	if len(edges) == 0 {
		return nil, fmt.Errorf("engine: shard with no edges")
	}
	for j, e := range edges {
		if e == nil {
			return nil, fmt.Errorf("engine: nil stepper for edge %d", cfg.Start+j)
		}
	}
	if cfg.Policy != FailFast && cfg.Policy != Degrade {
		return nil, fmt.Errorf("engine: unknown error policy %d", cfg.Policy)
	}
	workers := min(max(cfg.Workers, 1), len(edges))
	s := &Shard{
		start:   cfg.Start,
		edges:   edges,
		workers: workers,
		chunk:   (len(edges) + 4*workers - 1) / (4 * workers),
		policy:  cfg.Policy,
		down:    make([]bool, len(edges)),
		errs:    make([]error, len(edges)),
		buf:     make([]EdgeDelta, len(edges)),
	}
	s.run = s.work
	return s, nil
}

// Range implements ShardStepper.
func (s *Shard) Range() (start, count int) { return s.start, len(s.edges) }

// RestoreDown restores the per-edge down state of a checkpointed shard (a
// ShardCheckpoint's Down slice) after a mid-run handoff. Restored edges keep
// contributing the down fallback (Served=false, zero terms) without
// re-announcing WentDown — the root already folded their transition slot, so
// re-emitting it would double-fire down callbacks and corrupt DownErrors.
func (s *Shard) RestoreDown(down []bool) error {
	if len(down) != len(s.edges) {
		return fmt.Errorf("engine: shard [%d,%d): restoring %d down flags for %d edges",
			s.start, s.start+len(s.edges), len(down), len(s.edges))
	}
	copy(s.down, down)
	return nil
}

// Step implements ShardStepper.
//
//lint:hotroot stepped once per slot per shard; the 100k-edge budget allows no allocation here
func (s *Shard) Step(slot int, arms []int, downloads []bool) (SlotDelta, error) {
	if len(arms) != len(s.edges) || len(downloads) != len(s.edges) {
		return SlotDelta{}, fmt.Errorf("engine: shard [%d,%d): %d arms / %d downloads for %d edges",
			s.start, s.start+len(s.edges), len(arms), len(downloads), len(s.edges))
	}

	// The caller is worker 0; the others start beside it. Every edge writes
	// only its own buf/errs element, so which worker serves which chunk never
	// shows in the delta.
	s.slot, s.arms, s.downloads = slot, arms, downloads
	s.cursor.Store(0)
	s.wg.Add(s.workers)
	for w := 1; w < s.workers; w++ {
		go s.run()
	}
	s.work()
	s.wg.Wait()

	// Failures resolve serially in local edge order, so the outcome (the
	// aborting error under FailFast, the down-marking under Degrade) is
	// deterministic regardless of step completion order — and, because
	// shards cover ascending contiguous ranges, scanning shard errors in
	// canonical shard order at the root yields the slot's globally
	// lowest-indexed failure, the serial FailFast outcome.
	for j, err := range s.errs {
		ed := &s.buf[j]
		ed.WentDown, ed.DownError = false, ""
		if err != nil {
			if s.policy == FailFast {
				return SlotDelta{}, fmt.Errorf("engine: edge %d slot %d: %w", s.start+j, slot, err)
			}
			// Degrade: keep the retries the stepper burned, zero the rest of
			// the failed observation, and mark the edge down for the rest of
			// the run.
			s.down[j] = true
			ed.Observation = Observation{Retries: ed.Retries}
			ed.WentDown, ed.DownError = true, err.Error()
		}
		ed.Served = !s.down[j]
	}
	return SlotDelta{Start: s.start, Edges: s.buf}, nil
}

// work claims chunks of edge indices from the shard's cursor until none is
// left — one atomic add per chunk, no rendezvous per edge — and skips down
// edges itself. A chunk is a quarter of a worker's share, so a worker held up
// by a slow edge leaves the rest to the others; with one worker per edge (a
// TCP fleet, whose steps block on round trips) it is a single edge and every
// exchange is in flight at once.
func (s *Shard) work() {
	defer s.wg.Done()
	edges, down, buf, errs := s.edges, s.down, s.buf, s.errs
	slot, arms, downloads, chunk := s.slot, s.arms, s.downloads, s.chunk
	for {
		hi := int(s.cursor.Add(int64(chunk)))
		lo := hi - chunk
		if lo >= len(edges) {
			return
		}
		for j := lo; j < min(hi, len(edges)); j++ {
			if down[j] {
				buf[j].Observation, errs[j] = Observation{}, nil
				continue
			}
			buf[j].Observation, errs[j] = safeStep(edges[j], slot, arms[j], downloads[j])
		}
	}
}
