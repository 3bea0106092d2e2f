package engine

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// ShardStepper steps one contiguous edge range for one slot and returns its
// SlotDelta. The engine's root loop (RunSharded) fans each slot out to its
// shards, merges the deltas in canonical shard order, and folds the merged
// delta in edge-index order — so any ShardStepper that reports faithful
// per-edge deltas (an in-process Shard, or a regional coordinator across a
// TCP hop) yields a bit-identical Result.
type ShardStepper interface {
	// Range returns the shard's contiguous edge range as (start, count) in
	// global edge indices.
	Range() (start, count int)
	// Step serves slot `slot` on every edge of the shard. arms and downloads
	// are shard-local slices: index j corresponds to global edge start+j.
	// The returned delta is valid until the next Step call.
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
	// Workers bounds how many of the shard's edges step concurrently.
	// 0 or 1 steps serially; the delta is identical for every value.
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
	start    int
	edges    []EdgeStepper
	workers  int
	policy   ErrorPolicy
	down     []bool
	obs      []Observation
	errs     []error
	downErrs []error
	buf      []EdgeDelta
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
	workers := cfg.Workers
	if workers <= 0 {
		workers = 1
	}
	if workers > len(edges) {
		workers = len(edges)
	}
	return &Shard{
		start:    cfg.Start,
		edges:    edges,
		workers:  workers,
		policy:   cfg.Policy,
		down:     make([]bool, len(edges)),
		obs:      make([]Observation, len(edges)),
		errs:     make([]error, len(edges)),
		downErrs: make([]error, len(edges)),
		buf:      make([]EdgeDelta, 0, len(edges)),
	}, nil
}

// Range implements ShardStepper.
func (s *Shard) Range() (start, count int) { return s.start, len(s.edges) }

// RestoreDown restores the per-edge down state of a checkpointed shard (a
// ShardCheckpoint's Down slice) after a mid-run handoff. Restored edges keep
// contributing the down fallback (Served=false, zero terms) without
// re-announcing WentDown — the root already folded their transition slot, so
// re-emitting it would double-fire down callbacks and corrupt DownErrors.
func (s *Shard) RestoreDown(down []bool) error {
	if down == nil {
		return nil
	}
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

	if s.workers == 1 {
		for j, e := range s.edges {
			if s.down[j] {
				s.obs[j], s.errs[j] = Observation{}, nil
				continue
			}
			s.obs[j], s.errs[j] = safeStep(e, slot, arms[j], downloads[j])
		}
	} else {
		// Workers claim chunks of edge indices from a shared cursor — one
		// atomic add per chunk, no rendezvous per edge — and skip down edges
		// themselves. Every edge writes only its own obs/errs slot, so which
		// worker serves which chunk never shows in the delta. With one worker
		// per edge (a TCP fleet, whose steps block on round trips) the chunk
		// is a single edge and every exchange is in flight at once.
		n := len(s.edges)
		chunk := (n + 4*s.workers - 1) / (4 * s.workers)
		var cursor atomic.Int64
		var wg sync.WaitGroup
		wg.Add(s.workers)
		for w := 0; w < s.workers; w++ {
			go func() { //lint:allow hotalloc one closure per worker per step, amortized over the worker's chunks of edges; the workers==1 path the 100k-edge budget is set on spawns none
				defer wg.Done()
				for {
					hi := int(cursor.Add(int64(chunk)))
					lo := hi - chunk
					if lo >= n {
						return
					}
					for j := lo; j < min(hi, n); j++ {
						if s.down[j] {
							s.obs[j], s.errs[j] = Observation{}, nil
							continue
						}
						s.obs[j], s.errs[j] = safeStep(s.edges[j], slot, arms[j], downloads[j])
					}
				}
			}()
		}
		wg.Wait()
	}

	// Failures resolve serially in local edge order, so the outcome (the
	// aborting error under FailFast, the down-marking under Degrade) is
	// deterministic regardless of step completion order — and, because
	// shards cover ascending contiguous ranges, scanning shard errors in
	// canonical shard order at the root yields the slot's globally
	// lowest-indexed failure, the serial FailFast outcome.
	for j, err := range s.errs {
		if err == nil {
			continue
		}
		if s.policy == FailFast {
			return SlotDelta{}, fmt.Errorf("engine: edge %d slot %d: %w", s.start+j, slot, err)
		}
		// Degrade: keep the retries the stepper burned, zero the rest of the
		// failed observation, and mark the edge down for the rest of the run.
		s.down[j] = true
		s.obs[j] = Observation{Retries: s.obs[j].Retries}
		s.errs[j] = nil
		s.downErrs[j] = err
	}

	d := SlotDelta{Start: s.start, Edges: s.buf[:0]}
	for j := range s.edges {
		o := s.obs[j]
		ed := EdgeDelta{
			Loss:        o.Loss,
			InferLoss:   o.InferLoss,
			Compute:     o.Compute,
			Correct:     o.Correct,
			Samples:     o.Samples,
			InferKWh:    o.InferKWh,
			TransferKWh: o.TransferKWh,
			Retries:     o.Retries,
			Served:      !s.down[j],
		}
		if s.downErrs[j] != nil {
			ed.WentDown = true
			ed.DownError = s.downErrs[j].Error()
			s.downErrs[j] = nil
		}
		d.Edges = append(d.Edges, ed) //lint:allow hotalloc appends into the recycled slot buffer; capacity is grown once and reused
	}
	s.buf = d.Edges[:0]
	return d, nil
}

// stepShard runs one shard step, converting a panic into an error so a
// misbehaving ShardStepper implementation cannot wedge the root's per-slot
// barrier (in-process Shards already recover stepper panics via safeStep).
func stepShard(sh ShardStepper, slot int, arms []int, downloads []bool) (d SlotDelta, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("engine: shard panic: %v", r)
		}
	}()
	return sh.Step(slot, arms, downloads)
}
