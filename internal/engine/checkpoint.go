package engine

import (
	"fmt"
	"math"
)

// ShardCheckpoint is the serializable root-visible state of one shard: what
// a regional coordinator needs to serve the shard's contiguous edge range,
// from its first slot or, adopting it, mid-run. It deliberately contains no bandit
// or accounting floats — the controller state lives at the root and the
// per-edge serving RNG streams live on the edges themselves (they travel
// with the edge sessions when the edges redial the adopter) — so handing a
// shard over cannot perturb Results: the fold still replays canonical
// edge-index order over the same per-edge terms.
//
// The JSON tags make the checkpoint a wire unit of the regional tier
// (internal/deploy ships it in RegionWelcome and ShardAdopt frames).
type ShardCheckpoint struct {
	// Start and Count are the shard's contiguous global edge range
	// [Start, Start+Count).
	Start int `json:"start"`
	Count int `json:"count"`
	// DoneSlots is the root's fold watermark for the shard: slots
	// [0, DoneSlots) have been folded, so the adopter resumes at DoneSlots.
	DoneSlots int `json:"doneSlots,omitempty"`
	// FleetSeed is the seed of the fleet that first admitted the shard's
	// edges. Edge resume tokens and backoff jitter are derived
	// deterministically from it (with the edge id, and for jitter the slot
	// and attempt), so the adopting coordinator reconstructs them locally
	// instead of having them shipped.
	FleetSeed int64 `json:"fleetSeed"`
	// Down marks the edges already down, one entry per edge: a checkpoint's
	// Count is only as large as the per-edge state that came with it, so a
	// receiver never sizes anything from a bare number. A restored shard
	// keeps them down without re-announcing the transition — the root
	// already folded their WentDown slot (and with it the reason, into
	// Result.DownErrors).
	Down []bool `json:"down,omitempty"`
}

// Validate checks the checkpoint's internal consistency. The session-relative
// bound (the horizon) is the receiver's to add.
func (c *ShardCheckpoint) Validate() error {
	if c.Start < 0 || c.Count <= 0 || c.Count > math.MaxInt-c.Start {
		return fmt.Errorf("engine: checkpoint covers %d edges from %d, want a positive range", c.Count, c.Start)
	}
	if c.DoneSlots < 0 {
		return fmt.Errorf("engine: checkpoint with negative fold watermark %d", c.DoneSlots)
	}
	if len(c.Down) != c.Count {
		return fmt.Errorf("engine: checkpoint has %d down flags for %d edges", len(c.Down), c.Count)
	}
	return nil
}

// Fold advances the checkpoint past one folded slot of its shard: the fold
// watermark moves on and every edge the delta reports unserved stays down.
// d covers the checkpoint's range; its float terms are the engine's fold's,
// not the checkpoint's.
func (c *ShardCheckpoint) Fold(d SlotDelta) {
	c.DoneSlots++
	for j := range d.Edges {
		if !d.Edges[j].Served {
			c.Down[j] = true
		}
	}
}
