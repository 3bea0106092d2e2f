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
	// Start is the global id of the shard's first edge: the shard covers
	// [Start, Start+len(Down)).
	Start int `json:"start"`
	// FleetSeed is the seed of the fleet that first admitted the shard's
	// edges. Edge resume tokens and backoff jitter are derived
	// deterministically from it (with the edge id, and for jitter the slot
	// and attempt), so the adopting coordinator reconstructs them locally
	// instead of having them shipped.
	FleetSeed int64 `json:"fleetSeed"`
	// Down marks the edges already down, one entry per edge, so it is also
	// the shard's size: a receiver never sizes anything from a bare number.
	// A restored shard keeps them down without re-announcing the
	// transition — the root already folded their WentDown slot (and with it
	// the reason, into Result.DownErrors).
	Down []bool `json:"down"`
}

// Validate checks that the checkpoint covers a non-empty edge range that
// does not overflow.
func (c *ShardCheckpoint) Validate() error {
	if n := len(c.Down); c.Start < 0 || n == 0 || n > math.MaxInt-c.Start {
		return fmt.Errorf("engine: checkpoint covers %d edges from %d, want a positive range", n, c.Start)
	}
	return nil
}

// Fold records one folded slot of its shard: every edge the delta reports
// unserved stays down. d covers the checkpoint's range; its float terms are
// the engine's fold's, not the checkpoint's.
func (c *ShardCheckpoint) Fold(d SlotDelta) {
	for j := range d.Edges {
		if !d.Edges[j].Served {
			c.Down[j] = true
		}
	}
}
