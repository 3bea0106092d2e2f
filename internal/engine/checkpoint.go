package engine

import (
	"fmt"
	"math"
)

// ShardCheckpoint is the serializable root-visible state of one shard: what
// a surviving (or newly joined) regional coordinator needs to adopt the
// shard's contiguous edge range mid-run. It deliberately contains no bandit
// or accounting floats — the controller state lives at the root and the
// per-edge serving RNG streams live on the edges themselves (they travel
// with the edge sessions when the edges redial the adopter) — so handing a
// shard over cannot perturb Results: the fold still replays canonical
// edge-index order over the same per-edge terms.
//
// The JSON tags make the checkpoint a wire unit of the regional tier
// (internal/deploy ships it inside a MsgShardAdopt frame).
type ShardCheckpoint struct {
	// Start and Count are the shard's contiguous global edge range
	// [Start, Start+Count).
	Start int `json:"start"`
	Count int `json:"count"`
	// DoneSlots is the root's fold watermark for the shard: slots
	// [0, DoneSlots) have been folded, so the adopter resumes at DoneSlots.
	DoneSlots int `json:"doneSlots,omitempty"`
	// FleetSeed is the seed of the fleet that first admitted the shard's
	// edges. Edge resume tokens and backoff jitter streams are derived
	// deterministically from it, so the adopting coordinator reconstructs
	// them locally instead of having secrets shipped.
	FleetSeed int64 `json:"fleetSeed"`
	// Down and JitterDraws each hold one entry per edge: a checkpoint's
	// Count is only as large as the per-edge state that came with it, so a
	// receiver never sizes anything from a bare number.
	//
	// Down marks edges already down. A restored shard keeps them down
	// without re-announcing the transition — the root already folded their
	// WentDown slot (and with it the reason, into Result.DownErrors).
	Down []bool `json:"down,omitempty"`
	// JitterDraws counts the backoff-jitter draws each edge's retry stream
	// has consumed (the stream position to fast-forward to). Jitter paces
	// wall-clock retries only — it never reaches Results.
	JitterDraws []int `json:"jitterDraws,omitempty"`
}

// Validate checks the checkpoint's internal consistency. The session-relative
// bounds (the horizon, the retry budget) are the receiver's to add.
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
	if len(c.JitterDraws) != c.Count {
		return fmt.Errorf("engine: checkpoint has %d jitter positions for %d edges", len(c.JitterDraws), c.Count)
	}
	for i, n := range c.JitterDraws {
		if n < 0 {
			return fmt.Errorf("engine: checkpoint edge %d has negative jitter position %d", c.Start+i, n)
		}
	}
	return nil
}

// Fold advances the checkpoint past one folded slot of its shard: the fold
// watermark moves on, every edge the delta reports unserved stays down, and
// each edge's jitter position moves by the retries it burned. d covers the
// checkpoint's range; its float terms are the engine's fold's, not the
// checkpoint's.
func (c *ShardCheckpoint) Fold(d SlotDelta) {
	c.DoneSlots++
	for j := range d.Edges {
		ed := &d.Edges[j]
		c.JitterDraws[j] += ed.Retries
		if !ed.Served {
			c.Down[j] = true
		}
	}
}
