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
	// Down, DownErrors and JitterDraws each hold one entry per edge: a
	// checkpoint's Count is only as large as the per-edge state that came
	// with it, so a receiver never sizes anything from a bare number.
	//
	// Down marks edges already down. A restored shard keeps them down
	// without re-announcing the transition — the root already folded their
	// WentDown slot.
	Down []bool `json:"down,omitempty"`
	// DownErrors records why each down edge went down ("" while up). The
	// adopter does not act on them; they make the serialized state
	// self-describing for operators replaying a handoff.
	DownErrors []string `json:"downErrors,omitempty"`
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
	if len(c.DownErrors) != c.Count {
		return fmt.Errorf("engine: checkpoint has %d down errors for %d edges", len(c.DownErrors), c.Count)
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

// SlotDeduper tracks one shard's fold watermark so a replayed delta stream
// folds each slot exactly once. A resumed region link replays deltas from its
// last unacked slot; the root admits the first delta for each slot (in
// order) and skips duplicates, making the fold idempotent under duplicate,
// reordered, and partially-overlapping replays: the admitted subsequence of
// any such stream is exactly the clean stream.
type SlotDeduper struct {
	next int
}

// Admit reports whether the delta for slot should be folded: true exactly
// when slot is the watermark (the next unfolded slot), advancing it. Replays
// of already-folded slots and out-of-order future slots return false.
func (d *SlotDeduper) Admit(slot int) bool {
	if slot != d.next {
		return false
	}
	d.next++
	return true
}

// Seen reports whether slot was already folded (a replayed duplicate).
func (d *SlotDeduper) Seen(slot int) bool { return slot < d.next }

// Next returns the watermark: the next slot the deduper will admit.
func (d *SlotDeduper) Next() int { return d.next }
