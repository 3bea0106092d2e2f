package engine

import (
	"fmt"

	"github.com/carbonedge/carbonedge/internal/energy"
)

// EdgeDelta is one edge's fully-resolved contribution to one slot: the
// observation terms the accounting fold consumes, plus the serving state the
// fault accounting needs. It deliberately carries *terms*, not partial sums:
// energy stays in kWh (the root's meter converts it to emissions), and no
// float has been folded across edges yet. That is what makes SlotDelta.Merge
// exact — merging is pure ordered concatenation, and every non-associative
// float addition happens exactly once, at the root, in canonical edge-index
// order, replaying the serial accumulation op for op.
//
// The JSON tags make the delta the wire unit of the regional-aggregator tier
// (internal/deploy): encoding/json round-trips float64 exactly, so a delta
// that crosses a TCP hop folds to the same bits as one that never left the
// process.
type EdgeDelta struct {
	// Loss, InferLoss, Compute, Correct, Samples, InferKWh, TransferKWh, and
	// Retries mirror Observation (zeroed while the edge is down, except
	// Retries in the slot the edge went down).
	Loss        float64 `json:"loss,omitempty"`
	InferLoss   float64 `json:"inferLoss,omitempty"`
	Compute     float64 `json:"compute,omitempty"`
	Correct     int     `json:"correct,omitempty"`
	Samples     int     `json:"samples,omitempty"`
	InferKWh    float64 `json:"inferKwh,omitempty"`
	TransferKWh float64 `json:"transferKwh,omitempty"`
	Retries     int     `json:"retries,omitempty"`
	// Served reports whether the edge served this slot (false from the slot
	// it went down onward).
	Served bool `json:"served,omitempty"`
	// WentDown marks the slot in which a Degrade shard marked this edge down;
	// DownError is the error that took it down.
	WentDown  bool   `json:"wentDown,omitempty"`
	DownError string `json:"downError,omitempty"`
}

// SlotDelta is the mergeable per-slot reduction unit: the deltas of one
// contiguous edge range [Start, Start+len(Edges)), in edge-index order.
type SlotDelta struct {
	Start int         `json:"start"`
	Edges []EdgeDelta `json:"edges"`
}

// Merge appends the delta of the adjacent range on the right. Merging is
// associative and exact — it is ordered concatenation, with no arithmetic —
// so folding shard deltas left-to-right in canonical shard order produces
// the identical merged delta for every contiguous decomposition. Ranges that
// are not adjacent (a gap, an overlap, or out-of-order shards) are rejected.
func (d *SlotDelta) Merge(o SlotDelta) error {
	if want := d.Start + len(d.Edges); o.Start != want {
		return fmt.Errorf("engine: cannot merge delta starting at edge %d onto range [%d,%d)", o.Start, d.Start, want)
	}
	d.Edges = append(d.Edges, o.Edges...)
	return nil
}

// SlotFold is the accounting state Fold reads and writes for one slot: the
// inputs the fold consumes (meter, placement, per-edge switch costs, the
// Result under construction, and the controller feedback buffers) and the
// slot totals it produces.
type SlotFold struct {
	Meter       *energy.Meter
	Arms        []int
	Downloads   []bool
	SwitchCosts []float64
	Res         *Result
	Losses      []float64
	Served      []bool

	// Outputs, accumulated over the delta's edges.
	Cost     CostBreakdown
	Emission float64
	Correct  int
	Samples  int
}

// Fold runs the slot's cross-edge accounting serially in edge-index order —
// the one place a per-edge term may enter a float accumulation. Deltas carry
// raw terms and Merge is pure concatenation precisely so that every
// non-associative addition happens here, once, in canonical order: the
// result is independent of shard decomposition and completion order. A down
// edge contributes the well-defined fallback: zero samples, zero energy, no
// switch charge (nothing was shipped), and no bandit feedback.
func (d *SlotDelta) Fold(f *SlotFold) {
	for i := range d.Edges {
		ed := &d.Edges[i]
		g := d.Start + i
		f.Losses[g] = ed.Loss
		f.Served[g] = ed.Served
		f.Res.Retries[g] += ed.Retries
		if !ed.Served {
			f.Res.Downtime[g]++
			f.Res.DroppedSlots++
			continue
		}
		f.Res.Selections[g][f.Arms[g]]++
		f.Cost.InferLoss += ed.InferLoss
		f.Cost.Compute += ed.Compute
		if f.Downloads[g] {
			f.Cost.Switching += f.SwitchCosts[g]
			f.Res.Switches++
			f.Emission += f.Meter.RecordTransfer(ed.TransferKWh)
		}
		f.Emission += f.Meter.RecordInference(ed.InferKWh)
		f.Correct += ed.Correct
		f.Samples += ed.Samples
	}
}

// Range is a contiguous block of edges, the unit a shard owns.
type Range struct{ Start, Count int }

// PartitionEdges splits n edges into k near-equal contiguous ranges: shard j
// owns [j*n/k, (j+1)*n/k). This is the canonical decomposition Run uses;
// any other contiguous cover produces the same Result bit for bit.
func PartitionEdges(n, k int) []Range {
	if n <= 0 || k <= 0 {
		return nil
	}
	if k > n {
		k = n
	}
	out := make([]Range, k)
	for j := 0; j < k; j++ {
		start := j * n / k
		end := (j + 1) * n / k
		out[j] = Range{Start: start, Count: end - start}
	}
	return out
}
