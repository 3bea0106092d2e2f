// Package engine owns the paper's per-slot execution protocol — Algorithm 1
// model placement, inference on the slot's data stream, Algorithm 2
// allowance trading, and emission accounting — exactly once, for every
// driver in the repository. The in-process simulator (internal/sim), the
// clairvoyant Offline scheme, and the TCP cloud server (internal/deploy)
// all supply their own EdgeStepper implementations and let Run drive the
// slots; core.Controller remains the single algorithmic brain.
//
// Per-slot accounting is an associative, mergeable reduction: contiguous
// edge ranges (Shards) step concurrently — each with its own worker pool —
// and report SlotDeltas of per-edge terms, which the root merges in
// canonical shard order and folds serially in edge-index order. Results are
// bit-for-bit deterministic for any shard×worker decomposition because
// every source of randomness is confined to one edge's stepper (each edge
// carries its own split RNG streams and scratch buffers), Merge is exact
// ordered concatenation, and every non-associative float accumulation
// happens once, at the root, in the canonical serial order.
// Shards=1, Workers=1 reproduces that order literally.
package engine

import (
	"fmt"
	"sync"

	"github.com/carbonedge/carbonedge/internal/core"
	"github.com/carbonedge/carbonedge/internal/energy"
	"github.com/carbonedge/carbonedge/internal/market"
	"github.com/carbonedge/carbonedge/internal/trading"
)

// Observation is what one edge reports after serving one slot.
type Observation struct {
	// Loss is the bandit feedback for the edge's policy: the observed
	// average inference loss plus the computation cost (the paper's
	// L_{i,n}^t + v_{i,n}).
	Loss float64
	// InferLoss and Compute are the cost-accounting terms: the expected
	// inference loss of the served model and the computation cost. The
	// simulator uses the posterior mean loss (as the paper's accounting
	// does); the deployment uses the observed loss, the only one it has.
	InferLoss float64
	Compute   float64
	// Correct and Samples feed the accuracy series.
	Correct int
	Samples int
	// InferKWh is the slot's inference energy; TransferKWh is the energy a
	// model download would cost. TransferKWh is consulted only when the
	// slot began with a download, so steppers may always fill it in.
	InferKWh    float64
	TransferKWh float64
	// Retries counts transport-level retries the stepper burned to produce
	// this observation (0 for in-process steppers). Steppers may report it
	// alongside an error; the engine accumulates it either way.
	Retries int
}

// EdgeStepper serves one edge's traffic for one slot. Each edge has its own
// stepper instance; Step is never called concurrently on the same instance,
// but steppers of different edges run concurrently, so implementations must
// not share mutable state (RNGs, scratch buffers) across edges.
type EdgeStepper interface {
	// Step runs slot `slot` with model `arm`; download reports whether the
	// controller scheduled a model switch for this edge this slot.
	Step(slot, arm int, download bool) (Observation, error)
}

// Config parameterizes one engine run.
type Config struct {
	// Name labels the run's Result.
	Name string
	// Horizon is the number of slots T.
	Horizon int
	// NumModels is the zoo size N (sizes the selection counts).
	NumModels int
	// InitialCap (grams) seeds the allowance ledger; EmissionRate (g/kWh)
	// converts energy into emissions.
	InitialCap   float64
	EmissionRate float64
	// Prices is the allowance quote series (length >= Horizon).
	Prices *market.Prices
	// SwitchCosts holds the per-edge download cost u_i charged whenever the
	// controller schedules a switch; length must equal the edge count.
	SwitchCosts []float64
	// Workers bounds how many edges step concurrently within each shard.
	// 0 or 1 runs the canonical serial order; the result is identical for
	// every value.
	Workers int
	// Shards splits the edges into this many contiguous shards, each stepping
	// with its own worker pool of up to Workers goroutines. 0 or 1 runs a
	// single shard. The Result is bit-identical for every shard count (see
	// RunSharded), so Shards is purely a throughput knob for large fleets.
	Shards int
	// Policy selects how the run reacts to a failing edge stepper. The zero
	// value (FailFast) aborts on the first error, preserving historical
	// sim/deploy parity semantics.
	Policy ErrorPolicy
}

// ErrorPolicy selects how Run treats a failing edge stepper.
type ErrorPolicy int

const (
	// FailFast aborts the run on the first stepper error, reported
	// deterministically as the slot's lowest-indexed failure.
	FailFast ErrorPolicy = iota
	// Degrade marks a failing edge down and completes the run without it:
	// every remaining slot of a down edge contributes a fallback observation
	// (zero samples served, zero energy, no bandit feedback for the selected
	// arm), so the carbon accounting stays exact over the slots actually
	// served and the surviving edges are undisturbed.
	Degrade
)

// CostBreakdown decomposes the paper's objective P into its terms.
type CostBreakdown struct {
	// InferLoss is sum_t sum_i x * E[l_n] (expected inference loss, using
	// the posterior test-pool mean exactly as the paper's Offline does).
	InferLoss float64
	// Compute is sum_t sum_i x * v_{i,n}.
	Compute float64
	// Switching is sum_t sum_i u_i * y_i^t (weighted).
	Switching float64
	// Trading is sum_t (z^t c^t - w^t r^t).
	Trading float64
}

// Total returns the full objective value.
func (c CostBreakdown) Total() float64 {
	return c.InferLoss + c.Compute + c.Switching + c.Trading
}

// Add accumulates another breakdown in place.
func (c *CostBreakdown) Add(o CostBreakdown) {
	c.InferLoss += o.InferLoss
	c.Compute += o.Compute
	c.Switching += o.Switching
	c.Trading += o.Trading
}

// String renders the breakdown compactly.
func (c CostBreakdown) String() string {
	return fmt.Sprintf("total=%.3f (loss=%.3f compute=%.3f switch=%.3f trade=%.3f)",
		c.Total(), c.InferLoss, c.Compute, c.Switching, c.Trading)
}

// Result captures everything a run produces.
type Result struct {
	Name string
	Cost CostBreakdown

	// CumTotal[t] is the cumulative total cost through slot t.
	CumTotal []float64
	// Emissions[t] is grams of CO2 emitted in slot t.
	Emissions []float64
	// Decisions[t] is the trade executed in slot t.
	Decisions []trading.Decision
	// WorkloadTotal[t] is sum_i M_i^t.
	WorkloadTotal []int
	// Accuracy[t] is the fraction of correct predictions in slot t.
	Accuracy []float64
	// OverallAccuracy aggregates over all samples.
	OverallAccuracy float64
	// Fit is the paper's constraint-violation metric.
	Fit float64
	// Switches counts model downloads across all edges (including each
	// edge's initial download).
	Switches int
	// Selections[i][n] counts slots edge i spent on model n. Under Degrade
	// a down edge's slots are not counted, so row i sums to
	// Horizon - Downtime[i].
	Selections [][]int
	// AvgBuyPrice is spend / allowances bought (0 if none bought).
	AvgBuyPrice float64

	// Fault-tolerance accounting (all zero under FailFast).
	//
	// Downtime[i] counts slots edge i did not serve (including the slot in
	// which it was marked down); DroppedSlots is their sum. Retries[i]
	// accumulates the transport retries edge i's stepper reported.
	// DownErrors[i] is the error that took edge i down ("" while up).
	Downtime     []int
	DroppedSlots int
	Retries      []int
	DownErrors   []string
}

// Run drives the full horizon: it partitions the edges into cfg.Shards
// contiguous in-process Shards (each stepping with its own worker pool of up
// to cfg.Workers goroutines) and hands them to RunSharded, which per slot
// asks the controller for the placement, fans the slot out to the shards,
// merges their deltas in canonical shard order, accounts costs and emissions
// in edge-index order, executes the controller's trade against the ledger,
// and feeds the observations back.
func Run(cfg Config, ctrl *core.Controller, edges []EdgeStepper) (*Result, error) {
	if ctrl == nil {
		return nil, fmt.Errorf("engine: nil controller")
	}
	if len(edges) == 0 {
		return nil, fmt.Errorf("engine: no edges")
	}
	if ctrl.NumEdges() != len(edges) {
		return nil, fmt.Errorf("engine: controller has %d edges, got %d steppers", ctrl.NumEdges(), len(edges))
	}
	for i, e := range edges {
		if e == nil {
			return nil, fmt.Errorf("engine: nil stepper for edge %d", i)
		}
	}
	nshards := cfg.Shards
	if nshards <= 0 {
		nshards = 1
	}
	ranges := PartitionEdges(len(edges), nshards)
	shards := make([]ShardStepper, 0, len(ranges))
	for _, r := range ranges {
		sh, err := NewShard(ShardConfig{
			Start:   r.Start,
			Workers: cfg.Workers,
			Policy:  cfg.Policy,
		}, edges[r.Start:r.Start+r.Count])
		if err != nil {
			return nil, err
		}
		shards = append(shards, sh)
	}
	return RunSharded(cfg, ctrl, shards)
}

// RunSharded is the engine's root loop over an explicit shard decomposition:
// per slot it fans the controller's placement out to every shard, merges the
// shard deltas in canonical shard order, and runs the unchanged global
// accounting/trade/ledger/controller feedback over the merged delta.
//
// The Result is bit-identical for every contiguous shard decomposition and
// every per-shard worker count, including Degrade and FailFast runs: shards
// report per-edge terms (never partial float sums), Merge is exact ordered
// concatenation, and the root folds the merged delta serially in edge-index
// order — the very accumulation order the single-shard serial loop performs.
// Shards must cover [0, ctrl.NumEdges()) contiguously in ascending order.
//
// A shard-level Step error (as opposed to an edge-level failure, which the
// shard's ErrorPolicy governs internally) aborts the run regardless of
// cfg.Policy: the root scans shard errors in canonical shard order, so under
// FailFast the reported error is the slot's lowest-indexed failing edge,
// exactly as the serial path reports it.
func RunSharded(cfg Config, ctrl *core.Controller, shards []ShardStepper) (*Result, error) {
	if ctrl == nil {
		return nil, fmt.Errorf("engine: nil controller")
	}
	if len(shards) == 0 {
		return nil, fmt.Errorf("engine: no shards")
	}
	numEdges := 0
	for k, sh := range shards {
		if sh == nil {
			return nil, fmt.Errorf("engine: nil shard %d", k)
		}
		start, count := sh.Range()
		if start != numEdges || count <= 0 {
			return nil, fmt.Errorf("engine: shard %d covers [%d,%d), want a positive range starting at edge %d",
				k, start, start+count, numEdges)
		}
		numEdges += count
	}
	if ctrl.NumEdges() != numEdges {
		return nil, fmt.Errorf("engine: controller has %d edges, shards cover %d", ctrl.NumEdges(), numEdges)
	}
	if cfg.Horizon <= 0 {
		return nil, fmt.Errorf("engine: Horizon must be positive, got %d", cfg.Horizon)
	}
	if cfg.NumModels <= 0 {
		return nil, fmt.Errorf("engine: NumModels must be positive, got %d", cfg.NumModels)
	}
	if len(cfg.SwitchCosts) != numEdges {
		return nil, fmt.Errorf("engine: %d switch costs for %d edges", len(cfg.SwitchCosts), numEdges)
	}
	if cfg.Prices == nil || cfg.Prices.Horizon() < cfg.Horizon {
		return nil, fmt.Errorf("engine: price series shorter than horizon")
	}
	meter, err := energy.NewMeter(cfg.EmissionRate)
	if err != nil {
		return nil, err
	}
	ledger, err := market.NewLedger(cfg.InitialCap)
	if err != nil {
		return nil, err
	}

	res := &Result{
		Name:          cfg.Name,
		CumTotal:      make([]float64, cfg.Horizon),
		Emissions:     make([]float64, cfg.Horizon),
		Decisions:     make([]trading.Decision, cfg.Horizon),
		WorkloadTotal: make([]int, cfg.Horizon),
		Accuracy:      make([]float64, cfg.Horizon),
		Selections:    make([][]int, numEdges),
		Downtime:      make([]int, numEdges),
		Retries:       make([]int, numEdges),
		DownErrors:    make([]string, numEdges),
	}
	for i := range res.Selections {
		res.Selections[i] = make([]int, cfg.NumModels)
	}

	deltas := make([]SlotDelta, len(shards))
	stepErrs := make([]error, len(shards))
	accEdges := make([]EdgeDelta, 0, numEdges)
	losses := make([]float64, numEdges)
	served := make([]bool, numEdges)
	totalCorrect, totalSamples := 0, 0

	for t := 0; t < cfg.Horizon; t++ {
		arms, err := ctrl.SelectModels()
		if err != nil {
			return nil, err
		}
		downloads, err := ctrl.Downloads()
		if err != nil {
			return nil, err
		}

		if len(shards) == 1 {
			deltas[0], stepErrs[0] = stepShard(shards[0], t, arms, downloads)
		} else {
			var wg sync.WaitGroup
			for k, sh := range shards {
				start, count := sh.Range()
				wg.Add(1)
				go func(k int, sh ShardStepper, arms []int, downloads []bool) {
					defer wg.Done()
					deltas[k], stepErrs[k] = stepShard(sh, t, arms, downloads)
				}(k, sh, arms[start:start+count], downloads[start:start+count])
			}
			wg.Wait()
		}
		// Shard errors resolve in canonical shard order after the per-slot
		// barrier; shards cover ascending ranges and report their own
		// lowest-local-edge failure, so the first error here is the slot's
		// lowest-indexed failing edge — the serial FailFast outcome.
		for k := range shards {
			if stepErrs[k] != nil {
				return nil, stepErrs[k]
			}
		}

		// Merge in canonical shard order. Merging is exact concatenation, so
		// every contiguous decomposition yields the identical merged delta;
		// the non-associative float folding happens below, serially, in
		// edge-index order.
		acc := SlotDelta{Edges: accEdges[:0]}
		for k := range shards {
			if err := acc.Merge(deltas[k]); err != nil {
				return nil, fmt.Errorf("engine: shard %d: %w", k, err)
			}
		}
		accEdges = acc.Edges[:0]

		for i := range acc.Edges {
			if acc.Edges[i].WentDown {
				res.DownErrors[i] = acc.Edges[i].DownError
			}
		}

		// Cross-edge accounting is SlotDelta.Fold — serial, in edge-index
		// order, and the only place per-edge terms enter float accumulations.
		fold := SlotFold{
			Meter:       meter,
			Arms:        arms,
			Downloads:   downloads,
			SwitchCosts: cfg.SwitchCosts,
			Res:         res,
			Losses:      losses,
			Served:      served,
		}
		acc.Fold(&fold)
		slotCost := fold.Cost
		slotEmission := fold.Emission
		slotCorrect, slotSamples := fold.Correct, fold.Samples

		q := trading.Quote{Buy: cfg.Prices.Buy[t], Sell: cfg.Prices.Sell[t]}
		d, err := ctrl.DecideTrade(q)
		if err != nil {
			return nil, err
		}
		if err := ledger.Buy(d.Buy, q.Buy); err != nil {
			return nil, err
		}
		if err := ledger.Sell(d.Sell, q.Sell); err != nil {
			return nil, err
		}
		if err := ctrl.CompleteSlotServed(losses, served, slotEmission); err != nil {
			return nil, err
		}
		slotCost.Trading = d.Cost(q)

		res.Cost.Add(slotCost)
		res.CumTotal[t] = res.Cost.Total()
		res.Emissions[t] = slotEmission
		res.Decisions[t] = d
		res.WorkloadTotal[t] = slotSamples
		if slotSamples > 0 {
			res.Accuracy[t] = float64(slotCorrect) / float64(slotSamples)
		}
		totalCorrect += slotCorrect
		totalSamples += slotSamples
	}
	if totalSamples > 0 {
		res.OverallAccuracy = float64(totalCorrect) / float64(totalSamples)
	}
	fit, err := trading.Fit(res.Emissions, res.Decisions, cfg.InitialCap)
	if err != nil {
		return nil, err
	}
	res.Fit = fit
	if ledger.Bought() > 0 {
		res.AvgBuyPrice = ledger.Spend() / ledger.Bought()
	}
	return res, nil
}

// safeStep runs one stepper call, converting a panic into an error. A
// panicking stepper must not kill the process (one bad edge in a fleet) or
// wedge the worker pool: the worker keeps draining jobs, the slot barrier
// completes, and Run surfaces the failure as the slot's first error in edge
// order — the same deterministic path an ordinary Step error takes.
func safeStep(e EdgeStepper, slot, arm int, download bool) (o Observation, err error) {
	defer func() { //lint:allow hotalloc the recover barrier must capture err; the open-coded defer keeps the closure off the heap
		if r := recover(); r != nil {
			err = fmt.Errorf("stepper panic: %v", r)
		}
	}()
	return e.Step(slot, arm, download)
}

// NetBuySeries returns z^t - w^t for every slot.
func (r *Result) NetBuySeries() []float64 {
	out := make([]float64, len(r.Decisions))
	for t, d := range r.Decisions {
		out[t] = d.Buy - d.Sell
	}
	return out
}
