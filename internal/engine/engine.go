// Package engine owns the paper's per-slot execution protocol — Algorithm 1
// model placement, inference on the slot's data stream, Algorithm 2
// allowance trading, and emission accounting — exactly once, for every
// driver in the repository. The in-process simulator (internal/sim), the
// clairvoyant Offline scheme, and the TCP cloud server (internal/deploy)
// all supply their own EdgeStepper implementations and let Run drive the
// slots; core.Controller remains the single algorithmic brain.
//
// Per-slot accounting is a reduction over contiguous edge ranges: Shards
// step concurrently — each with its own worker pool — and report SlotDeltas
// of per-edge terms, which the root folds where they lie, shard after shard
// in canonical order, so every term is added in edge-index order. Results
// are bit-for-bit deterministic for any shard×worker decomposition because
// every source of randomness is confined to one edge's stepper (each edge
// carries its own split RNG streams and scratch buffers) and every
// non-associative float accumulation happens once, at the root, in the
// canonical serial order.
//
// Both fan-outs are one loop for every count: the caller does the first
// share of the work itself and starts the rest beside it. The root steps
// shard 0 and starts the other shards; a Shard's caller is its worker 0 and
// its other workers start from a method value bound once, so stepping a
// shard allocates nothing at any worker count.
package engine

import (
	"fmt"
	"sync"

	"github.com/carbonedge/carbonedge/internal/core"
	"github.com/carbonedge/carbonedge/internal/energy"
	"github.com/carbonedge/carbonedge/internal/market"
	"github.com/carbonedge/carbonedge/internal/trading"
)

// Observation is what one edge reports after serving one slot. Its JSON
// tags are EdgeDelta's wire names: a delta embeds the observation it carries.
type Observation struct {
	// Loss is the bandit feedback for the edge's policy: the observed
	// average inference loss plus the computation cost (the paper's
	// L_{i,n}^t + v_{i,n}).
	Loss float64 `json:"loss,omitempty"`
	// InferLoss and Compute are the cost-accounting terms: the expected
	// inference loss of the served model and the computation cost. The
	// simulator uses the posterior mean loss (as the paper's accounting
	// does); the deployment uses the observed loss, the only one it has.
	InferLoss float64 `json:"inferLoss,omitempty"`
	Compute   float64 `json:"compute,omitempty"`
	// Correct and Samples feed the accuracy series.
	Correct int `json:"correct,omitempty"`
	Samples int `json:"samples,omitempty"`
	// InferKWh is the slot's inference energy; TransferKWh is the energy a
	// model download would cost. TransferKWh is consulted only when the
	// slot began with a download, so steppers may always fill it in.
	InferKWh    float64 `json:"inferKwh,omitempty"`
	TransferKWh float64 `json:"transferKwh,omitempty"`
	// Retries counts transport-level retries the stepper burned to produce
	// this observation (0 for in-process steppers). Steppers may report it
	// alongside an error; the engine accumulates it either way.
	Retries int `json:"retries,omitempty"`
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
	// Workers bounds how many edges step concurrently within each shard,
	// the shard's caller counted (see ShardConfig.Workers); the result is
	// identical for every value.
	Workers int
	// Shards splits the edges into this many contiguous shards, each stepping
	// with its own worker pool of up to Workers goroutines. 0 or 1 runs a
	// single shard, on the root's goroutine. The Result is bit-identical for
	// every shard count (see RunSharded), so Shards is purely a throughput
	// knob for large fleets.
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
// folds their deltas in canonical shard order (costs and emissions in
// edge-index order), executes the controller's trade against the ledger,
// and feeds the observations back. NewShard and RunSharded validate the
// steppers, the controller and the edge count.
func Run(cfg Config, ctrl *core.Controller, edges []EdgeStepper) (*Result, error) {
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

// shardStep is one shard of RunSharded: its range, its step, and the slot in
// flight — the step's inputs, then the shard's delta and error.
type shardStep struct {
	r         Range
	run       func()
	slot      int
	arms      []int
	downloads []bool
	delta     SlotDelta
	err       error
}

// RunSharded is the engine's root loop over an explicit shard decomposition:
// per slot it fans the controller's placement out to every shard, folds each
// shard's delta where it lies, in canonical shard order, into the slot's one
// SlotFold, and runs the global trade/ledger/controller feedback on the
// totals.
//
// The Result is bit-identical for every contiguous shard decomposition and
// every per-shard worker count, including Degrade and FailFast runs: shards
// report per-edge terms (never partial float sums), and folding the shards'
// deltas one after another in ascending range order adds every term in
// edge-index order — the very accumulation order a one-shard, one-worker run
// performs. Shards must cover [0, ctrl.NumEdges()) contiguously in
// ascending order, and every slot each must return a delta covering exactly
// its range.
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
	var wg sync.WaitGroup
	steps := make([]shardStep, len(shards))
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
		st := &steps[k]
		st.r = Range{Start: start, Count: count}
		// Bound once, so `go st.run()` starts a shard without allocating. A
		// panic becomes the step's error, so a misbehaving ShardStepper
		// cannot wedge the slot's barrier (in-process Shards already recover
		// stepper panics via safeStep).
		st.run = func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					st.err = fmt.Errorf("engine: shard panic: %v", r)
				}
			}()
			st.delta, st.err = sh.Step(st.slot, st.arms, st.downloads)
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

		// The root steps shard 0 itself and the other shards beside it.
		wg.Add(len(steps))
		for k := range steps {
			st := &steps[k]
			lo, hi := st.r.Start, st.r.Start+st.r.Count
			st.slot, st.arms, st.downloads = t, arms[lo:hi], downloads[lo:hi]
			if k > 0 {
				go st.run()
			}
		}
		steps[0].run()
		wg.Wait()
		// Cross-edge accounting is SlotDelta.Fold — serial, in edge-index
		// order, and the only place per-edge terms enter float accumulations.
		// Each shard's delta is folded where the shard left it, in canonical
		// shard order, once it is known to cover exactly the shard's range.
		// Shard errors resolve in the same order: shards cover ascending
		// ranges and report their own lowest-local-edge failure, so the first
		// error here is the slot's lowest-indexed failing edge — the serial
		// FailFast outcome.
		fold := SlotFold{
			Meter:       meter,
			Arms:        arms,
			Downloads:   downloads,
			SwitchCosts: cfg.SwitchCosts,
			Res:         res,
			Losses:      losses,
			Served:      served,
		}
		for k := range steps {
			st := &steps[k]
			if st.err != nil {
				return nil, st.err
			}
			r, sd := st.r, &st.delta
			if sd.Start != r.Start || len(sd.Edges) != r.Count {
				return nil, fmt.Errorf("engine: shard %d returned a delta for [%d,%d), want [%d,%d)",
					k, sd.Start, sd.Start+len(sd.Edges), r.Start, r.Start+r.Count)
			}
			sd.Fold(&fold)
		}

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
		if err := ctrl.CompleteSlotServed(losses, served, fold.Emission); err != nil {
			return nil, err
		}
		fold.Cost.Trading = d.Cost(q)

		res.Cost.Add(fold.Cost)
		res.CumTotal[t] = res.Cost.Total()
		res.Emissions[t] = fold.Emission
		res.Decisions[t] = d
		res.WorkloadTotal[t] = fold.Samples
		if fold.Samples > 0 {
			res.Accuracy[t] = float64(fold.Correct) / float64(fold.Samples)
		}
		totalCorrect += fold.Correct
		totalSamples += fold.Samples
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
