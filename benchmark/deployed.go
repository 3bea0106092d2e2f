package main

import (
	"fmt"
	"runtime"
	"time"

	"github.com/carbonedge/carbonedge/internal/core"
	"github.com/carbonedge/carbonedge/internal/deploy"
	"github.com/carbonedge/carbonedge/internal/energy"
	"github.com/carbonedge/carbonedge/internal/engine"
	"github.com/carbonedge/carbonedge/internal/market"
)

// This file is what the deployed workloads (region-fleet, edge-serving*)
// share: the in-process reference run, the Summary bookkeeping, and the
// reduction of a traced run's observations to the deploy.* metrics.

// runtimeStepper runs a deploy.Runtime in process: the observation the
// cloud's TCP stepper would build from the edge's report, without the wire.
// It is the reference side of the deployed workloads' parity checks.
type runtimeStepper struct {
	rt     deploy.Runtime
	source deploy.ModelSource
}

// Step implements engine.EdgeStepper.
//
//lint:cold harness reference stepper; it installs checkpoints and serves real inference, off the alloc-free in-process path
func (s *runtimeStepper) Step(slot, arm int, download bool) (engine.Observation, error) {
	if download {
		ckpt, err := s.source.Checkpoint(arm)
		if err != nil {
			return engine.Observation{}, err
		}
		if err := s.rt.LoadModel(arm, ckpt); err != nil {
			return engine.Observation{}, err
		}
	}
	rep, err := s.rt.RunSlot(slot, arm)
	if err != nil {
		return engine.Observation{}, err
	}
	return engine.Observation{
		Loss:        rep.AvgLoss + rep.CompSeconds,
		InferLoss:   rep.AvgLoss,
		Compute:     rep.CompSeconds,
		Correct:     rep.Correct,
		Samples:     rep.Samples,
		InferKWh:    rep.EnergyKWh,
		TransferKWh: energy.TransferEnergy(energy.TransferEnergyPerByte, s.source.Meta(arm).SizeBytes),
	}, nil
}

// cloudRun is the carbon and controller configuration a deployed workload
// shares between its cloud (or root) and its in-process reference.
type cloudRun struct {
	edges, horizon            int
	costs                     []float64
	initialCap, emissionScale float64
	prices                    *market.Prices
	seed                      int64
	numModels                 int
}

// controller builds the controller deploy.NewCloud and deploy.NewRoot build.
func (c cloudRun) controller() (*core.Controller, error) {
	avg := 0.0
	for t := 0; t < c.horizon; t++ {
		avg += c.prices.Buy[t]
	}
	avg /= float64(c.horizon)
	return core.New(core.Config{
		NumModels:     c.numModels,
		DownloadCosts: c.costs,
		Horizon:       c.horizon,
		InitialCap:    c.initialCap,
		EmissionScale: c.emissionScale,
		PriceScale:    avg,
		Seed:          c.seed,
	})
}

// engineConfig is the engine configuration the deployed servers run with.
func (c cloudRun) engineConfig(workers int) engine.Config {
	return engine.Config{
		Name:         "deploy",
		Horizon:      c.horizon,
		NumModels:    c.numModels,
		InitialCap:   c.initialCap,
		EmissionRate: regionEmissionRate,
		Prices:       c.prices,
		SwitchCosts:  c.costs,
		Workers:      workers,
	}
}

// local plays the run in process over the given steppers — the
// TestSimDeployParity construction — and returns the Summary a clean deployed
// run of the same world must report. With a tracer it goes through the
// harness's span-per-call slot loop, otherwise through engine.Run.
func (c cloudRun) local(tr *tracer, workers int, steppers []engine.EdgeStepper) (*deploy.Summary, error) {
	ctrl, err := c.controller()
	if err != nil {
		return nil, err
	}
	var res *engine.Result
	if tr == nil {
		res, err = engine.Run(c.engineConfig(workers), ctrl, steppers)
	} else {
		var shard *engine.Shard
		if shard, err = engine.NewShard(engine.ShardConfig{Workers: workers}, steppers); err == nil {
			res, _, err = tracedLoop(tr, &slotMeter{}, c.engineConfig(workers), ctrl, shard)
		}
	}
	if err != nil {
		return nil, fmt.Errorf("in-process reference: %w", err)
	}
	return summaryOf(res), nil
}

// controllerShare measures the controller's share of a deployed slot: it
// plays the world in process through the span-per-call loop (local, given a
// fresh tracer: those spans belong to another run than the deployed one's),
// requires the deployed digest from it, stores the stage metrics, and returns
// the stages' sum without the edges' own work (engine.step) in milliseconds.
func controllerShare(layer map[string]float64, name string, slots int, digest string,
	local func(*tracer) (*deploy.Summary, error)) (float64, error) {
	tr := &tracer{}
	sum, err := local(tr)
	if err != nil {
		return 0, err
	}
	if err := sameDigest(name+" (span-per-call loop)", sum, digest); err != nil {
		return 0, err
	}
	stages, _ := stageMetrics(tr, slots)
	controllerUS := 0.0
	for _, k := range sortedNames(stages) {
		layer[k] = stages[k]
		if k != "engine.step_us_per_slot" {
			controllerUS += stages[k]
		}
	}
	return controllerUS / 1000, nil
}

// faults counts the retries and the resumes a Summary records, at both tiers.
func faults(sum *deploy.Summary) (retries, resumes int) {
	for _, r := range sum.Retries {
		retries += r
	}
	for _, r := range sum.RegionRetries {
		retries += r
	}
	for _, r := range sum.Resumes {
		resumes += r
	}
	for _, r := range sum.RegionResumes {
		resumes += r
	}
	return retries, resumes
}

// summaryOf maps an in-process Result onto the Summary a clean deployed run
// of the same world reports.
func summaryOf(res *engine.Result) *deploy.Summary {
	return &deploy.Summary{
		ObservedLoss: res.Cost.InferLoss + res.Cost.Compute,
		TradingCost:  res.Cost.Trading,
		Emissions:    res.Emissions,
		Decisions:    res.Decisions,
		Fit:          res.Fit,
		Switches:     res.Switches,
		Accuracy:     res.OverallAccuracy,
		Selections:   res.Selections,
		Downtime:     res.Downtime,
		DroppedSlots: res.DroppedSlots,
		Retries:      res.Retries,
		Resumes:      make([]int, len(res.Selections)),
		DownErrors:   res.DownErrors,
	}
}

// deployedResult assembles a deployed pass's numbers.
func deployedResult(begin, end time.Duration, meter *slotMeter, edges, slots int, sum *deploy.Summary) (*passResult, error) {
	digest, err := digestOf(sum)
	if err != nil {
		return nil, err
	}
	if len(meter.stamps) != slots {
		return nil, fmt.Errorf("stamped %d slots, want %d", len(meter.stamps), slots)
	}
	retries, resumes := faults(sum)
	return &passResult{
		setup:      meter.stamps[0] - begin,
		wall:       end - meter.stamps[0],
		attempted:  edges * slots,
		failed:     sum.DroppedSlots + retries + resumes,
		slotGaps:   meter.gaps(),
		allocBytes: allocBytes() - meter.alloc0,
		digest:     digest,
	}, nil
}

// sameDigest compares a reference Summary against a deployed run's digest.
func sameDigest(name string, sum *deploy.Summary, digest string) error {
	local, err := digestOf(sum)
	if err != nil {
		return err
	}
	if local != digest {
		return fmt.Errorf("%s: in-process reference digest %s, deployed digest %s", name, local, digest)
	}
	return nil
}

// deployedInputs is what deployedLayers reduces to the deploy.* metrics.
type deployedInputs struct {
	slots, edges float64
	links        int // root links (0 on the monolithic cloud)
	// wallMS is the untraced run's mean slot wall; controllerMS the
	// in-process stages of the same fleet.
	wallMS, controllerMS float64
	busy                 fleetBusy
	edgeTee, rootTee     *frameTee
	edgeLinks, rootLinks *linkMeter
	// handshake runs from the first dial to the first slot; readWait is how
	// long edge 0 sat blocked in Read during agentSpan, its agent's lifetime.
	handshake, readWait, agentSpan time.Duration
	// shardStart and shardCount are the range the teed ShardDelta covers.
	shardStart, shardCount int
	sum                    *deploy.Summary
}

// deployedLayers prices the teed frames and splits the mean slot wall time
// into codec, runtime, controller and the unattributed rest.
//
// Codec and runtime are CPU time spread over many goroutines; dividing by the
// parallelism they can reach (the smaller of GOMAXPROCS and the number of
// agents doing that work) turns them into the wall time they would take with
// perfect overlap. What the slot takes beyond the three is syscalls, pipe and
// socket copies, goroutine wake-ups, scheduling and GC — reported, not hidden.
func deployedLayers(layer map[string]float64, in deployedInputs) error {
	procs := float64(runtime.GOMAXPROCS(0))
	edgePar := min(procs, in.edges)

	smallAssign, bigAssign := in.edgeTee.frames(deploy.MsgAssign)
	assign, _, err := replayKind(layer, "assign", smallAssign)
	if err != nil {
		return err
	}
	_, report := in.edgeTee.frames(deploy.MsgReport)
	rep, repMsg, err := replayKind(layer, "report", report)
	if err != nil {
		return err
	}
	validateNS := 0.0
	if repMsg != nil {
		if validateNS, err = timeLoop(replayBudget, func() error { return deploy.ValidateReport(repMsg) }); err != nil {
			return err
		}
		layer["deploy.report_validate_ns"] = validateNS
	}
	edgeCodecNS := in.edges * (assign.roundTripNS() + rep.roundTripNS() + validateNS)

	// A checkpoint-carrying Assign, where the run shipped any: the largest
	// Assign on the link, if it carries weights.
	if len(bigAssign) > len(smallAssign) {
		ckpt, msg, err := replayFrame(bigAssign)
		if err != nil {
			return fmt.Errorf("ckpt: %w", err)
		}
		if len(msg.Weights) > 0 {
			layer["deploy.ckpt_encode_ns"] = ckpt.encodeNS
			layer["deploy.ckpt_decode_ns"] = ckpt.decodeNS
			layer["deploy.ckpt_bytes"] = ckpt.bytes
			layer["deploy.ckpt_inflation_x"] = ckpt.bytes / float64(len(msg.Weights))
			edgeCodecNS += float64(in.sum.Switches) / in.slots * (ckpt.roundTripNS() - assign.roundTripNS())
		}
	}
	codecMS := edgeCodecNS / edgePar / 1e6

	if in.links > 0 {
		_, shardAssign := in.rootTee.frames(deploy.MsgShardAssign)
		sa, _, err := replayKind(layer, "shardassign", shardAssign)
		if err != nil {
			return err
		}
		_, shardDelta := in.rootTee.frames(deploy.MsgShardDelta)
		sd, sdMsg, err := replayKind(layer, "sharddelta", shardDelta)
		if err != nil {
			return err
		}
		deltaValidateNS := 0.0
		if sdMsg != nil {
			if deltaValidateNS, err = timeLoop(replayBudget, func() error {
				return deploy.ValidateDelta(sdMsg, in.shardStart, in.shardCount, sdMsg.Slot)
			}); err != nil {
				return err
			}
			layer["deploy.sharddelta_validate_ns"] = deltaValidateNS
		}
		rootCodecNS := float64(in.links) * (sa.roundTripNS() + sd.roundTripNS() + deltaValidateNS)
		codecMS += rootCodecNS / min(procs, float64(in.links)) / 1e6
		layer["deploy.root_link_bytes_per_slot"] = float64(in.rootLinks.bytes.Load()) / in.slots
	}

	runtimeMS := millis(in.busy.run+in.busy.load) / in.slots / edgePar
	edgeBytes := float64(in.edgeLinks.bytes.Load())
	rootBytes := 0.0
	frames := float64(in.edgeLinks.frames.Load())
	if in.rootLinks != nil {
		rootBytes = float64(in.rootLinks.bytes.Load())
		frames += float64(in.rootLinks.frames.Load())
	}
	layer["deploy.edge_link_bytes_per_slot"] = edgeBytes / in.slots
	layer["deploy.wire_bytes_per_edge_slot"] = (edgeBytes + rootBytes) / (in.slots * in.edges)
	layer["deploy.frames_per_slot"] = frames / in.slots
	layer["deploy.codec_ms_per_slot"] = codecMS
	layer["deploy.runtime_ms_per_slot"] = runtimeMS
	layer["deploy.controller_ms_per_slot"] = in.controllerMS
	layer["deploy.unattributed_ms_per_slot"] = in.wallMS - codecMS - runtimeMS - in.controllerMS

	layer["deploy.handshake_s"] = seconds(in.handshake)
	layer["deploy.edge_read_wait_share"] = 100 * float64(in.readWait) / float64(in.agentSpan)
	layer["deploy.switches"] = float64(in.sum.Switches)
	layer["deploy.dropped_slots"] = float64(in.sum.DroppedSlots)
	retries, resumes := faults(in.sum)
	layer["deploy.retries"] = float64(retries)
	layer["deploy.resumes"] = float64(resumes)
	return nil
}
