package main

import (
	"fmt"
	"math/rand"
	"time"

	"github.com/carbonedge/carbonedge/internal/bandit"
	"github.com/carbonedge/carbonedge/internal/core"
	"github.com/carbonedge/carbonedge/internal/energy"
	"github.com/carbonedge/carbonedge/internal/engine"
	"github.com/carbonedge/carbonedge/internal/market"
	"github.com/carbonedge/carbonedge/internal/models"
	"github.com/carbonedge/carbonedge/internal/numeric"
	"github.com/carbonedge/carbonedge/internal/sim"
	"github.com/carbonedge/carbonedge/internal/trading"
)

// simCombo is the run name sim-fleet plays; it keys the policy, trader and
// loss RNG streams inside sim.RunSharded, so the traced replay uses the same.
const simCombo = "Ours"

// simFleet is the in-process workload: sim.RunSharded over a surrogate zoo,
// where bandit, core, trading and engine do nearly all the work.
type simFleet struct {
	sz   sizes
	seed int64
}

// scenario materialises the workload's input from the seed and reports how
// long the zoo and the scenario took to build.
func (w *simFleet) scenario() (s *sim.Scenario, zooBuild, scenarioBuild time.Duration, err error) {
	t0 := sinceStart()
	zoo, err := models.DefaultSurrogateZoo(numeric.SplitRNG(w.seed, "zoo"))
	if err != nil {
		return nil, 0, 0, fmt.Errorf("surrogate zoo: %w", err)
	}
	t1 := sinceStart()
	cfg := sim.DefaultConfig(w.sz.simEdges)
	cfg.Horizon = w.sz.simSlots
	cfg.Seed = w.seed
	cfg.MeanPeakWorkload = 4
	// DefaultConfig's cap of 3 g is sized for 10 edges at 200 samples a slot;
	// keep the cap-to-traffic ratio so the trader stays active at this scale.
	cfg.InitialCap = 3 * float64(w.sz.simEdges) * cfg.MeanPeakWorkload / 2000
	s, err = sim.NewScenario(cfg, zoo)
	if err != nil {
		return nil, 0, 0, fmt.Errorf("scenario: %w", err)
	}
	return s, t1 - t0, sinceStart() - t1, nil
}

// stampedPolicy wraps edge 0's policy: the controller asks edge 0 first in
// every SelectModels, so its SelectArm is the fleet-wide slot start.
type stampedPolicy struct {
	bandit.Policy
	meter *slotMeter
}

func (p *stampedPolicy) SelectArm() int {
	p.meter.mark()
	return p.Policy.SelectArm()
}

// Skip forwards bandit.Skipper so wrapping never changes what the controller
// does with an unserved slot.
func (p *stampedPolicy) Skip() {
	if s, ok := p.Policy.(bandit.Skipper); ok {
		s.Skip()
	}
}

// pass implements bench: one shard, one worker, the canonical serial order.
func (w *simFleet) pass() (*passResult, error) { return w.play(1, 1) }

// play builds a fresh scenario and plays it once through sim.RunSharded.
// Every play of one seed is the same work and must give the same Result,
// whatever the decomposition.
func (w *simFleet) play(shards, workers int) (*passResult, error) {
	begin := sinceStart()
	s, _, _, err := w.scenario()
	if err != nil {
		return nil, err
	}
	meter := &slotMeter{}
	pf := func(s *sim.Scenario, edge int, rng *rand.Rand) (bandit.Policy, error) {
		p, err := sim.PolicyOurs(s, edge, rng)
		if err != nil || edge != 0 {
			return p, err
		}
		return &stampedPolicy{Policy: p, meter: meter}, nil
	}
	res, err := sim.RunSharded(s, simCombo, pf, sim.TraderOurs, shards, workers)
	end := sinceStart()
	if err != nil {
		return nil, fmt.Errorf("sim.RunSharded: %w", err)
	}
	return simPassResult(begin, end, meter, w.sz, res)
}

// simPassResult assembles a pass's numbers from the meter and the Result.
func simPassResult(begin, end time.Duration, meter *slotMeter, sz sizes, res *engine.Result) (*passResult, error) {
	digest, err := digestOf(res)
	if err != nil {
		return nil, err
	}
	if len(meter.stamps) != sz.simSlots {
		return nil, fmt.Errorf("sim-fleet: stamped %d slots, want %d", len(meter.stamps), sz.simSlots)
	}
	retries := 0
	for _, r := range res.Retries {
		retries += r
	}
	return &passResult{
		setup:      meter.stamps[0] - begin,
		wall:       end - meter.stamps[0],
		attempted:  sz.simEdges * sz.simSlots,
		failed:     res.DroppedSlots + retries,
		slotGaps:   meter.gaps(),
		allocBytes: allocBytes() - meter.alloc0,
		digest:     digest,
	}, nil
}

// simStepper is the harness's equivalent of sim's private scenarioStepper:
// the same RNG streams, the same draws, the same Observation, built from
// public API so the traced loop can time the stream draw and the loss lookup
// apart. The traced Result must equal sim.RunSharded's bit for bit, which is
// what keeps this copy honest.
type simStepper struct {
	s       *sim.Scenario
	edge    int
	stream  *rand.Rand
	lossRNG *rand.Rand
	batch   []int
}

// draw fills the batch with the slot's stream sample indices.
func (st *simStepper) draw(slot int) {
	m := st.s.Workload[slot][st.edge]
	if cap(st.batch) < m {
		st.batch = make([]int, m) //lint:allow hotalloc grow-only batch buffer, as in the simulator's stepper
	}
	st.batch = st.batch[:m]
	pool := st.s.Zoo.PoolSize()
	for j := range st.batch {
		st.batch[j] = st.stream.Intn(pool)
	}
}

// Step implements engine.EdgeStepper.
func (st *simStepper) Step(slot, arm int, _ bool) (engine.Observation, error) {
	s, i := st.s, st.edge
	st.draw(slot)
	m := len(st.batch)
	avgLoss, correct := s.Zoo.BatchLoss(arm, st.batch, st.lossRNG)
	info := s.Zoo.Info(arm)
	return engine.Observation{
		Loss:        avgLoss + s.CompCost[i][arm],
		InferLoss:   s.Zoo.MeanLoss(arm),
		Compute:     s.CompCost[i][arm],
		Correct:     correct,
		Samples:     m,
		InferKWh:    energy.InferenceEnergy(info.PhiKWh, m),
		TransferKWh: energy.TransferEnergy(energy.TransferEnergyPerByte, info.SizeBytes),
	}, nil
}

// tracedPass replays sim.RunSharded's construction and engine.RunSharded's
// slot loop through the public per-slot API, one span per call. It returns
// the pass numbers, the Result, and the per-layer observations only a traced
// run can make.
func (w *simFleet) tracedPass(tr *tracer) (*passResult, map[string]float64, error) {
	begin := sinceStart()
	s, zooBuild, scenarioBuild, err := w.scenario()
	if err != nil {
		return nil, nil, err
	}
	cfg := s.Cfg

	buildStart := sinceStart()
	policies := make([]bandit.Policy, cfg.Edges)
	for i := range policies {
		p, err := sim.PolicyOurs(s, i, numeric.SplitRNG(cfg.Seed, fmt.Sprintf("policy-%s-%d", simCombo, i)))
		if err != nil {
			return nil, nil, fmt.Errorf("policy for edge %d: %w", i, err)
		}
		policies[i] = p
	}
	trader, err := sim.TraderOurs(s, numeric.SplitRNG(cfg.Seed, "trader-"+simCombo))
	if err != nil {
		return nil, nil, fmt.Errorf("trader: %w", err)
	}
	ctrl, err := core.NewWithComponents(core.Config{
		NumModels:     s.NumModels(),
		DownloadCosts: s.Delays,
		Horizon:       cfg.Horizon,
		InitialCap:    cfg.InitialCap,
		Seed:          cfg.Seed,
	}, policies, trader)
	if err != nil {
		return nil, nil, fmt.Errorf("controller: %w", err)
	}
	controllerBuild := sinceStart() - buildStart

	own := make([]*simStepper, cfg.Edges)
	steppers := make([]engine.EdgeStepper, cfg.Edges)
	for i := range steppers {
		own[i] = &simStepper{
			s:       s,
			edge:    i,
			stream:  numeric.SplitRNG(cfg.Seed, fmt.Sprintf("stream-%d", i)),
			lossRNG: numeric.SplitRNG(cfg.Seed, fmt.Sprintf("loss-%s-%d", simCombo, i)),
		}
		steppers[i] = own[i]
	}
	shard, err := engine.NewShard(engine.ShardConfig{Workers: 1}, steppers)
	if err != nil {
		return nil, nil, err
	}

	meter := &slotMeter{}
	res, stepAlloc, err := tracedLoop(tr, meter, engine.Config{
		Name:         simCombo,
		Horizon:      cfg.Horizon,
		NumModels:    s.NumModels(),
		InitialCap:   cfg.InitialCap,
		EmissionRate: cfg.EmissionRate,
		Prices:       s.Prices,
		SwitchCosts:  s.Delays,
	}, ctrl, shard)
	end := sinceStart()
	if err != nil {
		return nil, nil, err
	}
	pr, err := simPassResult(begin, end, meter, w.sz, res)
	if err != nil {
		return nil, nil, err
	}
	if tr == nil {
		return pr, nil, nil
	}
	draw, loss := stepperSplit(own, cfg.Horizon)
	layer := map[string]float64{
		"models.zoo_build_s":           seconds(zooBuild),
		"sim.scenario_build_s":         seconds(scenarioBuild),
		"core.controller_build_s":      seconds(controllerBuild),
		"sim.stream_draw_us_per_slot":  micros(draw),
		"models.batchloss_us_per_slot": micros(loss),
		"engine.alloc_bytes_per_slot":  float64(stepAlloc) / float64(cfg.Horizon),
	}
	return pr, layer, nil
}

// stepperSplit times the two halves of a stepper's slot apart, after the run
// is over: one sweep over the fleet that only draws the slot's stream
// indices, and one that only looks the batch's loss up. An edge-slot is a few
// hundred nanoseconds, so clock reads inside Step would measure the clock;
// each sweep is timed as a whole instead. It returns the mean cost per slot.
func stepperSplit(fleet []*simStepper, horizon int) (draw, loss time.Duration) {
	slots := min(horizon, 32)
	for t := 0; t < slots; t++ {
		t0 := sinceStart()
		for _, st := range fleet {
			st.draw(t)
		}
		t1 := sinceStart()
		for _, st := range fleet {
			st.s.Zoo.BatchLoss(t%st.s.NumModels(), st.batch, st.lossRNG)
		}
		draw += t1 - t0
		loss += sinceStart() - t1
	}
	return draw / time.Duration(slots), loss / time.Duration(slots)
}

// reference implements bench: the harness's own replay of the slot loop
// (no spans) must reproduce sim.RunSharded's Result bit for bit.
func (w *simFleet) reference(digest string) error {
	pr, _, err := w.tracedPass(nil)
	if err != nil {
		return err
	}
	if pr.digest != digest {
		return fmt.Errorf("sim-fleet: replayed slot loop digest %s, sim.RunSharded digest %s", pr.digest, digest)
	}
	return nil
}

// traced implements bench.
func (w *simFleet) traced(tr *tracer, ref *passResult) (*passResult, map[string]float64, error) {
	tp, layer, err := w.tracedPass(tr)
	if err != nil {
		return nil, nil, err
	}
	stages, coverage := stageMetrics(tr, w.sz.simSlots)
	for k, v := range stages {
		layer[k] = v
	}
	layer["harness.span_coverage_pct"] = coverage

	// The scaling pair: the same run at two shards and at two workers. Both
	// must reproduce the one-shard Result.
	for _, d := range []struct {
		metric          string
		shards, workers int
	}{
		{"engine.shards2_speedup_x", 2, 1},
		{"engine.workers2_speedup_x", 1, 2},
	} {
		pr, err := w.play(d.shards, d.workers)
		if err != nil {
			return nil, nil, err
		}
		if pr.digest != ref.digest {
			return nil, nil, fmt.Errorf("sim-fleet: shards=%d workers=%d digest %s differs from shards=1 workers=1 digest %s",
				d.shards, d.workers, pr.digest, ref.digest)
		}
		layer[d.metric] = float64(ref.wall) / float64(pr.wall)
	}

	if layer["bandit.cycle_ns"], err = banditCycleNS(w.seed, w.sz.simSlots, w.sz.microIters); err != nil {
		return nil, nil, err
	}
	if layer["trading.cycle_ns"], err = tradingCycleNS(w.seed, w.sz.microIters); err != nil {
		return nil, nil, err
	}
	return tp, layer, nil
}

// tracedLoop is engine.RunSharded's slot loop over one in-process shard,
// written against the public per-slot API so that every call into a layer is
// its own span under a per-slot parent. It produces the Result the engine
// would; the callers compare the two.
func tracedLoop(tr *tracer, meter *slotMeter, cfg engine.Config, ctrl *core.Controller, shard *engine.Shard) (res *engine.Result, stepAlloc uint64, err error) {
	_, numEdges := shard.Range()
	emeter, err := energy.NewMeter(cfg.EmissionRate)
	if err != nil {
		return nil, 0, err
	}
	ledger, err := market.NewLedger(cfg.InitialCap)
	if err != nil {
		return nil, 0, err
	}
	res = &engine.Result{
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
	accEdges := make([]engine.EdgeDelta, 0, numEdges)
	losses := make([]float64, numEdges)
	served := make([]bool, numEdges)
	totalCorrect, totalSamples := 0, 0

	for t := 0; t < cfg.Horizon; t++ {
		meter.mark()
		slot := tr.begin("slot", 0, t)

		sp := tr.begin("core.select", slot, t)
		arms, err := ctrl.SelectModels()
		if err != nil {
			return nil, 0, err
		}
		downloads, err := ctrl.Downloads()
		if err != nil {
			return nil, 0, err
		}
		tr.end(sp)

		sp = tr.begin("engine.step", slot, t)
		a0 := allocBytes()
		delta, err := shard.Step(t, arms, downloads)
		stepAlloc += allocBytes() - a0
		tr.end(sp)
		if err != nil {
			return nil, 0, err
		}

		sp = tr.begin("engine.merge", slot, t)
		acc := engine.SlotDelta{Edges: accEdges[:0]}
		err = acc.Merge(delta)
		accEdges = acc.Edges[:0]
		tr.end(sp)
		if err != nil {
			return nil, 0, err
		}
		for i := range acc.Edges {
			if acc.Edges[i].WentDown {
				return nil, 0, fmt.Errorf("traced loop: edge %d went down at slot %d: %s", i, t, acc.Edges[i].DownError)
			}
		}

		sp = tr.begin("engine.fold", slot, t)
		fold := engine.SlotFold{
			Meter:       emeter,
			Arms:        arms,
			Downloads:   downloads,
			SwitchCosts: cfg.SwitchCosts,
			Res:         res,
			Losses:      losses,
			Served:      served,
		}
		acc.Fold(&fold)
		tr.end(sp)

		sp = tr.begin("core.trade", slot, t)
		q := trading.Quote{Buy: cfg.Prices.Buy[t], Sell: cfg.Prices.Sell[t]}
		d, err := ctrl.DecideTrade(q)
		tr.end(sp)
		if err != nil {
			return nil, 0, err
		}

		sp = tr.begin("market.ledger", slot, t)
		err = ledger.Buy(d.Buy, q.Buy)
		if err == nil {
			err = ledger.Sell(d.Sell, q.Sell)
		}
		tr.end(sp)
		if err != nil {
			return nil, 0, err
		}

		sp = tr.begin("core.complete", slot, t)
		err = ctrl.CompleteSlotServed(losses, served, fold.Emission)
		tr.end(sp)
		if err != nil {
			return nil, 0, err
		}

		slotCost := fold.Cost
		slotCost.Trading = d.Cost(q)
		res.Cost.Add(slotCost)
		res.CumTotal[t] = res.Cost.Total()
		res.Emissions[t] = fold.Emission
		res.Decisions[t] = d
		res.WorkloadTotal[t] = fold.Samples
		if fold.Samples > 0 {
			res.Accuracy[t] = float64(fold.Correct) / float64(fold.Samples)
		}
		totalCorrect += fold.Correct
		totalSamples += fold.Samples
		tr.end(slot)
	}
	if totalSamples > 0 {
		res.OverallAccuracy = float64(totalCorrect) / float64(totalSamples)
	}
	fit, err := trading.Fit(res.Emissions, res.Decisions, cfg.InitialCap)
	if err != nil {
		return nil, 0, err
	}
	res.Fit = fit
	if ledger.Bought() > 0 {
		res.AvgBuyPrice = ledger.Spend() / ledger.Bought()
	}
	return res, stepAlloc, nil
}

// stageMetrics turns the traced loop's spans into per-slot stage costs and
// the share of slot wall time the named stages account for.
func stageMetrics(tr *tracer, slots int) (layer map[string]float64, coveragePct float64) {
	self := tr.selfTimes()
	per := func(name string) float64 { return micros(self[name]) / float64(slots) }
	layer = map[string]float64{
		"core.select_us_per_slot":   per("core.select"),
		"engine.step_us_per_slot":   per("engine.step"),
		"engine.merge_us_per_slot":  per("engine.merge"),
		"engine.fold_us_per_slot":   per("engine.fold"),
		"core.trade_us_per_slot":    per("core.trade"),
		"market.ledger_us_per_slot": per("market.ledger"),
		"core.complete_us_per_slot": per("core.complete"),
	}
	var staged, total time.Duration
	for _, name := range sortedNames(self) {
		total += self[name]
		if name != "slot" {
			staged += self[name]
		}
	}
	if total > 0 {
		coveragePct = 100 * float64(staged) / float64(total)
	}
	return layer, coveragePct
}

// banditCycleNS times an isolated SelectArm+Update of Algorithm 1: one policy
// at a time, each played for horizon slots so the mix of block starts and
// in-block slots is the workload's, with everything hot in cache — the floor
// the fleet-wide core.select/core.complete cost per edge compares against.
func banditCycleNS(seed int64, horizon, iters int) (float64, error) {
	lossRNG := numeric.SplitRNG(seed, "bench-bandit-loss")
	losses := make([]float64, 1024)
	for i := range losses {
		losses[i] = lossRNG.Float64()
	}
	policies := max(1, iters/horizon)
	var elapsed time.Duration
	for k := 0; k < policies; k++ {
		p, err := bandit.NewBlockedTsallisINF(models.FamilySize(), 1, numeric.SplitRNG(seed, fmt.Sprintf("bench-bandit-%d", k)))
		if err != nil {
			return 0, err
		}
		t0 := sinceStart()
		for i := 0; i < horizon; i++ {
			p.SelectArm()
			p.Update(losses[i%len(losses)])
		}
		elapsed += sinceStart() - t0
	}
	return float64(elapsed) / float64(policies*horizon), nil
}

// tradingCycleNS times an isolated Decide+Observe on Algorithm 2.
func tradingCycleNS(seed int64, iters int) (float64, error) {
	tcfg := trading.DefaultPrimalDualConfig(3, iters)
	tr, err := trading.NewPrimalDual(tcfg)
	if err != nil {
		return 0, err
	}
	rng := numeric.SplitRNG(seed, "bench-trading")
	quotes := make([]trading.Quote, 1024)
	emissions := make([]float64, 1024)
	for i := range quotes {
		buy := 5 + 3*rng.Float64()
		quotes[i] = trading.Quote{Buy: buy, Sell: 0.9 * buy}
		emissions[i] = rng.Float64()
	}
	t0 := sinceStart()
	for i := 0; i < iters; i++ {
		q := quotes[i%len(quotes)]
		d := tr.Decide(i, q)
		tr.Observe(i, emissions[i%len(emissions)], q, d)
	}
	return float64(sinceStart()-t0) / float64(iters), nil
}
