package sim

import (
	"fmt"
	"math/rand"

	"github.com/carbonedge/carbonedge/internal/bandit"
	"github.com/carbonedge/carbonedge/internal/core"
	"github.com/carbonedge/carbonedge/internal/energy"
	"github.com/carbonedge/carbonedge/internal/engine"
	"github.com/carbonedge/carbonedge/internal/numeric"
	"github.com/carbonedge/carbonedge/internal/trading"
)

// PolicyFactory builds the model-selection policy for one edge.
type PolicyFactory func(s *Scenario, edge int, rng *rand.Rand) (bandit.Policy, error)

// TraderFactory builds the carbon trader for a run.
type TraderFactory func(s *Scenario, rng *rand.Rand) (trading.Trader, error)

// Run plays one policy/trader combination through the scenario on the
// shared slot engine, stepping edges in the canonical serial order.
func Run(s *Scenario, name string, pf PolicyFactory, tf TraderFactory) (*engine.Result, error) {
	return RunSharded(s, name, pf, tf, 1, 1)
}

// RunSharded is Run with the edges split into `shards` contiguous engine
// shards, each stepping with its own pool of up to workers goroutines, the
// stepping goroutine counted, so 1 and 1 step every edge on the caller's
// goroutine (see engine.Config.Shards and Workers). Neither count changes a
// bit of the Result — each edge owns its RNG streams and scratch buffers,
// and the engine serializes cross-edge accounting in edge order — so both
// are purely throughput knobs for large edge counts.
func RunSharded(s *Scenario, name string, pf PolicyFactory, tf TraderFactory, shards, workers int) (*engine.Result, error) {
	policies := make([]bandit.Policy, s.Cfg.Edges)
	for i := range policies {
		p, err := pf(s, i, numeric.SplitRNG(s.Cfg.Seed, fmt.Sprintf("policy-%s-%d", name, i)))
		if err != nil {
			return nil, fmt.Errorf("policy for edge %d: %w", i, err)
		}
		policies[i] = p
	}
	trader, err := tf(s, numeric.SplitRNG(s.Cfg.Seed, "trader-"+name))
	if err != nil {
		return nil, fmt.Errorf("trader: %w", err)
	}
	return s.play(name, policies, trader, shards, workers)
}

// play wraps the policies and trader in a controller and drives the
// scenario's horizon on the shared slot engine.
func (s *Scenario) play(name string, policies []bandit.Policy, trader trading.Trader, shards, workers int) (*engine.Result, error) {
	cfg := s.Cfg
	ctrl, err := core.NewWithComponents(core.Config{
		NumModels:     s.NumModels(),
		DownloadCosts: s.Delays,
		Horizon:       cfg.Horizon,
		InitialCap:    cfg.InitialCap,
		Seed:          cfg.Seed,
	}, policies, trader)
	if err != nil {
		return nil, fmt.Errorf("controller: %w", err)
	}
	return engine.Run(engine.Config{
		Name:         name,
		Horizon:      cfg.Horizon,
		NumModels:    s.NumModels(),
		InitialCap:   cfg.InitialCap,
		EmissionRate: cfg.EmissionRate,
		Prices:       s.Prices,
		SwitchCosts:  s.Delays,
		Workers:      workers,
		Shards:       shards,
	}, ctrl, s.steppers(name))
}

// scenarioStepper serves one edge's slots against the materialized
// scenario. Every mutable resource — the edge's stream RNG, its loss RNG,
// and the batch scratch buffer — is private to the edge, so steppers of
// different edges run concurrently without coordination and the simulation
// stays deterministic for any worker count.
type scenarioStepper struct {
	s       *Scenario
	edge    int
	lossRNG *rand.Rand
	batch   []int
}

// steppers builds one stepper per edge for a named run. The loss RNG is
// split per edge (stream "loss-<name>-<i>") so that edge i's loss draws do
// not depend on how many samples other edges served before it.
func (s *Scenario) steppers(name string) []engine.EdgeStepper {
	out := make([]engine.EdgeStepper, s.Cfg.Edges)
	for i := range out {
		out[i] = &scenarioStepper{
			s:       s,
			edge:    i,
			lossRNG: numeric.SplitRNG(s.Cfg.Seed, fmt.Sprintf("loss-%s-%d", name, i)),
		}
	}
	return out
}

// Step implements engine.EdgeStepper.
func (st *scenarioStepper) Step(slot, arm int, _ bool) (engine.Observation, error) {
	s, i := st.s, st.edge
	m := s.Workload[slot][i]
	if cap(st.batch) < m {
		st.batch = make([]int, m) //lint:allow hotalloc grow-only batch buffer; steady state reuses capacity
	}
	st.batch = st.batch[:m]
	pool := s.Zoo.PoolSize()
	for j := range st.batch {
		st.batch[j] = s.streamRNGs[i].Intn(pool)
	}
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
