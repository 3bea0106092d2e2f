package deploy

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"github.com/carbonedge/carbonedge/internal/energy"
	"github.com/carbonedge/carbonedge/internal/engine"
	"github.com/carbonedge/carbonedge/internal/numeric"
)

// The sim/deploy parity test: one world, two drivers. The same slot
// protocol runs once through the in-process engine with local steppers
// (reference) and once through the loopback-TCP cloud with remote runtimes
// (runFleet). Both sides derive every observation from identical per-edge
// split RNG streams, so if the TCP transport is observation-transparent and
// both paths share the one engine, the controller must make identical
// decisions: same selections, same trades, same totals.

type parityWorld struct {
	seed     int64
	metas    []ModelMeta
	meanLoss []float64
	comp     []float64
}

func newParityWorld(seed int64) *parityWorld {
	w := &parityWorld{seed: seed}
	for n := 0; n < 4; n++ {
		w.metas = append(w.metas, ModelMeta{
			Name:      fmt.Sprintf("m%d", n),
			PhiKWh:    1e-5 * float64(n+1),
			SizeBytes: int64(1000 * (n + 1)),
		})
		w.meanLoss = append(w.meanLoss, 0.9-0.2*float64(n))
		w.comp = append(w.comp, 0.02*float64(n+1))
	}
	return w
}

// observe is the shared per-slot measurement both drivers reproduce.
func (w *parityWorld) observe(rng *rand.Rand, edge, slot, modelID int) (avgLoss float64, correct, samples int) {
	samples = 4 + (slot+edge)%5
	avgLoss = w.meanLoss[modelID] + 0.05*rng.NormFloat64()
	if avgLoss < 0 {
		avgLoss = 0
	}
	correct = rng.Intn(samples + 1)
	return avgLoss, correct, samples
}

func (w *parityWorld) edgeRNG(edge int) *rand.Rand {
	return numeric.SplitRNG(w.seed, fmt.Sprintf("parity-edge-%d", edge))
}

// paritySource serves the world's metadata; checkpoints are surrogate
// (empty), as the ModelSource contract allows.
type paritySource struct{ w *parityWorld }

func (s *paritySource) NumModels() int                 { return len(s.w.metas) }
func (s *paritySource) Meta(n int) ModelMeta           { return s.w.metas[n] }
func (s *paritySource) Checkpoint(int) ([]byte, error) { return nil, nil }

// parityRuntime is the TCP-side edge.
type parityRuntime struct {
	w    *parityWorld
	edge int
	rng  *rand.Rand
}

func (r *parityRuntime) Welcome([]ModelMeta) error   { return nil }
func (r *parityRuntime) LoadModel(int, []byte) error { return nil }
func (r *parityRuntime) RunSlot(slot, modelID int) (SlotReport, error) {
	avgLoss, correct, samples := r.w.observe(r.rng, r.edge, slot, modelID)
	return SlotReport{
		AvgLoss:     avgLoss,
		Correct:     correct,
		Samples:     samples,
		EnergyKWh:   r.w.metas[modelID].PhiKWh * float64(samples),
		CompSeconds: r.w.comp[modelID],
	}, nil
}

// parityStepper is the in-process side of the same edge.
type parityStepper struct {
	w    *parityWorld
	edge int
	rng  *rand.Rand
}

func (s *parityStepper) Step(slot, arm int, _ bool) (engine.Observation, error) {
	avgLoss, correct, samples := s.w.observe(s.rng, s.edge, slot, arm)
	return engine.Observation{
		Loss:      avgLoss + s.w.comp[arm],
		InferLoss: avgLoss,
		Compute:   s.w.comp[arm],
		Correct:   correct,
		Samples:   samples,
		InferKWh:  s.w.metas[arm].PhiKWh * float64(samples),
		TransferKWh: energy.TransferEnergy(
			energy.TransferEnergyPerByte, s.w.metas[arm].SizeBytes),
	}, nil
}

func TestSimDeployParity(t *testing.T) {
	spec := fleetSpec{edges: 3, horizon: 25, seed: 21}
	run := runFleet(t, spec)
	requireQuiet(t, run)
	// Same brain, same observations => identical run.
	if want := reference(t, spec, nil); !reflect.DeepEqual(run.sum, want) {
		t.Errorf("deploy Summary diverged from the in-process run:\n deploy: %+v\n engine: %+v", run.sum, want)
	}
}
