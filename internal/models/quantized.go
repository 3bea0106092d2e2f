package models

import (
	"bytes"
	"fmt"
	"math/rand"

	"github.com/carbonedge/carbonedge/internal/dataset"
	"github.com/carbonedge/carbonedge/internal/nn"
	"github.com/carbonedge/carbonedge/internal/numeric"
)

// Int8 inference typically runs at a fraction of float energy and latency;
// these factors calibrate the quantized variants' metadata.
const (
	quantEnergyFactor  = 0.6
	quantLatencyFactor = 0.7
)

// calibBatch is how many samples from the head of the test pool set the INT8
// engine's activation scales.
const calibBatch = 64

// NewQuantizedTrainedZoo builds the quantization-aware zoo of the paper's
// future-work direction: every trained model appears twice — once at full
// precision and once int8-quantized (suffix "-q8") with a quarter of the
// download size, reduced inference energy/latency, and whatever accuracy
// the quantization actually costs (measured, not assumed). The bandit then
// chooses among 2N arms, trading quality against carbon per model *and* per
// precision.
func NewQuantizedTrainedZoo(cfg TrainedZooConfig, rng *rand.Rand) (*TrainedZoo, error) {
	base, err := NewTrainedZoo(cfg, rng)
	if err != nil {
		return nil, err
	}
	return quantizedFromBase(cfg, base, rng)
}

// quantizedFromBase layers the int8 variants on an already-trained base
// zoo. The result does not depend on rng's state: cloneNetwork consumes
// draws rebuilding each architecture, but the wire-format round-trip then
// overwrites every parameter tensor, so a cached base plus any RNG stream
// yields bit-identical quantized zoos (pinned by the cache tests).
//
// The q8 arms retain only the shared int8 weight buffers (QuantizeWeights),
// not a float64 network clone — the float clone exists transiently for
// scoring and is dropped before the zoo is returned, cutting each q8 arm's
// resident parameter bytes to ~1/8 of its full-precision sibling
// (TestQuantizedZooSharesInt8Storage pins the bound). Scoring runs through
// the fake-quant float oracle by default, or through the true-INT8 engine
// when cfg.Int8 is set.
func quantizedFromBase(cfg TrainedZooConfig, base *TrainedZoo, rng *rand.Rand) (*TrainedZoo, error) {
	n := base.NumModels()
	z := &TrainedZoo{
		testPool:  base.testPool,
		spec:      cfg.Dataset,
		baseCount: n,
		nets:      make([]*nn.Network, 0, 2*n),
		qweights:  make([]*nn.QuantizedWeights, 2*n),
		infos:     make([]Info, 0, 2*n),
		meanLoss:  make([]float64, 0, 2*n),
		meanAcc:   make([]float64, 0, 2*n),
		losses:    make([][]float64, 0, 2*n),
		correct:   make([][]bool, 0, 2*n),
	}
	// Keep the full-precision entries as-is.
	z.nets = append(z.nets, base.nets...)
	z.infos = append(z.infos, base.infos...)
	z.meanLoss = append(z.meanLoss, base.meanLoss...)
	z.meanAcc = append(z.meanAcc, base.meanAcc...)
	z.losses = append(z.losses, base.losses...)
	z.correct = append(z.correct, base.correct...)

	// The quantized variants are scored on the identical test pool through
	// the same chunked batched scorer, so the per-sample caches stay
	// aligned across all 2N models.
	pool := base.testPool
	var calib *nn.Tensor
	if cfg.Int8 {
		if len(pool) == 0 {
			return nil, fmt.Errorf("models: INT8 scoring requires a non-empty test pool")
		}
		calib = nn.StackSamples(pool, calibBatch)
	}

	for i := 0; i < n; i++ {
		q, err := cloneNetwork(cfg.Dataset, i, base.nets[i], rng)
		if err != nil {
			return nil, err
		}
		qw := nn.QuantizeWeights(q)
		if err := qw.ApplyTo(q); err != nil { // bit-identical to QuantizeInPlace
			return nil, err
		}
		q.Name = base.infos[i].Name + "-q8"

		forward := q.ForwardBatch
		if cfg.Int8 {
			qn, err := nn.NewQuantizedNetwork(q, qw, calib)
			if err != nil {
				return nil, fmt.Errorf("compile INT8 %s: %w", q.Name, err)
			}
			forward = qn.ForwardBatch
		}
		losses, correct, meanLoss, meanAcc := nn.ScorePool(forward, pool)
		z.nets = append(z.nets, nil) // no float64 clone retained; q is dropped here
		z.qweights[n+i] = qw
		z.infos = append(z.infos, Info{
			Name:           q.Name,
			SizeBytes:      qw.WireSize(),
			PhiKWh:         base.infos[i].PhiKWh * quantEnergyFactor,
			BaseLatencySec: base.infos[i].BaseLatencySec * quantLatencyFactor,
		})
		z.meanLoss = append(z.meanLoss, meanLoss)
		z.meanAcc = append(z.meanAcc, meanAcc)
		z.losses = append(z.losses, losses)
		z.correct = append(z.correct, correct)
	}
	return z, nil
}

// materializeQ8 rebuilds a q8 arm's fake-quant float network on demand:
// clone the trained base arm (wire round-trip; the RNG only feeds the
// architecture rebuild, every parameter is overwritten), then install the
// shared int8 weights. Zero-scale tensors are skipped by ApplyTo and keep
// the base's values — which are exactly the all-zero values a zero scale
// encodes — so the result is bit-identical to the clone-and-quantize path
// that produced the arm's score caches.
func (z *TrainedZoo) materializeQ8(n int) (*nn.Network, error) {
	base := n - z.baseCount
	if base < 0 || base >= z.baseCount || z.qweights[n] == nil {
		return nil, fmt.Errorf("models: model %d has no quantized weights", n)
	}
	// The RNG only feeds the architecture rebuild and every draw is then
	// overwritten by the wire round-trip, but it still must be a properly
	// derived stream so no shared stream is perturbed.
	q, err := cloneNetwork(z.spec, base, z.nets[base], numeric.SplitRNG(0, "materialize-q8"))
	if err != nil {
		return nil, err
	}
	if err := z.qweights[n].ApplyTo(q); err != nil {
		return nil, err
	}
	q.Name = z.infos[n].Name
	return q, nil
}

// cloneNetwork copies a trained network by rebuilding its architecture and
// round-tripping the weights through the wire format.
func cloneNetwork(spec dataset.Spec, modelID int, src *nn.Network, rng *rand.Rand) (*nn.Network, error) {
	dst, err := NewFamilyNetwork(spec, modelID, rng)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := nn.WriteWeights(&buf, src); err != nil {
		return nil, fmt.Errorf("clone %s: %w", src.Name, err)
	}
	if err := nn.ReadWeights(&buf, dst); err != nil {
		return nil, fmt.Errorf("clone %s: %w", src.Name, err)
	}
	return dst, nil
}
