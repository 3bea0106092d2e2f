package models

import (
	"bytes"
	"fmt"
	"math/rand"

	"github.com/carbonedge/carbonedge/internal/dataset"
	"github.com/carbonedge/carbonedge/internal/nn"
)

// Int8 inference typically runs at a fraction of float energy and latency;
// these factors calibrate the quantized variants' metadata.
const (
	quantEnergyFactor  = 0.6
	quantLatencyFactor = 0.7
)

// NewQuantizedTrainedZoo builds the quantization-aware zoo of the paper's
// future-work direction: every trained model appears twice — once at full
// precision and once int8-quantized (suffix "-q8") with a quarter of the
// download size, reduced inference energy/latency, and whatever accuracy
// the quantization actually costs (measured, not assumed). The bandit then
// chooses among 2N arms, trading quality against carbon per model *and* per
// precision.
//
// Each q8 arm is scored on the same test pool as its full-precision sibling
// through a fake-quant clone (the float oracle) or, when cfg.Int8 is set,
// the true-INT8 engine compiled from it; the clone is then dropped, so a q8
// arm keeps only its Info and score caches.
func NewQuantizedTrainedZoo(cfg TrainedZooConfig, rng *rand.Rand) (*TrainedZoo, error) {
	z, pool, err := trainZoo(cfg, rng)
	if err != nil {
		return nil, err
	}
	var calib *nn.Tensor
	if cfg.Int8 {
		if len(pool) == 0 {
			return nil, fmt.Errorf("models: INT8 scoring requires a non-empty test pool")
		}
		calib = nn.StackSamples(pool, nn.CalibBatch)
	}
	n := z.NumModels()
	for i := 0; i < n; i++ {
		q, err := cloneNetwork(cfg.Dataset, i, z.nets[i], rng)
		if err != nil {
			return nil, err
		}
		qw := nn.QuantizeWeights(q)
		if err := qw.ApplyTo(q); err != nil {
			return nil, err
		}
		q.Name = z.infos[i].Name + "-q8"

		forward := q.ForwardBatch
		if cfg.Int8 {
			qn, err := nn.NewQuantizedNetwork(q, qw, calib)
			if err != nil {
				return nil, fmt.Errorf("compile INT8 %s: %w", q.Name, err)
			}
			forward = qn.ForwardBatch
		}
		losses, correct, meanLoss, meanAcc := nn.ScorePool(forward, pool)
		z.nets = append(z.nets, nil)
		z.infos = append(z.infos, Info{
			Name:           q.Name,
			SizeBytes:      qw.WireSize(),
			PhiKWh:         z.infos[i].PhiKWh * quantEnergyFactor,
			BaseLatencySec: z.infos[i].BaseLatencySec * quantLatencyFactor,
		})
		z.meanLoss = append(z.meanLoss, meanLoss)
		z.meanAcc = append(z.meanAcc, meanAcc)
		z.losses = append(z.losses, losses)
		z.correct = append(z.correct, correct)
	}
	return z, nil
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
