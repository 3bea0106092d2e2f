package models

import (
	"fmt"
	"math"
	"math/rand"

	"github.com/carbonedge/carbonedge/internal/energy"
)

// SurrogateZoo draws per-sample losses from parametric distributions instead
// of running real networks. It exercises identical algorithm code paths —
// the bandit only ever sees loss samples and metadata — at negligible cost,
// which makes the large parameter sweeps (Figs. 3–11) fast. The DESIGN.md
// ablation compares conclusions across the trained and surrogate substrates.
type SurrogateZoo struct {
	infos    []Info
	meanLoss []float64
	sigma    []float64
	meanAcc  []float64
	poolSize int
}

var _ Zoo = (*SurrogateZoo)(nil)

// SurrogateModel describes one parametric model.
type SurrogateModel struct {
	Name string
	// MeanLoss and LossSigma parameterize the per-sample squared-loss
	// distribution (clamped to [0, 2), the range of squared loss between a
	// softmax output and a one-hot label).
	MeanLoss, LossSigma float64
	// Accuracy is the probability a prediction is correct.
	Accuracy float64
	// SizeBytes, PhiKWh, BaseLatencySec mirror Info.
	SizeBytes      int64
	PhiKWh         float64
	BaseLatencySec float64
}

// NewSurrogateZoo builds a zoo from explicit model descriptions.
func NewSurrogateZoo(ms []SurrogateModel, poolSize int) (*SurrogateZoo, error) {
	if len(ms) == 0 {
		return nil, fmt.Errorf("models: empty surrogate zoo")
	}
	if poolSize <= 0 {
		return nil, fmt.Errorf("models: poolSize must be positive, got %d", poolSize)
	}
	z := &SurrogateZoo{
		infos:    make([]Info, len(ms)),
		meanLoss: make([]float64, len(ms)),
		sigma:    make([]float64, len(ms)),
		meanAcc:  make([]float64, len(ms)),
		poolSize: poolSize,
	}
	for i, m := range ms {
		if m.MeanLoss < 0 || m.LossSigma < 0 || m.Accuracy < 0 || m.Accuracy > 1 {
			return nil, fmt.Errorf("models: invalid surrogate model %q: %+v", m.Name, m)
		}
		if m.PhiKWh <= 0 || m.SizeBytes <= 0 || m.BaseLatencySec <= 0 {
			return nil, fmt.Errorf("models: invalid metadata for %q: %+v", m.Name, m)
		}
		z.infos[i] = Info{
			Name:           m.Name,
			SizeBytes:      m.SizeBytes,
			PhiKWh:         m.PhiKWh,
			BaseLatencySec: m.BaseLatencySec,
		}
		z.meanLoss[i] = m.MeanLoss
		z.sigma[i] = m.LossSigma
		z.meanAcc[i] = m.Accuracy
	}
	return z, nil
}

// DefaultSurrogateZoo builds a paper-shaped six-model zoo: model quality
// anti-correlates loosely with energy (bigger models are better but
// costlier), with one cheap-and-bad and one expensive-and-good outlier so
// Greedy (lowest energy) is clearly suboptimal, as in the paper's Fig. 12.
func DefaultSurrogateZoo(rng *rand.Rand) (*SurrogateZoo, error) {
	type proto struct {
		name     string
		loss     float64
		acc      float64
		sizeMB   float64
		energyAt float64 // position in [0,1] within the energy band
	}
	protos := []proto{
		{"mlp-s", 1.15, 0.32, 0.4, 0.00},
		{"mlp-l", 0.70, 0.62, 1.6, 0.25},
		{"lenet-s", 0.55, 0.71, 0.25, 0.35},
		{"lenet-l", 0.42, 0.78, 0.9, 0.55},
		{"cnn-s", 0.38, 0.81, 1.8, 0.75},
		{"cnn-l", 0.30, 0.86, 6.5, 1.00},
	}
	ms := make([]SurrogateModel, 0, len(protos))
	for _, p := range protos {
		jitter := 1 + float64(0.02*rng.NormFloat64())
		ms = append(ms, SurrogateModel{
			Name:      p.name,
			MeanLoss:  p.loss * jitter,
			LossSigma: 0.25,
			Accuracy:  p.acc,
			SizeBytes: int64(p.sizeMB * 1e6),
			PhiKWh: energy.MinInferEnergy +
				float64(p.energyAt*(energy.MaxInferEnergy-energy.MinInferEnergy)),
			BaseLatencySec: MinLatencySec + float64(p.energyAt*(MaxLatencySec-MinLatencySec)),
		})
	}
	return NewSurrogateZoo(ms, 8000)
}

// NumModels implements Zoo.
func (z *SurrogateZoo) NumModels() int { return len(z.infos) }

// Info implements Zoo.
func (z *SurrogateZoo) Info(n int) Info {
	validateIndex(n, len(z.infos))
	return z.infos[n]
}

// MeanLoss implements Zoo.
func (z *SurrogateZoo) MeanLoss(n int) float64 {
	validateIndex(n, len(z.meanLoss))
	return z.meanLoss[n]
}

// PoolSize implements Zoo.
func (z *SurrogateZoo) PoolSize() int { return z.poolSize }

// BatchLoss implements Zoo by sampling the batch-average loss directly:
// the mean of m IID per-sample losses has standard deviation sigma/sqrt(m),
// and the correct count is Binomial(m, accuracy) (drawn exactly for small
// batches, via normal approximation for large ones).
func (z *SurrogateZoo) BatchLoss(n int, indices []int, rng *rand.Rand) (float64, int) {
	validateIndex(n, len(z.meanLoss))
	m := len(indices)
	if m == 0 {
		return 0, 0
	}
	avg := z.meanLoss[n] + float64(z.sigma[n]/math.Sqrt(float64(m))*rng.NormFloat64())
	if avg < 0 {
		avg = 0
	}
	acc := z.meanAcc[n]
	var correct int
	if m <= 64 {
		for i := 0; i < m; i++ {
			if rng.Float64() < acc {
				correct++
			}
		}
	} else {
		mean := float64(float64(m) * acc)
		sd := math.Sqrt(float64(m) * acc * (1 - acc))
		c := int(mean + float64(sd*rng.NormFloat64()) + 0.5)
		if c < 0 {
			c = 0
		}
		if c > m {
			c = m
		}
		correct = c
	}
	return avg, correct
}
