// Package models provides the model zoo: the set of N machine-learning
// models the cloud holds and ships to edges, together with the per-model
// metadata the paper's formulation needs — size W_n, per-sample inference
// energy phi_n, and base computation latency (from which the per-edge
// posterior cost v_{i,n} is derived).
//
// Two implementations are provided behind the Zoo interface:
//
//   - TrainedZoo actually builds and trains six neural networks per dataset
//     family (two sizes each of three architectures, mirroring the paper's
//     MNIST and CIFAR-10 zoos) on the synthetic datasets, then precomputes
//     per-test-sample losses so streaming inference is an O(1) lookup.
//   - SurrogateZoo draws losses from parametric distributions; it exercises
//     the identical algorithm code paths at a fraction of the cost and is
//     used for the large sweep experiments (Figs. 3–11), where only the loss
//     statistics matter, not the pixels.
package models

import (
	"fmt"
	"math/rand"
)

// Info is the static metadata of one model.
type Info struct {
	Name string
	// SizeBytes is the paper's W_n.
	SizeBytes int64
	// PhiKWh is the per-sample inference energy phi_n.
	PhiKWh float64
	// BaseLatencySec is the model's computation latency on a reference
	// edge; the simulator scales it per edge to obtain v_{i,n}.
	BaseLatencySec float64
}

// Zoo is the model set shared by all edges.
type Zoo interface {
	// NumModels returns N.
	NumModels() int
	// Info returns static metadata for model n.
	Info(n int) Info
	// MeanLoss returns the posterior mean inference loss E[l_n],
	// approximated over the test pool exactly as the paper's Offline does.
	MeanLoss(n int) float64
	// PoolSize returns the number of streamable test samples.
	PoolSize() int
	// BatchLoss runs model n over the batch of stream sample indices and
	// returns the average per-sample squared loss and the number of correct
	// predictions. rng supplies any stochasticity (surrogate zoos).
	BatchLoss(n int, indices []int, rng *rand.Rand) (avgLoss float64, correct int)
}

// Latency and energy calibration bands from the paper (Sec. V).
const (
	// MinLatencySec and MaxLatencySec bound computation latency: 25-150 ms.
	MinLatencySec = 0.025
	MaxLatencySec = 0.150
)

// scaleToBand maps x (relative position of value within [lo, hi] of raw
// units) into the band [bandLo, bandHi].
func scaleToBand(value, rawLo, rawHi, bandLo, bandHi float64) float64 {
	if rawHi <= rawLo {
		return (bandLo + bandHi) / 2
	}
	frac := (value - rawLo) / (rawHi - rawLo)
	return bandLo + frac*(bandHi-bandLo)
}

// validateIndex panics on out-of-range model indices; zoos are internal
// infrastructure and an invalid index is a programmer error.
func validateIndex(n, numModels int) {
	if n < 0 || n >= numModels {
		panic(fmt.Sprintf("models: model index %d out of range [0, %d)", n, numModels))
	}
}
