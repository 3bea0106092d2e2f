package models

import (
	"testing"

	"github.com/carbonedge/carbonedge/internal/dataset"
	"github.com/carbonedge/carbonedge/internal/numeric"
)

// BenchmarkZooBuild times one cold NewTrainedZoo at the slot-cost benchmark's
// edge-serving sizes and streams (MNISTLike, zoo seed 11, 600 training and
// 600 test samples, two epochs, batch 16): the in-package counterpart of a
// traced run's models.zoo_build_s, most of that workload's setup_s. The
// distribution is drawn outside the timer, as the benchmark draws it before
// its zoo stopwatch starts.
func BenchmarkZooBuild(b *testing.B) {
	const zooSeed = 11
	dist, err := dataset.NewDistribution(dataset.MNISTLike, numeric.SplitRNG(zooSeed, "dist"))
	if err != nil {
		b.Fatal(err)
	}
	cfg := TrainedZooConfig{Dataset: dataset.MNISTLike, Dist: dist, TrainN: 600, TestN: 600, Epochs: 2, LR: 0.05, BatchSize: 16}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := NewTrainedZoo(cfg, numeric.SplitRNG(zooSeed, "zoo")); err != nil {
			b.Fatal(err)
		}
	}
}
