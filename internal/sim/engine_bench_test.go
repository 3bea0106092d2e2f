package sim

import (
	"fmt"
	"runtime"
	"testing"

	"github.com/carbonedge/carbonedge/internal/models"
	"github.com/carbonedge/carbonedge/internal/numeric"
)

// benchScenario builds a heavier-than-default workload so per-edge slot work
// dominates the per-slot synchronization cost.
func benchScenario(b *testing.B, edges int) *Scenario {
	b.Helper()
	zoo, err := models.DefaultSurrogateZoo(numeric.SplitRNG(1, "zoo"))
	if err != nil {
		b.Fatal(err)
	}
	cfg := DefaultConfig(edges)
	cfg.Horizon = 160
	cfg.MeanPeakWorkload = 2000
	s, err := NewScenario(cfg, zoo)
	if err != nil {
		b.Fatal(err)
	}
	return s
}

// BenchmarkSlotStepParallel measures the shared engine's per-edge parallel
// stepping against the canonical serial order at the paper's Fig. 4 edge
// scales. Scenario construction is excluded from the timing; scenarios are
// rebuilt per iteration because the stream RNGs are stateful.
func BenchmarkSlotStepParallel(b *testing.B) {
	for _, edges := range []int{10, 50} {
		for _, workers := range []int{1, 4, runtime.GOMAXPROCS(0)} {
			b.Run(fmt.Sprintf("edges=%d/workers=%d", edges, workers), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					s := benchScenario(b, edges)
					b.StartTimer()
					if _, err := RunSharded(s, "Ours", PolicyOurs, TraderOurs, 1, workers); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkEngineSharded measures the sharded reduction at a fixed edge
// scale across shard counts (one worker per shard edge range), isolating the
// fan-out/fold overhead the regional tier inherits. The Result is
// bit-identical across every row; only wall time may move.
func BenchmarkEngineSharded(b *testing.B) {
	const edges = 50
	for _, shards := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("edges=%d/shards=%d", edges, shards), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				s := benchScenario(b, edges)
				b.StartTimer()
				if _, err := RunSharded(s, "Ours", PolicyOurs, TraderOurs, shards, 1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
