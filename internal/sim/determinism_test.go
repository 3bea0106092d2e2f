package sim

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"github.com/carbonedge/carbonedge/internal/numeric"
)

// TestRunWorkersDeterministic is the parallel-stepping regression test: the
// same seed must produce the identical Result — cost series, selections,
// fit, accuracy, everything — for workers=1 (canonical serial order),
// workers=4, and workers=GOMAXPROCS. Scenarios are rebuilt per run because
// the per-edge stream RNGs are stateful.
func TestRunWorkersDeterministic(t *testing.T) {
	const edges, horizon, seed = 6, 80, 11
	runWith := func(workers int) *Result {
		s := testScenario(t, edges, horizon, seed)
		res, err := RunSharded(s, "Ours", PolicyOurs, TraderOurs, 1, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return res
	}
	serial := runWith(1)
	for _, workers := range []int{4, runtime.GOMAXPROCS(0)} {
		got := runWith(workers)
		if !reflect.DeepEqual(serial.CumTotal, got.CumTotal) {
			t.Errorf("workers=%d: cost series diverged from serial", workers)
		}
		if !reflect.DeepEqual(serial.Selections, got.Selections) {
			t.Errorf("workers=%d: selections diverged from serial", workers)
		}
		if serial.Fit != got.Fit {
			t.Errorf("workers=%d: fit %v != %v", workers, got.Fit, serial.Fit)
		}
		if serial.OverallAccuracy != got.OverallAccuracy {
			t.Errorf("workers=%d: accuracy %v != %v", workers, got.OverallAccuracy, serial.OverallAccuracy)
		}
		if !reflect.DeepEqual(serial, got) {
			t.Errorf("workers=%d: full Result diverged from serial", workers)
		}
	}
	// Run is the shards=1, workers=1 engine: it must reproduce the canonical order.
	s := testScenario(t, edges, horizon, seed)
	viaRun, err := Run(s, "Ours", PolicyOurs, TraderOurs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, viaRun) {
		t.Error("Run diverged from RunSharded(..., 1, 1)")
	}
}

// TestRunShardedDeterministic extends the regression to the shard dimension:
// every shard×worker decomposition must reproduce the canonical serial
// Result bit for bit (this is the sim-level face of the engine's SlotDelta
// reduction; carbonsim -shards rides this path).
func TestRunShardedDeterministic(t *testing.T) {
	const edges, horizon, seed = 6, 80, 11
	runWith := func(shards, workers int) *Result {
		s := testScenario(t, edges, horizon, seed)
		res, err := RunSharded(s, "Ours", PolicyOurs, TraderOurs, shards, workers)
		if err != nil {
			t.Fatalf("shards=%d workers=%d: %v", shards, workers, err)
		}
		return res
	}
	serial := runWith(1, 1)
	for _, shards := range []int{2, 3, edges, edges + 5} {
		for _, workers := range []int{1, 2, runtime.GOMAXPROCS(0)} {
			if got := runWith(shards, workers); !reflect.DeepEqual(serial, got) {
				t.Errorf("shards=%d workers=%d: Result diverged from serial", shards, workers)
			}
		}
	}
}

// TestOfflineDeterministic pins the clairvoyant scheme's determinism on the
// rebased engine path.
func TestOfflineDeterministic(t *testing.T) {
	r1, err := Offline(testScenario(t, 4, 60, 12))
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Offline(testScenario(t, 4, 60, 12))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r1, r2) {
		t.Error("Offline is not deterministic for a fixed seed")
	}
}

// TestStreamAdvanceIsPolicyIndependent pins what playing combinations one
// after another on a shared scenario relies on: whatever the policy picks,
// a run advances edge i's sample stream by exactly sum_t Workload[t][i]
// draws, so the k-th combination played sees the k-th window of every
// stream. A policy-dependent draw sneaking into the stream would silently
// re-deal every golden figure; here it fails.
func TestStreamAdvanceIsPolicyIndependent(t *testing.T) {
	const edges, horizon, seed = 4, 60, 11
	s := testScenario(t, edges, horizon, seed)
	pool := s.Zoo.PoolSize()
	perRun := make([]int, edges)
	for _, row := range s.Workload {
		for i, m := range row {
			perRun[i] += m
		}
	}
	if perRun[0] == perRun[1] {
		t.Fatalf("edges 0 and 1 both draw %d samples; the check needs a heterogeneous workload", perRun[0])
	}
	want := make([]*rand.Rand, edges)
	for i := range want {
		want[i] = numeric.SplitRNG(seed, fmt.Sprintf("stream-%d", i))
	}
	check := func(after string) {
		t.Helper()
		for i, rng := range want {
			for k := 0; k < perRun[i]; k++ {
				rng.Intn(pool)
			}
			// Both sides consume the probe draw, so they stay in step.
			if got, w := s.streamRNGs[i].Intn(pool), rng.Intn(pool); got != w {
				t.Fatalf("after %s: edge %d's stream is not %d draws further on (next index %d, want %d)",
					after, i, perRun[i], got, w)
			}
		}
	}
	for _, name := range []string{"Ours", "Ran-Ran", "Greedy-LY"} {
		c, err := ComboByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Run(s, c.Name, c.Policy, c.Trader); err != nil {
			t.Fatal(err)
		}
		check(name)
	}
	if _, err := Offline(s); err != nil {
		t.Fatal(err)
	}
	check("Offline")
}
