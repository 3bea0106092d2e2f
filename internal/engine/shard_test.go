package engine

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// stepWorkerCounts are the fan-out shapes Shard.Step must agree across: the
// serial loop, two workers, a count that does not divide the fleet, and one
// worker per edge (single-edge chunks, the TCP fleet's shape).
func stepWorkerCounts(edges int) []int { return []int{1, 2, 7, edges} }

// stepSlots steps a fresh shard through the given slots and returns a deep
// copy of every delta (Step recycles its buffer) and the first error.
func stepSlots(t *testing.T, workers int, policy ErrorPolicy, edges []EdgeStepper, slots int) ([]SlotDelta, error) {
	t.Helper()
	sh, err := NewShard(ShardConfig{Start: 100, Workers: workers, Policy: policy}, edges)
	if err != nil {
		t.Fatal(err)
	}
	arms, downloads := make([]int, len(edges)), make([]bool, len(edges))
	for j := range arms {
		arms[j], downloads[j] = j%3, j%4 == 0
	}
	var out []SlotDelta
	for slot := 0; slot < slots; slot++ {
		d, err := sh.Step(slot, arms, downloads)
		if err != nil {
			return out, err
		}
		out = append(out, SlotDelta{Start: d.Start, Edges: append([]EdgeDelta(nil), d.Edges...)})
	}
	return out, nil
}

// TestShardStepIdenticalAcrossWorkerCounts pins the channel-free fan-out:
// whichever worker claims whichever chunk, the deltas are those of the
// serial loop — under FailFast (the lowest failing edge's error wins, a
// panic included), and under Degrade (a failed or panicking edge goes down
// keeping the retries it burned, and is skipped from then on).
func TestShardStepIdenticalAcrossWorkerCounts(t *testing.T) {
	const edges, slots, seed = 23, 6, int64(11)
	failAt := map[int]int{5: 2, 17: 2, 20: 4}
	panicAt := map[int]int{9: 3, 3: 4}
	retries := map[int]int{5: 2, 12: 1}

	t.Run("fault-free", func(t *testing.T) {
		want, err := stepSlots(t, 1, FailFast, propSteppers(edges, seed, nil, nil, retries), slots)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range stepWorkerCounts(edges) {
			got, err := stepSlots(t, w, FailFast, propSteppers(edges, seed, nil, nil, retries), slots)
			if err != nil || !reflect.DeepEqual(got, want) {
				t.Errorf("workers=%d: deltas differ from the serial loop (err %v)", w, err)
			}
		}
	})

	t.Run("failfast", func(t *testing.T) {
		for _, w := range stepWorkerCounts(edges) {
			// Slot 2 fails on edges 5 and 17: the lower one is reported.
			got, err := stepSlots(t, w, FailFast, propSteppers(edges, seed, failAt, nil, nil), slots)
			if want := "engine: edge 105 slot 2: injected failure"; err == nil || err.Error() != want {
				t.Errorf("workers=%d: err = %v, want %q", w, err, want)
			}
			if len(got) != 2 {
				t.Errorf("workers=%d: %d slots completed before the failure, want 2", w, len(got))
			}
			// A panic is recovered into the same path; at slot 4 edge 3's
			// panic beats edge 20's failure.
			_, err = stepSlots(t, w, FailFast, propSteppers(edges, seed, map[int]int{20: 4}, panicAt, nil), slots)
			if err == nil || !strings.HasPrefix(err.Error(), "engine: edge 109 slot 3: stepper panic:") {
				t.Errorf("workers=%d: err = %v, want edge 109's recovered panic at slot 3", w, err)
			}
		}
	})

	t.Run("degrade", func(t *testing.T) {
		want, err := stepSlots(t, 1, Degrade, propSteppers(edges, seed, failAt, panicAt, retries), slots)
		if err != nil {
			t.Fatal(err)
		}
		// The serial loop itself must show the documented fallback.
		down := want[2].Edges[5]
		if down.Served || !down.WentDown || down.Retries != 2 || down.Samples != 0 || down.DownError != "injected failure" {
			t.Fatalf("edge 5 at its failing slot: %+v, want down with its 2 retries kept", down)
		}
		if later := want[3].Edges[5]; later != (EdgeDelta{}) {
			t.Fatalf("edge 5 after going down: %+v, want the empty delta (stepper skipped)", later)
		}
		if p := want[3].Edges[9]; !p.WentDown || !strings.HasPrefix(p.DownError, "stepper panic:") {
			t.Fatalf("edge 9 at its panicking slot: %+v, want down with the recovered panic", p)
		}
		for _, w := range stepWorkerCounts(edges) {
			got, err := stepSlots(t, w, Degrade, propSteppers(edges, seed, failAt, panicAt, retries), slots)
			if err != nil || !reflect.DeepEqual(got, want) {
				t.Errorf("workers=%d: degraded deltas differ from the serial loop (err %v)", w, err)
			}
		}
	})
}

// countingStepper counts its Step calls: a down edge must never be stepped.
type countingStepper struct {
	calls  int
	failAt int
}

func (c *countingStepper) Step(slot, arm int, download bool) (Observation, error) {
	c.calls++
	if slot == c.failAt {
		return Observation{}, fmt.Errorf("gone")
	}
	return Observation{Samples: 1}, nil
}

func TestShardStepWorkersSkipDownEdges(t *testing.T) {
	const edges, slots = 10, 5
	for _, w := range stepWorkerCounts(edges) {
		steppers := make([]EdgeStepper, edges)
		counters := make([]*countingStepper, edges)
		for j := range steppers {
			counters[j] = &countingStepper{failAt: -1}
			steppers[j] = counters[j]
		}
		counters[4].failAt = 1
		if _, err := stepSlots(t, w, Degrade, steppers, slots); err != nil {
			t.Fatal(err)
		}
		for j, c := range counters {
			want := slots
			if j == 4 {
				want = 2 // slots 0 and 1, then down
			}
			if c.calls != want {
				t.Errorf("workers=%d: edge %d stepped %d times, want %d", w, j, c.calls, want)
			}
		}
	}
}

// freeStepper does next to nothing, so the fan-out itself is what
// BenchmarkShardStepWorkers times.
type freeStepper struct{ n int }

func (f *freeStepper) Step(slot, arm int, download bool) (Observation, error) {
	f.n++
	return Observation{Samples: arm}, nil
}

// BenchmarkShardStepWorkers times one slot of a 10 000-edge shard whose
// steppers are near-free: what is left is the cost of handing edges to
// workers.
func BenchmarkShardStepWorkers(b *testing.B) {
	const edges = 10000
	for _, w := range []int{1, 2, 8} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			steppers := make([]EdgeStepper, edges)
			for j := range steppers {
				steppers[j] = &freeStepper{}
			}
			sh, err := NewShard(ShardConfig{Workers: w}, steppers)
			if err != nil {
				b.Fatal(err)
			}
			arms, downloads := make([]int, edges), make([]bool, edges)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sh.Step(i, arms, downloads); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
