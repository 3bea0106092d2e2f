package engine

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"github.com/carbonedge/carbonedge/internal/numeric"
)

// randomPartition draws a random contiguous cover of [0, n): between 1 and n
// shards, each of random positive size.
func randomPartition(rng *rand.Rand, n int) []Range {
	var out []Range
	for start := 0; start < n; {
		count := 1 + rng.Intn(n-start)
		out = append(out, Range{Start: start, Count: count})
		start += count
	}
	return out
}

// propSteppers builds one fleet instance for a property-test run: plain fake
// steppers plus optional injected faults (ordinary failures, panics, retry
// reporters). Every call returns freshly-seeded steppers so the serial and
// sharded runs observe identical streams.
func propSteppers(edges int, seed int64, failAt, panicAt map[int]int, retries map[int]int) []EdgeStepper {
	out := make([]EdgeStepper, edges)
	for i := range out {
		f := newFakeStepper(i, seed)
		if at, ok := failAt[i]; ok {
			f.failAt = at
		}
		var s EdgeStepper = f
		if at, ok := panicAt[i]; ok {
			s = &panicStepper{fakeStepper: f, panicAt: at}
		}
		if n, ok := retries[i]; ok {
			s = &retryStepper{fakeStepper: f, retriesPerSlot: n}
		}
		out[i] = s
	}
	return out
}

// resultBytes serializes a Result the way every committed results/*.txt is
// produced, so "byte-identical" means what the golden files mean.
func resultBytes(t *testing.T, res *Result) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := res.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestShardedMatchesSerialProperty is the reduction's bit-identity pin:
// random contiguous shard partitions with random per-shard worker counts
// produce a byte-identical serialized Result — DownErrors and Downtime, the
// record of which edge went down in which slot and why, included — versus
// the retained goroutine-free oracle, both fault-free and under Degrade with
// injected failures, panics, and retry reporters.
func TestShardedMatchesSerialProperty(t *testing.T) {
	const edges, horizon = 13, 40
	scenarios := []struct {
		name    string
		policy  ErrorPolicy
		failAt  map[int]int
		panicAt map[int]int
		retries map[int]int
	}{
		{name: "fault-free", policy: FailFast},
		{name: "fault-free-degrade", policy: Degrade},
		{
			name:    "degrade-faulted",
			policy:  Degrade,
			failAt:  map[int]int{2: 7, 9: 3},
			panicAt: map[int]int{5: 11},
			retries: map[int]int{4: 2},
		},
		{
			name:   "degrade-two-in-one-slot",
			policy: Degrade,
			failAt: map[int]int{1: 6, 12: 6},
		},
	}
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			runOnce := func(shards []Range, workers func(k int) int) (*Result, error) {
				cfg := testConfig(edges, horizon)
				cfg.Policy = sc.policy
				ctrl := testController(t, edges, 4, horizon)
				steppers := propSteppers(edges, 17, sc.failAt, sc.panicAt, sc.retries)
				if shards == nil {
					return runSerial(cfg, ctrl, steppers)
				}
				built := make([]ShardStepper, 0, len(shards))
				for k, r := range shards {
					sh, err := NewShard(ShardConfig{Start: r.Start, Workers: workers(k), Policy: sc.policy},
						steppers[r.Start:r.Start+r.Count])
					if err != nil {
						t.Fatal(err)
					}
					built = append(built, sh)
				}
				return RunSharded(cfg, ctrl, built)
			}

			serialRes, err := runOnce(nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			// The oracle's down record is the injected schedule; DeepEqual
			// below then holds every decomposition to it.
			for i := 0; i < edges; i++ {
				slot, fails := sc.failAt[i]
				if p, panics := sc.panicAt[i]; panics {
					slot, fails = p, true
				}
				wantDown := 0
				if fails {
					wantDown = horizon - slot
				}
				if serialRes.Downtime[i] != wantDown || (serialRes.DownErrors[i] != "") != fails {
					t.Fatalf("oracle: edge %d Downtime %d, DownErrors %q; want downtime %d, failed %v",
						i, serialRes.Downtime[i], serialRes.DownErrors[i], wantDown, fails)
				}
			}
			serialJSON := resultBytes(t, serialRes)

			rng := numeric.SplitRNG(99, "sharded-property-"+sc.name)
			for trial := 0; trial < 12; trial++ {
				part := randomPartition(rng, edges)
				workers := func(int) int { return 1 + rng.Intn(4) }
				got, err := runOnce(part, workers)
				if err != nil {
					t.Fatalf("trial %d partition %v: %v", trial, part, err)
				}
				if !reflect.DeepEqual(serialRes, got) {
					t.Fatalf("trial %d partition %v: Result diverged from serial", trial, part)
				}
				if !bytes.Equal(serialJSON, resultBytes(t, got)) {
					t.Fatalf("trial %d partition %v: serialized Result not byte-identical", trial, part)
				}
			}
		})
	}
}

// TestShardedFailFastMatchesSerialError pins the FailFast path: for every
// decomposition the run aborts with the serial loop's exact error — the
// slot's lowest-indexed failure — even when a later shard fails too.
func TestShardedFailFastMatchesSerialError(t *testing.T) {
	const edges, horizon = 9, 20
	failAt := map[int]int{3: 5, 7: 5}
	run := func(shards int, workers int) error {
		cfg := testConfig(edges, horizon)
		cfg.Shards = shards
		cfg.Workers = workers
		_, err := Run(cfg, testController(t, edges, 4, horizon), propSteppers(edges, 23, failAt, nil, nil))
		return err
	}
	serialErr := func() error {
		cfg := testConfig(edges, horizon)
		_, err := runSerial(cfg, testController(t, edges, 4, horizon), propSteppers(edges, 23, failAt, nil, nil))
		return err
	}()
	if serialErr == nil || !strings.Contains(serialErr.Error(), "edge 3 slot 5") {
		t.Fatalf("serial oracle error = %v, want edge 3 slot 5", serialErr)
	}
	for _, shards := range []int{1, 2, 3, edges, edges + 4} {
		for _, workers := range []int{1, 3} {
			err := run(shards, workers)
			if err == nil || err.Error() != serialErr.Error() {
				t.Errorf("shards=%d workers=%d: err = %v, want %v", shards, workers, err, serialErr)
			}
		}
	}
}

// TestRunShardCountsDeterministic drives the public Run API across shard
// counts (the carbonsim -shards path) and pins DeepEqual identity.
func TestRunShardCountsDeterministic(t *testing.T) {
	const edges, horizon = 8, 30
	runWith := func(shards, workers int) *Result {
		cfg := testConfig(edges, horizon)
		cfg.Shards = shards
		cfg.Workers = workers
		res, err := Run(cfg, testController(t, edges, 4, horizon), propSteppers(edges, 31, nil, nil, nil))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	want := runWith(1, 1)
	for _, shards := range []int{2, 3, 4, edges, edges + 7} {
		for _, workers := range []int{1, 2, 5} {
			if got := runWith(shards, workers); !reflect.DeepEqual(want, got) {
				t.Errorf("shards=%d workers=%d diverged", shards, workers)
			}
		}
	}
}

func TestMergeRejectsNonContiguous(t *testing.T) {
	base := SlotDelta{Start: 0, Edges: make([]EdgeDelta, 3)}
	for _, bad := range []SlotDelta{
		{Start: 4, Edges: make([]EdgeDelta, 2)}, // gap
		{Start: 2, Edges: make([]EdgeDelta, 2)}, // overlap
		{Start: 0, Edges: make([]EdgeDelta, 1)}, // out of order
	} {
		d := base
		d.Edges = append([]EdgeDelta(nil), base.Edges...)
		if err := d.Merge(bad); err == nil {
			t.Errorf("Merge accepted non-adjacent range starting at %d", bad.Start)
		}
	}
	d := SlotDelta{Start: 0, Edges: []EdgeDelta{{Observation: Observation{Samples: 2}}}}
	if err := d.Merge(SlotDelta{Start: 1, Edges: []EdgeDelta{{Observation: Observation{Samples: 3}}}}); err != nil {
		t.Fatal(err)
	}
	if len(d.Edges) != 2 || d.Edges[0].Samples != 2 || d.Edges[1].Samples != 3 {
		t.Errorf("merged delta = %+v, want 2 edges serving 2 and 3 samples", d)
	}
}

func TestPartitionEdgesCoversContiguously(t *testing.T) {
	for _, tc := range []struct{ n, k int }{{1, 1}, {5, 2}, {7, 3}, {8, 8}, {3, 9}, {100000, 4}} {
		ranges := PartitionEdges(tc.n, tc.k)
		next := 0
		for _, r := range ranges {
			if r.Start != next || r.Count <= 0 {
				t.Fatalf("PartitionEdges(%d,%d) = %v: not a contiguous positive cover", tc.n, tc.k, ranges)
			}
			next += r.Count
		}
		if next != tc.n {
			t.Fatalf("PartitionEdges(%d,%d) covers %d edges", tc.n, tc.k, next)
		}
		if want := tc.k; want > tc.n {
			want = tc.n
		} else if len(ranges) != tc.k {
			t.Fatalf("PartitionEdges(%d,%d) made %d shards", tc.n, tc.k, len(ranges))
		}
	}
}

// TestSlotDeltaJSONRoundTrip pins the wire property the regional tier relies
// on: a delta that crosses an encoding/json hop decodes to the identical
// terms, so the root's fold is bit-identical either way.
func TestSlotDeltaJSONRoundTrip(t *testing.T) {
	in := SlotDelta{Start: 3, Edges: []EdgeDelta{
		{Observation: Observation{Loss: 0.1 + 0.2, InferLoss: 1e-17, Compute: 0.3333333333333333, Correct: 3, Samples: 7,
			InferKWh: 4.9406564584124654e-324, TransferKWh: 1.7976931348623157e308, Retries: 2}, Served: true},
		{Observation: Observation{Retries: 1}, WentDown: true, DownError: "injected failure"},
		{},
	}}
	blob, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	var out SlotDelta
	if err := json.Unmarshal(blob, &out); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip changed the delta:\n in: %+v\nout: %+v", in, out)
	}
}

// misrangedShard steps an in-process Shard and then reports a delta that
// does not cover the shard's range: cut edges short at the end, or moved to
// start elsewhere.
type misrangedShard struct {
	*Shard
	cut, shift int
}

func (m *misrangedShard) Step(slot int, arms []int, downloads []bool) (SlotDelta, error) {
	d, err := m.Shard.Step(slot, arms, downloads)
	d.Start += m.shift
	d.Edges = d.Edges[:len(d.Edges)-m.cut]
	return d, err
}

// TestRunShardedRejectsMisrangedDelta pins the root's per-delta range check:
// a shard whose delta does not cover exactly its range fails the run, even
// the last shard, whose short delta no later range would contradict.
func TestRunShardedRejectsMisrangedDelta(t *testing.T) {
	const edges, horizon = 4, 10
	for _, tc := range []struct {
		name       string
		cut, shift int
	}{{"one edge short", 1, 0}, {"shifted start", 0, 1}} {
		t.Run(tc.name, func(t *testing.T) {
			steppers := propSteppers(edges, 1, nil, nil, nil)
			first, err := NewShard(ShardConfig{Start: 0}, steppers[:2])
			if err != nil {
				t.Fatal(err)
			}
			last, err := NewShard(ShardConfig{Start: 2}, steppers[2:])
			if err != nil {
				t.Fatal(err)
			}
			shards := []ShardStepper{first, &misrangedShard{Shard: last, cut: tc.cut, shift: tc.shift}}
			res, err := RunSharded(testConfig(edges, horizon), testController(t, edges, 4, horizon), shards)
			if err == nil {
				t.Fatalf("RunSharded accepted the last shard's misranged delta; edge 3 selections %v", res.Selections[3])
			}
			if !strings.Contains(err.Error(), "shard 1") {
				t.Errorf("error %q does not name shard 1", err)
			}
		})
	}
}

// TestRunShardedValidation covers the root loop's own misuse checks.
func TestRunShardedValidation(t *testing.T) {
	const edges, horizon = 4, 10
	mkShard := func(start, count, numEdges int) ShardStepper {
		sh, err := NewShard(ShardConfig{Start: start},
			propSteppers(numEdges, 1, nil, nil, nil)[start:start+count])
		if err != nil {
			t.Fatal(err)
		}
		return sh
	}
	cfg := testConfig(edges, horizon)
	tests := []struct {
		name   string
		shards []ShardStepper
	}{
		{"no shards", nil},
		{"nil shard", []ShardStepper{nil}},
		{"gap", []ShardStepper{mkShard(0, 2, edges), mkShard(3, 1, edges)}},
		{"overlap", []ShardStepper{mkShard(0, 3, edges), mkShard(2, 2, edges)}},
		{"short cover", []ShardStepper{mkShard(0, 3, edges)}},
		{"non-zero start", []ShardStepper{mkShard(1, 3, edges)}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := RunSharded(cfg, testController(t, edges, 4, horizon), tt.shards); err == nil {
				t.Error("expected error")
			}
		})
	}
	if _, err := NewShard(ShardConfig{Start: -1}, propSteppers(1, 1, nil, nil, nil)); err == nil {
		t.Error("NewShard accepted a negative start")
	}
	if _, err := NewShard(ShardConfig{}, nil); err == nil {
		t.Error("NewShard accepted an empty shard")
	}
	sh, err := NewShard(ShardConfig{}, propSteppers(2, 1, nil, nil, nil))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sh.Step(0, []int{0}, []bool{false, false}); err == nil {
		t.Error("Shard.Step accepted mismatched arm/download lengths")
	}
}
