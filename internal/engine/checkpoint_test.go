package engine

import (
	"encoding/json"
	"math"
	"reflect"
	"testing"
)

// TestShardCheckpointFold pins how the root's per-shard state advances: an
// unserved edge stays down for good, and the retries and float terms — even
// non-finite ones — leave the checkpoint alone.
func TestShardCheckpointFold(t *testing.T) {
	ck := ShardCheckpoint{Start: 3, FleetSeed: 9, Down: make([]bool, 2)}
	slots := []SlotDelta{
		{Start: 3, Edges: []EdgeDelta{
			{Served: true, Observation: Observation{Retries: 2, Loss: 1.5, InferLoss: 1, Compute: 0.5, Correct: 7, Samples: 9, InferKWh: 2e-6, TransferKWh: 1e-9}},
			{Served: true, Observation: Observation{Loss: math.NaN(), InferKWh: math.Inf(1)}},
		}},
		{Start: 3, Edges: []EdgeDelta{{Served: true, Observation: Observation{Retries: 1}}, {Observation: Observation{Retries: 3}, WentDown: true, DownError: "lost"}}},
		// Served again after going down: the checkpoint keeps the edge down.
		{Start: 3, Edges: []EdgeDelta{{Served: true}, {Served: true, Observation: Observation{Retries: 1}}}},
	}
	for _, d := range slots {
		ck.Fold(d)
	}
	want := ShardCheckpoint{Start: 3, FleetSeed: 9, Down: []bool{false, true}}
	if !reflect.DeepEqual(ck, want) {
		t.Errorf("folded checkpoint = %+v, want %+v", ck, want)
	}
	if err := ck.Validate(); err != nil {
		t.Errorf("folded checkpoint rejected: %v", err)
	}
}

// TestShardCheckpointValidate covers the checkpoint's consistency checks and
// its JSON round trip (it is a wire unit of the regional tier).
func TestShardCheckpointValidate(t *testing.T) {
	valid := ShardCheckpoint{
		Start:     2,
		FleetSeed: 77,
		Down:      []bool{false, true, false},
	}
	if err := valid.Validate(); err != nil {
		t.Fatalf("valid checkpoint rejected: %v", err)
	}
	b, err := json.Marshal(&valid)
	if err != nil {
		t.Fatal(err)
	}
	var back ShardCheckpoint
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(valid, back) {
		t.Errorf("checkpoint JSON round trip diverged:\n sent: %+v\n got:  %+v", valid, back)
	}

	for name, mutate := range map[string]func(*ShardCheckpoint){
		"negative start":    func(c *ShardCheckpoint) { c.Start = -1 },
		"no down flags":     func(c *ShardCheckpoint) { c.Down = nil },
		"empty down flags":  func(c *ShardCheckpoint) { c.Down = []bool{} },
		"range past MaxInt": func(c *ShardCheckpoint) { c.Start = math.MaxInt - 2 },
	} {
		ck := valid
		mutate(&ck)
		if err := ck.Validate(); err == nil {
			t.Errorf("%s: expected a validation error", name)
		}
	}
}

// FuzzShardCheckpoint decodes arbitrary bytes as a checkpoint: Validate never
// panics, what it accepts is a non-empty edge range that does not overflow,
// and an accepted checkpoint re-marshals to an equal accepted checkpoint. The
// middle seeds are internal/deploy's hostileCheckpoints, which Validate
// refuses, the last its wellFormedCheckpoint.
func FuzzShardCheckpoint(f *testing.F) {
	f.Add([]byte(`{"start":2,"fleetSeed":77,"down":[false,true,false]}`))
	f.Add([]byte(`{"start":0,"fleetSeed":7}`))
	f.Add([]byte(`{"start":9223372036854775807,"fleetSeed":7,"down":[false]}`))
	f.Add([]byte(`{"start":-1,"fleetSeed":7,"down":[false]}`))
	f.Add([]byte(`{"start":4,"fleetSeed":7,"down":[false,true]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var ck ShardCheckpoint
		if json.Unmarshal(data, &ck) != nil || ck.Validate() != nil {
			return
		}
		if n := len(ck.Down); n == 0 || ck.Start < 0 || ck.Start+n < ck.Start {
			t.Fatalf("validated %d edges from %d", n, ck.Start)
		}
		b, err := json.Marshal(&ck)
		if err != nil {
			t.Fatalf("accepted checkpoint %+v does not marshal: %v", ck, err)
		}
		var back ShardCheckpoint
		if err := json.Unmarshal(b, &back); err != nil {
			t.Fatalf("re-marshalled checkpoint %s does not decode: %v", b, err)
		}
		if err := back.Validate(); err != nil || !reflect.DeepEqual(ck, back) {
			t.Fatalf("round trip of %+v gave %+v (%v)", ck, back, err)
		}
	})
}
