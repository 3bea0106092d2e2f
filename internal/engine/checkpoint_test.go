package engine

import (
	"encoding/json"
	"math"
	"reflect"
	"testing"
)

// TestSlotDeduperWatermark pins the admission discipline: exactly the
// watermark slot is admitted (advancing it), replays and future slots are
// rejected, and Seen tracks the folded prefix.
func TestSlotDeduperWatermark(t *testing.T) {
	var d SlotDeduper
	if d.Next() != 0 {
		t.Fatalf("fresh deduper watermark = %d, want 0", d.Next())
	}
	if d.Admit(1) {
		t.Error("admitted future slot 1 at watermark 0")
	}
	if !d.Admit(0) {
		t.Error("rejected watermark slot 0")
	}
	if d.Admit(0) {
		t.Error("admitted slot 0 twice")
	}
	if !d.Seen(0) || d.Seen(1) {
		t.Errorf("Seen(0)=%v Seen(1)=%v, want true false", d.Seen(0), d.Seen(1))
	}
	for s := 1; s <= 3; s++ {
		if !d.Admit(s) {
			t.Fatalf("rejected watermark slot %d", s)
		}
	}
	if d.Next() != 4 {
		t.Errorf("watermark = %d after folding 4 slots, want 4", d.Next())
	}
	// A replayed prefix after a resume: everything already folded is seen
	// and nothing is re-admitted.
	for s := 0; s < 4; s++ {
		if !d.Seen(s) {
			t.Errorf("Seen(%d) = false for a folded slot", s)
		}
		if d.Admit(s) {
			t.Errorf("re-admitted folded slot %d", s)
		}
	}
}

// TestShardCheckpointValidate covers the checkpoint's consistency checks and
// its JSON round trip (it is a wire unit of the regional tier).
func TestShardCheckpointValidate(t *testing.T) {
	valid := ShardCheckpoint{
		Start:       2,
		Count:       3,
		DoneSlots:   5,
		FleetSeed:   77,
		Down:        []bool{false, true, false},
		DownErrors:  []string{"", "edge lost", ""},
		JitterDraws: []int{0, 4, 1},
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
		"negative start":       func(c *ShardCheckpoint) { c.Start = -1 },
		"empty range":          func(c *ShardCheckpoint) { c.Count = 0 },
		"range past MaxInt":    func(c *ShardCheckpoint) { c.Start = math.MaxInt - 2 },
		"no down flags":        func(c *ShardCheckpoint) { c.Down = nil },
		"no down errors":       func(c *ShardCheckpoint) { c.DownErrors = nil },
		"no jitter positions":  func(c *ShardCheckpoint) { c.JitterDraws = nil },
		"negative watermark":   func(c *ShardCheckpoint) { c.DoneSlots = -1 },
		"down length":          func(c *ShardCheckpoint) { c.Down = []bool{true} },
		"down errors length":   func(c *ShardCheckpoint) { c.DownErrors = []string{"x"} },
		"jitter length":        func(c *ShardCheckpoint) { c.JitterDraws = []int{1, 2} },
		"negative jitter draw": func(c *ShardCheckpoint) { c.JitterDraws = []int{0, -1, 2} },
	} {
		ck := valid
		mutate(&ck)
		if err := ck.Validate(); err == nil {
			t.Errorf("%s: expected a validation error", name)
		}
	}
}

// FuzzShardCheckpoint decodes arbitrary bytes as a checkpoint: Validate never
// panics, what it accepts covers no more edges than the bytes could carry, and
// an accepted checkpoint re-marshals to an equal accepted checkpoint. The
// seeds are internal/deploy's hostileCheckpoints; Validate alone stops the
// first two, the session bounds of deploy.ValidateAdopt the others.
func FuzzShardCheckpoint(f *testing.F) {
	f.Add([]byte(`{"start":2,"count":3,"doneSlots":5,"fleetSeed":77,"down":[false,true,false],"downErrors":["","edge lost",""],"jitterDraws":[0,4,1]}`))
	f.Add([]byte(`{"start":0,"count":1099511627776,"fleetSeed":7}`))
	f.Add([]byte(`{"start":9223372036854775807,"count":1,"fleetSeed":7,"down":[false],"downErrors":[""],"jitterDraws":[0]}`))
	f.Add([]byte(`{"start":0,"count":1,"doneSlots":9,"fleetSeed":7,"down":[false],"downErrors":[""],"jitterDraws":[0]}`))
	f.Add([]byte(`{"start":0,"count":1,"doneSlots":4,"fleetSeed":7,"down":[false],"downErrors":[""],"jitterDraws":[4611686018427387904]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var ck ShardCheckpoint
		if json.Unmarshal(data, &ck) != nil || ck.Validate() != nil {
			return
		}
		if ck.Count > len(data) || ck.Start+ck.Count < ck.Start {
			t.Fatalf("%d bytes validated as %d edges from %d", len(data), ck.Count, ck.Start)
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
