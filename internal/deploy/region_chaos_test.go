package deploy

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"net"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/carbonedge/carbonedge/internal/engine"
	"github.com/carbonedge/carbonedge/internal/market"
	"github.com/carbonedge/carbonedge/internal/numeric"
)

// The region-tier chaos suite: a root plus regional coordinators over
// loopback TCP, with deterministic fault schedules on the region links —
// connections cut between slots, delta frames truncated mid-body, graceful
// departures with mid-run shard rebalancing, standby coordinators adopting
// orphaned shards, and quorum-loss degradation. The contract under test is
// the elastic tier's bit-identity promise: any schedule that keeps every
// slot served must reproduce the fault-free Summary exactly, and a degraded
// run must reproduce the equivalent in-process engine.Degrade run exactly.

// regionChaos is the suite's world: four edges under two coordinators for
// twelve slots under Degrade, every edge and coordinator with room to resume.
func regionChaos(seed int64) fleetSpec {
	return fleetSpec{edges: 4, regions: 2, horizon: 12, seed: seed, policy: engine.Degrade, resumes: 50}
}

// TestRegionChaosKillResumeDeterministic cuts one coordinator's upstream
// link between slots: the coordinator redials, resumes, answers the re-sent
// assign, and the run completes with the fault-free Summary bit for bit.
// The recovery itself must also replay deterministically.
func TestRegionChaosKillResumeDeterministic(t *testing.T) {
	const cutSlot = 5
	base := regionChaos(41)
	clean := runFleet(t, base)
	requireQuiet(t, clean)
	if clean.sum.RegionResumes != nil || clean.sum.RegionRetries != nil || clean.sum.Rebalances != nil {
		t.Fatalf("fault-free run reports elasticity accounting: %+v", clean.sum)
	}

	spec := base
	spec.upstreamFaults = map[int]faultSchedule{1: faultKillAt(cutSlot)}
	chaos := runFleet(t, spec)
	requireQuiet(t, chaos)
	if got, want := chaos.sum.RegionResumes, map[int]int{1: 1}; !reflect.DeepEqual(got, want) {
		t.Errorf("RegionResumes = %v, want %v", got, want)
	}
	if got := chaos.sum.RegionRetries; len(got) != 2 || got[0] != 0 || got[1] == 0 {
		t.Errorf("RegionRetries = %v, want retries burned on shard 1 only", got)
	}
	if chaos.sum.Rebalances != nil {
		t.Errorf("Rebalances = %v, want nil (the link resumed in place)", chaos.sum.Rebalances)
	}
	if chaos.sum.DroppedSlots != 0 {
		t.Errorf("recovered run dropped %d slots", chaos.sum.DroppedSlots)
	}
	if !reflect.DeepEqual(stripElasticity(chaos.sum), clean.sum) {
		t.Errorf("recovered Summary diverged from fault-free run:\n chaos: %+v\n clean: %+v",
			stripElasticity(chaos.sum), clean.sum)
	}

	again := runFleet(t, spec)
	requireQuiet(t, again)
	if !reflect.DeepEqual(chaos.sum, again.sum) {
		t.Errorf("chaos recovery is not deterministic:\n first:  %+v\n second: %+v", chaos.sum, again.sum)
	}
}

// TestRegionChaosTruncatedDelta tears a ShardDelta frame mid-body: the root
// sees a mid-frame EOF, the coordinator (whose own write already failed)
// resumes and answers the root's repeated assign from its delta cache
// instead of re-stepping the slot, so nothing is double-drawn or
// double-folded.
func TestRegionChaosTruncatedDelta(t *testing.T) {
	const tearSlot = 4
	base := regionChaos(42)
	clean := runFleet(t, base)
	requireQuiet(t, clean)

	spec := base
	spec.upstreamFaults = map[int]faultSchedule{1: faultTruncateAt(tearSlot)}
	chaos := runFleet(t, spec)
	requireQuiet(t, chaos)
	if got, want := chaos.sum.RegionResumes, map[int]int{1: 1}; !reflect.DeepEqual(got, want) {
		t.Errorf("RegionResumes = %v, want %v", got, want)
	}
	if !reflect.DeepEqual(stripElasticity(chaos.sum), clean.sum) {
		t.Errorf("recovered Summary diverged from fault-free run:\n chaos: %+v\n clean: %+v",
			stripElasticity(chaos.sum), clean.sum)
	}
}

// TestRegionChaosCutBeforeDone cuts a coordinator's upstream link behind the
// last slot's delta, before the root's Done: the root has folded the whole
// run, the coordinator has redialed and resumed, and the Done must reach it
// on the connection it now listens on — not the dead one — so that it and its
// edges finish cleanly. The other coordinator holds its last delta back until
// the resume has been admitted, which makes the order certain.
func TestRegionChaosCutBeforeDone(t *testing.T) {
	base := regionChaos(45)
	clean := runFleet(t, base)
	requireQuiet(t, clean)

	last := base.horizon - 1
	spec := base
	spec.upstreamFaults = map[int]faultSchedule{1: faultKillAt(last)}
	spec.onSlot = func(root *Root, region, slot int) {
		if region != 0 || slot != last {
			return
		}
		root.mu.Lock()
		l := root.links[1]
		root.mu.Unlock()
		for deadline := time.Now().Add(10 * time.Second); len(l.incoming) == 0; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Error("region 1 never resumed behind its last delta")
				return
			}
		}
	}
	chaos := runFleet(t, spec)
	requireQuiet(t, chaos)
	if got, want := chaos.sum.RegionResumes, map[int]int{1: 1}; !reflect.DeepEqual(got, want) {
		t.Errorf("RegionResumes = %v, want %v", got, want)
	}
	chaos.sum.RegionResumes = nil
	cleanJSON, err := json.Marshal(clean.sum)
	if err != nil {
		t.Fatal(err)
	}
	chaosJSON, err := json.Marshal(chaos.sum)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(chaosJSON, cleanJSON) {
		t.Errorf("summary differs from the fault-free run beyond RegionResumes:\n chaos: %s\n clean: %s", chaosJSON, cleanJSON)
	}
}

// TestRegionChaosLeaveRebalance makes one coordinator depart gracefully
// mid-run: the root re-cuts at the slot boundary, hands the orphaned shard
// to the survivor via a ShardCheckpoint, the released edges redial the
// adopter and resume their sessions, and the Summary still matches the
// fault-free run bit for bit.
func TestRegionChaosLeaveRebalance(t *testing.T) {
	const leaveSlot = 6
	base := regionChaos(43)
	clean := runFleet(t, base)
	requireQuiet(t, clean)

	spec := base
	spec.leaveBefore = map[int]int{1: leaveSlot}
	spec.adoptTo = map[int]int{1: 0}
	chaos := runFleet(t, spec)
	requireQuiet(t, chaos)
	if got, want := chaos.sum.Rebalances, []int{0, 1}; !reflect.DeepEqual(got, want) {
		t.Errorf("Rebalances = %v, want %v", got, want)
	}
	if chaos.sum.RegionResumes != nil {
		t.Errorf("RegionResumes = %v, want nil (departure is not a resume)", chaos.sum.RegionResumes)
	}
	if chaos.sum.DroppedSlots != 0 {
		t.Errorf("rebalanced run dropped %d slots", chaos.sum.DroppedSlots)
	}
	if !reflect.DeepEqual(stripElasticity(chaos.sum), clean.sum) {
		t.Errorf("rebalanced Summary diverged from fault-free run:\n chaos: %+v\n clean: %+v",
			stripElasticity(chaos.sum), clean.sum)
	}

	again := runFleet(t, spec)
	requireQuiet(t, again)
	if !reflect.DeepEqual(chaos.sum, again.sum) {
		t.Errorf("rebalance is not deterministic:\n first:  %+v\n second: %+v", chaos.sum, again.sum)
	}
}

// TestRegionChaosLateJoinAdoption adds a standby coordinator (id above the
// initial membership) that joins at start with an empty shard; when a
// coordinator departs, rebalanceTarget steers the orphaned shard onto the
// newcomer instead of the surviving initial region.
func TestRegionChaosLateJoinAdoption(t *testing.T) {
	const leaveSlot = 5
	base := regionChaos(44)
	clean := runFleet(t, base)
	requireQuiet(t, clean)

	spec := base
	spec.spares = []int{2}
	spec.leaveBefore = map[int]int{1: leaveSlot}
	spec.adoptTo = map[int]int{1: 2}
	spec.target = func(shard int, live []int) int { return 2 }
	chaos := runFleet(t, spec)
	requireQuiet(t, chaos)
	if got, want := chaos.sum.Rebalances, []int{0, 1}; !reflect.DeepEqual(got, want) {
		t.Errorf("Rebalances = %v, want %v", got, want)
	}
	if !reflect.DeepEqual(stripElasticity(chaos.sum), clean.sum) {
		t.Errorf("late-join Summary diverged from fault-free run:\n chaos: %+v\n clean: %+v",
			stripElasticity(chaos.sum), clean.sum)
	}
}

// frameTap records one dialed connection: each frame the dialer wrote (one
// Write carries one whole frame) and the byte stream it read.
type frameTap struct {
	net.Conn
	mu          sync.Mutex
	wrote, read bytes.Buffer
}

func (c *frameTap) Write(p []byte) (int, error) {
	c.mu.Lock()
	c.wrote.Write(p)
	c.mu.Unlock()
	return c.Conn.Write(p)
}

func (c *frameTap) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.mu.Lock()
	c.read.Write(p[:n])
	c.mu.Unlock()
	return n, err
}

// frameKeys is one recorded frame's type and JSON member names (in no
// order), with those of the checkpoint it carries, if any.
type frameKeys struct {
	typ                 MsgType
	members, checkpoint []string
	models              [][]string
}

// frameMembers splits a recorded stream into frames and returns each one's
// keys, up to a frame the connection's cut tore.
func frameMembers(t *testing.T, stream []byte) []frameKeys {
	t.Helper()
	var out []frameKeys
	for len(stream) >= headerLen {
		n := int(binary.BigEndian.Uint32(stream))
		if len(stream)-headerLen < n {
			break
		}
		body := stream[headerLen : headerLen+n]
		stream = stream[headerLen+n:]
		var m struct {
			Type       MsgType
			Checkpoint map[string]json.RawMessage
			Models     []map[string]json.RawMessage
		}
		var keys map[string]json.RawMessage
		if err := json.Unmarshal(body, &m); err != nil {
			t.Fatalf("frame %s: %v", body, err)
		}
		if err := json.Unmarshal(body, &keys); err != nil {
			t.Fatal(err)
		}
		fk := frameKeys{typ: m.Type, members: keyNames(keys), checkpoint: keyNames(m.Checkpoint)}
		for _, meta := range m.Models {
			fk.models = append(fk.models, keyNames(meta))
		}
		out = append(out, fk)
	}
	return out
}

// keyNames returns an object's member names, nil for no object.
func keyNames(obj map[string]json.RawMessage) []string {
	var names []string
	for k := range obj {
		names = append(names, k)
	}
	return names
}

// TestRegionChaosFramesCarryWhatTheirReaderReads pins the members of every
// frame the shipped senders build to those its reader reads. The run takes
// every frame kind through the wire: both tiers' first and resume
// handshakes (an edge and a coordinator lose their links), a standby's
// welcome, a graceful departure and the adoption of the departed shard. The
// members of every checkpoint a frame carries are held to the table's
// "checkpoint" row, and those of every model a Welcome announces to its
// "model" row.
func TestRegionChaosFramesCarryWhatTheirReaderReads(t *testing.T) {
	reads := map[string][]string{
		"Hello":                {"edgeId", "type"},
		"Hello resume":         {"edgeId", "resume", "resumeToken", "type"},
		"Welcome":              {"models", "resumeToken", "type"},
		"Welcome resume":       {"type"},
		"Assign":               {"modelId", "slot", "switch", "type", "weights"},
		"Report":               {"avgLoss", "compSeconds", "correct", "energyKwh", "samples", "slot", "type"},
		"Done":                 {"type"},
		"RegionHello":          {"regionId", "seed", "type"},
		"RegionHello resume":   {"regionId", "resume", "resumeToken", "type"},
		"RegionWelcome":        {"checkpoint", "degrade", "numModels", "resumeToken", "type"},
		"RegionWelcome resume": {"type"},
		"ShardAssign":          {"arms", "downloads", "slot", "start", "type"},
		"ShardDelta":           {"delta", "slot", "type"},
		"RegionLeave":          {"type"},
		"ShardAdopt":           {"checkpoint", "type"},
		"checkpoint":           {"down", "fleetSeed", "start"},
		"model":                {"phiKwh"},
	}
	names := map[MsgType]string{
		MsgHello: "Hello", MsgWelcome: "Welcome", MsgAssign: "Assign", MsgReport: "Report", MsgDone: "Done",
		MsgRegionHello: "RegionHello", MsgRegionWelcome: "RegionWelcome", MsgShardAssign: "ShardAssign",
		MsgShardDelta: "ShardDelta", MsgRegionLeave: "RegionLeave", MsgShardAdopt: "ShardAdopt",
	}

	var mu sync.Mutex
	var taps []*frameTap
	spec := regionChaos(48)
	spec.spares = []int{2}
	spec.leaveBefore = map[int]int{1: 6}
	spec.adoptTo = map[int]int{1: 2}
	spec.target = func(int, []int) int { return 2 }
	spec.upstreamFaults = map[int]faultSchedule{0: faultKillAt(3)}
	spec.edgeFaults = map[int]faultSchedule{0: faultKillAt(2)}
	spec.tap = func(conn net.Conn) net.Conn {
		ft := &frameTap{Conn: conn}
		mu.Lock()
		taps = append(taps, ft)
		mu.Unlock()
		return ft
	}
	requireQuiet(t, runFleet(t, spec))

	seen := make(map[string]bool)
	extra := make(map[string][]string) // kind -> members its reader never reads
	check := func(kind string, members []string) {
		seen[kind] = true
		for _, m := range members {
			if !slices.Contains(reads[kind], m) && !slices.Contains(extra[kind], m) {
				extra[kind] = append(extra[kind], m)
			}
		}
	}
	for _, ft := range taps {
		wrote, read := frameMembers(t, ft.wrote.Bytes()), frameMembers(t, ft.read.Bytes())
		// The dialer's first frame is its Hello; a resuming one is answered
		// by a resume Welcome.
		resume := len(wrote) > 0 && slices.Contains(wrote[0].members, "resume")
		for _, frames := range [][]frameKeys{wrote, read} {
			for k, f := range frames {
				kind := names[f.typ]
				if k == 0 && resume {
					kind += " resume"
				}
				check(kind, f.members)
				if f.checkpoint != nil {
					check("checkpoint", f.checkpoint)
				}
				for _, meta := range f.models {
					check("model", meta)
				}
			}
		}
	}
	for kind, want := range reads {
		if !seen[kind] {
			t.Errorf("the run carried no %s frame", kind)
		}
		if len(extra[kind]) > 0 {
			slices.Sort(extra[kind])
			t.Errorf("%s carries %v, which its reader never reads (it reads %v)", kind, extra[kind], want)
		}
	}
}

// TestRegionChaosAdoptAcrossRetryBudgets hands a shard whose edges have
// retried to a coordinator with no retry budget at all. Backoff jitter is a
// function of (fleet seed, edge, slot, attempt), so the handoff carries no
// retry state for the adopter to check against its own budget: the
// adoption succeeds, and the Summary matches the fault-free run once the
// retry and elasticity counters are set aside.
func TestRegionChaosAdoptAcrossRetryBudgets(t *testing.T) {
	const (
		leaveSlot = 6
		hurtEdge  = 3 // in region 1's shard [2,4)
	)
	base := regionChaos(47)
	clean := runFleet(t, base)
	requireQuiet(t, clean)

	noRetry := defaultChaosRetry()
	noRetry.Attempts = 0
	spec := base
	spec.regionRetries = map[int]RetryConfig{0: noRetry}
	spec.edgeFaults = map[int]faultSchedule{hurtEdge: {{Slot: 2, Kind: faultCutRead}}}
	spec.leaveBefore = map[int]int{1: leaveSlot}
	spec.adoptTo = map[int]int{1: 0}
	chaos := runFleet(t, spec)
	requireQuiet(t, chaos)
	if chaos.sum.Retries[hurtEdge] == 0 {
		t.Fatalf("edge %d burned no retries before the handoff: Retries = %v", hurtEdge, chaos.sum.Retries)
	}
	if got, want := chaos.sum.Rebalances, []int{0, 1}; !reflect.DeepEqual(got, want) {
		t.Errorf("Rebalances = %v, want %v", got, want)
	}
	got := stripElasticity(chaos.sum)
	got.Retries = clean.sum.Retries
	if !reflect.DeepEqual(got, clean.sum) {
		t.Errorf("cross-budget adoption diverged from fault-free run:\n chaos: %+v\n clean: %+v", got, clean.sum)
	}
}

// TestRegionChaosAdoptFrameHeld holds the adopt frame on the adopter's
// upstream link for a second — far longer than a released edge takes to
// spend its whole resume budget on a fleet that does not serve it yet. The
// adopter must hold the edges' resuming Hellos until the adopt frame installs
// their range rather than turn them away, and the run must still match the
// fault-free Summary. Region 1 announces its departure only once region 0
// has its own slot-5 assign, so the adopt frame is the first thing region 0
// reads after its slot-5 delta, the read the schedule delays.
func TestRegionChaosAdoptFrameHeld(t *testing.T) {
	const leaveSlot = 5
	base := regionChaos(46)
	clean := runFleet(t, base)
	requireQuiet(t, clean)

	spec := base
	spec.leaveBefore = map[int]int{1: leaveSlot}
	spec.adoptTo = map[int]int{1: 0}
	spec.upstreamFaults = map[int]faultSchedule{0: {{Slot: leaveSlot, Kind: faultReadLatency, Delay: time.Second}}}
	assigned := make(chan struct{})
	var once sync.Once
	spec.onSlot = func(_ *Root, region, slot int) {
		switch {
		case slot != leaveSlot:
		case region == 0: // again for the adopted shard's assign
			once.Do(func() { close(assigned) })
		default:
			select {
			case <-assigned:
			case <-time.After(10 * time.Second):
				t.Error("region 0 never received its slot-5 assign")
			}
		}
	}
	chaos := runFleet(t, spec)
	requireQuiet(t, chaos)
	if got, want := chaos.sum.Rebalances, []int{0, 1}; !reflect.DeepEqual(got, want) {
		t.Errorf("Rebalances = %v, want %v", got, want)
	}
	if !reflect.DeepEqual(stripElasticity(chaos.sum), clean.sum) {
		t.Errorf("held-adopt Summary diverged from fault-free run:\n chaos: %+v\n clean: %+v",
			stripElasticity(chaos.sum), clean.sum)
	}
}

// TestRegionChaosQuorumDegrade drops the live membership below RegionQuorum:
// instead of rebalancing the departed coordinator's shard, the root degrades
// it with the engine's down-slot semantics. The accounting is pinned against
// an in-process sharded run whose steppers fail with the same canonical
// reason at the same slot — byte-identical Summaries.
func TestRegionChaosQuorumDegrade(t *testing.T) {
	const leaveSlot = 6
	spec := regionChaos(47)
	spec.quorum = 2 // one survivor is below quorum: degrade, don't rebalance
	spec.leaveBefore = map[int]int{1: leaveSlot}
	// no adoptTo: the departed shard's edges are orphaned for good
	chaos := runFleet(t, spec)
	if chaos.serveErr != nil {
		t.Fatalf("root.Serve: %v", chaos.serveErr)
	}
	for id := 0; id < spec.regions; id++ {
		if err := chaos.regionErrs[id]; err != nil {
			t.Fatalf("region %d: %v", id, err)
		}
	}
	orphans := engine.PartitionEdges(spec.edges, spec.regions)[1].Start
	for i, err := range chaos.edgeErrs {
		if i < orphans && err != nil {
			t.Fatalf("surviving edge %d: %v", i, err)
		}
		if i >= orphans && err == nil {
			t.Fatalf("orphaned edge %d finished cleanly, expected a dropped session", i)
		}
	}
	if chaos.sum.RegionResumes != nil || chaos.sum.Rebalances != nil {
		t.Errorf("degraded run reports resumes/rebalances: %+v", chaos.sum)
	}
	reason := fmt.Sprintf("deploy: region link 1 lost at slot %d", leaveSlot)
	for i := orphans; i < spec.edges; i++ {
		if got := chaos.sum.DownErrors[i]; got != reason {
			t.Errorf("edge %d down error = %q, want %q", i, got, reason)
		}
		if got, want := chaos.sum.Downtime[i], spec.horizon-leaveSlot; got != want {
			t.Errorf("edge %d downtime = %d, want %d", i, got, want)
		}
	}

	// The in-process pin: same world, same controller, shard 1's steppers
	// fail with the canonical reason at the degrade slot.
	want := reference(t, spec, func(i int, es engine.EdgeStepper) engine.EdgeStepper {
		if i < orphans {
			return es
		}
		return &downStepper{EdgeStepper: es, failAt: leaveSlot, reason: reason}
	})
	if !reflect.DeepEqual(chaos.sum, want) {
		t.Errorf("degraded Summary diverged from the in-process Degrade run:\n tcp:    %+v\n engine: %+v",
			chaos.sum, want)
	}
}

// TestRegionChaosFailFastAbortsOnDeparture pins the conservative policy: a
// departing coordinator under engine.FailFast aborts the run instead of
// rebalancing.
func TestRegionChaosFailFastAbortsOnDeparture(t *testing.T) {
	const leaveSlot = 5
	spec := regionChaos(49)
	spec.policy = engine.FailFast
	spec.leaveBefore = map[int]int{1: leaveSlot}
	chaos := runFleet(t, spec)
	if chaos.serveErr == nil {
		t.Fatal("expected the departure to abort the FailFast run")
	}
	want := fmt.Sprintf("region link 1 departed at slot %d", leaveSlot)
	if !strings.Contains(chaos.serveErr.Error(), want) {
		t.Errorf("root error %q does not name the departure %q", chaos.serveErr, want)
	}
}

// TestRegionChaosPropertySchedules is the tentpole's property pin: for
// random (kill slot, killed region, failure mode, rebalance target)
// schedules, the root's final Summary is byte-identical to the fault-free
// run over the same world.
func TestRegionChaosPropertySchedules(t *testing.T) {
	const (
		edges   = 6
		regions = 3
		horizon = 12
	)
	rng := numeric.SplitRNG(61, "region-chaos-schedules")
	for trial := 0; trial < 6; trial++ {
		seed := int64(100 + trial)
		mode := "resume"
		if rng.Intn(2) == 1 {
			mode = "leave"
		}
		victim := rng.Intn(regions)
		slot := 2 + rng.Intn(horizon-4)
		base := fleetSpec{edges: edges, regions: regions, horizon: horizon, seed: seed, policy: engine.Degrade, resumes: 50}
		spec := base
		name := fmt.Sprintf("trial%d-%s-region%d-slot%d", trial, mode, victim, slot)
		if mode == "resume" {
			spec.upstreamFaults = map[int]faultSchedule{victim: faultKillAt(slot)}
		} else {
			target := (victim + 1 + rng.Intn(regions-1)) % regions
			spec.leaveBefore = map[int]int{victim: slot}
			spec.adoptTo = map[int]int{victim: target}
			spec.target = func(shard int, live []int) int { return target }
			name += fmt.Sprintf("-adopt%d", target)
		}
		t.Run(name, func(t *testing.T) {
			clean := runFleet(t, base)
			requireQuiet(t, clean)
			chaos := runFleet(t, spec)
			requireQuiet(t, chaos)
			if !reflect.DeepEqual(stripElasticity(chaos.sum), clean.sum) {
				t.Errorf("summary diverged from the fault-free run:\n chaos: %+v\n clean: %+v",
					stripElasticity(chaos.sum), clean.sum)
			}
		})
	}
}

// TestShardDeltaReplayFoldsToCleanBytes pins the root's delta-dedup
// discipline through the root's own admission: a regionStepper whose link's
// far end answers each ShardAssign with a scripted replay stream —
// duplicate, reordered, or partially overlapping MsgShardDelta frames — must
// fold exactly the bytes of the clean stream, each slot validated and
// admitted once, every replay skipped.
func TestShardDeltaReplayFoldsToCleanBytes(t *testing.T) {
	const start, count, slots = 2, 2, 5
	prices, err := market.GeneratePrices(market.DefaultPriceConfig(), slots, numeric.SplitRNG(3, "replay-prices"))
	if err != nil {
		t.Fatal(err)
	}
	mk := func(slot int) *Message {
		d := &engine.SlotDelta{Start: start}
		for j := 0; j < count; j++ {
			d.Edges = append(d.Edges, engine.EdgeDelta{Observation: engine.Observation{
				Loss:      1.25*float64(slot) + 0.5*float64(j),
				InferLoss: float64(slot) + 0.25*float64(j),
				Compute:   0.25,
				Correct:   slot + j,
				Samples:   slot + j + 2,
				InferKWh:  1e-5 * float64(slot+1),
				Retries:   j,
			}, Served: true})
		}
		return &Message{Type: MsgShardDelta, Slot: slot, Delta: d}
	}
	// fold steps shard 1 of a two-region root (edges [2,4)) through every
	// slot while its coordinator plays stream: each assign is answered with
	// the stream's next frames, up to and including one for the assigned
	// slot. It returns the JSON bytes of the folded sequence.
	fold := func(t *testing.T, stream []int) []byte {
		t.Helper()
		root, err := NewRoot(RootConfig{
			Edges: start + count, Regions: 2, Horizon: slots, DownloadCosts: make([]float64, start+count),
			InitialCap: 1, EmissionRate: 500, Prices: prices, Seed: 3, NumModels: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		rootSide, regionSide := net.Pipe()
		played := make(chan int, 1)
		go func() {
			conn, next := newWireConn(regionSide), 0
			defer func() { played <- next }()
			for {
				m, err := conn.readMessage()
				if err != nil {
					return
				}
				for next < len(stream) {
					next++
					if WriteMessage(conn, mk(stream[next-1])) != nil || stream[next-1] == m.Slot {
						break
					}
				}
			}
		}()
		rs := root.stepper(1)
		rs.link.deliver(newWireConn(rootSide))
		var folded []engine.SlotDelta
		for slot := 0; slot < slots; slot++ {
			d, err := rs.Step(slot, make([]int, count), make([]bool, count))
			if err != nil {
				t.Fatalf("slot %d: %v", slot, err)
			}
			folded = append(folded, engine.SlotDelta{Start: d.Start, Edges: append([]engine.EdgeDelta(nil), d.Edges...)})
		}
		rs.link.retire()
		// The last assign is answered up to the final slot's first frame;
		// replays after it are never asked for.
		if n, want := <-played, slices.Index(stream, slots-1)+1; n != want {
			t.Errorf("the root read %d frames of the stream, want %d", n, want)
		}
		b, err := json.Marshal(folded)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	clean := fold(t, []int{0, 1, 2, 3, 4})
	for name, stream := range map[string][]int{
		"duplicate every frame": {0, 0, 1, 1, 2, 2, 3, 3, 4, 4},
		"reordered replay":      {0, 1, 2, 2, 1, 0, 3, 4},
		"partially overlapping": {0, 1, 2, 1, 2, 3, 2, 3, 4},
	} {
		if got := fold(t, stream); !bytes.Equal(got, clean) {
			t.Errorf("%s: replayed fold diverged from the clean fold", name)
		}
	}
}
