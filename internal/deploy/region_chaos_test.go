package deploy

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/carbonedge/carbonedge/internal/core"
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

// regionChaosSpec parameterizes one regional run under a fault schedule.
type regionChaosSpec struct {
	edges, regions, horizon int
	seed                    int64
	policy                  engine.ErrorPolicy
	quorum                  int
	target                  func(shard int, live []int) int
	rootRetry, regionRetry  RetryConfig

	// spares lists standby coordinator ids (>= regions) that join at start
	// and serve only what rebalancing adopts into them.
	spares []int
	// leaveBefore makes a coordinator announce departure instead of serving
	// its first assign at or past the given slot.
	leaveBefore map[int]int
	// upstreamFaults wraps a coordinator's first upstream connection in a
	// faultConn with the given schedule; redials are clean. Latency events
	// really wait.
	upstreamFaults map[int]faultSchedule
	// adoptTo names the listener a departed coordinator's released edges
	// redial (the expected adopter). Absent means nobody adopts the shard —
	// its edges are expected to fail.
	adoptTo map[int]int
	// onSlot, when non-nil, runs in every coordinator's OnSlot hook, before
	// the slot is served: a schedule's way to order events across regions.
	onSlot func(root *Root, region, slot int)
}

// regionChaosRun is everything one harness run observed.
type regionChaosRun struct {
	sum        *Summary
	rootErr    error
	regionErrs map[int]error
	edgeErrs   []error
}

func defaultChaosRetry() RetryConfig {
	return RetryConfig{
		Attempts:   3,
		baseDelay:  time.Millisecond,
		maxDelay:   4 * time.Millisecond,
		resumeWait: 30 * time.Second,
	}
}

// runRegionChaos drives one full regional deployment under the spec's fault
// schedule and returns everything it observed. Error assertions are the
// caller's: which errors are expected depends on the schedule.
func runRegionChaos(t *testing.T, spec regionChaosSpec) *regionChaosRun {
	t.Helper()
	if spec.rootRetry == (RetryConfig{}) {
		spec.rootRetry = defaultChaosRetry()
	}
	if spec.regionRetry == (RetryConfig{}) {
		spec.regionRetry = defaultChaosRetry()
	}
	w := newParityWorld(spec.seed)
	prices, err := market.GeneratePrices(market.DefaultPriceConfig(), spec.horizon, numeric.SplitRNG(spec.seed, "region-chaos-prices"))
	if err != nil {
		t.Fatal(err)
	}
	costs := make([]float64, spec.edges)
	for i := range costs {
		costs[i] = 0.4 + 0.2*float64(i)
	}
	root, err := NewRoot(RootConfig{
		Edges:         spec.edges,
		Regions:       spec.regions,
		Horizon:       spec.horizon,
		DownloadCosts: costs,
		InitialCap:    0.01,
		EmissionRate:  500,
		Prices:        prices,
		EmissionScale: 1e-3,
		Seed:          spec.seed,
		NumModels:     len(w.metas),
		Policy:        spec.policy,
		Retry:         spec.rootRetry,
		RegionQuorum:  spec.quorum,
	})
	if err != nil {
		t.Fatal(err)
	}
	root.retry.sleep = func(time.Duration) {} // backoff replays with zero wall clock
	root.rebalanceTarget = spec.target

	rootLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer rootLn.Close()

	ids := make([]int, 0, spec.regions+len(spec.spares))
	for r := 0; r < spec.regions; r++ {
		ids = append(ids, r)
	}
	ids = append(ids, spec.spares...)

	edgeLns := make(map[int]net.Listener, len(ids))
	gone := make(map[int]chan struct{}, len(ids))
	for _, id := range ids {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close() //nolint:errcheck // departed coordinators already closed theirs
		edgeLns[id] = ln
		gone[id] = make(chan struct{})
	}

	out := &regionChaosRun{
		regionErrs: make(map[int]error, len(ids)),
		edgeErrs:   make([]error, spec.edges),
	}
	var regionMu sync.Mutex
	var wg sync.WaitGroup
	for _, id := range ids {
		id := id
		wg.Add(1)
		go func() {
			defer wg.Done()
			var fcMu sync.Mutex
			var fc *faultConn
			sched := spec.upstreamFaults[id]
			dials := 0
			dial := func() (net.Conn, error) {
				conn, err := net.Dial("tcp", rootLn.Addr().String())
				if err != nil {
					return nil, err
				}
				dials++
				if dials == 1 && len(sched) > 0 {
					f, ferr := newFaultConn(conn, sched, numeric.SplitRNG(spec.seed, fmt.Sprintf("region-chaos-fault-%d", id)), nil)
					if ferr != nil {
						conn.Close()
						return nil, ferr
					}
					fcMu.Lock()
					fc = f
					fcMu.Unlock()
					return f, nil
				}
				fcMu.Lock()
				fc = nil // redials are clean
				fcMu.Unlock()
				return conn, nil
			}
			err := RunRegionResumable(dial, edgeLns[id], RegionConfig{
				RegionID:        id,
				Source:          &paritySource{w: w},
				Seed:            spec.seed + int64(id),
				Retry:           spec.regionRetry,
				LeaveBeforeSlot: spec.leaveBefore[id],
				OnSlot: func(slot int) {
					fcMu.Lock()
					if fc != nil {
						fc.SetSlot(slot)
					}
					fcMu.Unlock()
					if spec.onSlot != nil {
						spec.onSlot(root, id, slot)
					}
				},
			}, 5)
			// Stop accepting edges before announcing the coordinator gone: a
			// released edge that redials a closed listener fails fast instead
			// of sitting unanswered in the accept backlog.
			edgeLns[id].Close()
			close(gone[id])
			regionMu.Lock()
			out.regionErrs[id] = err
			regionMu.Unlock()
		}()
	}

	for r, rg := range engine.PartitionEdges(spec.edges, spec.regions) {
		for i := rg.Start; i < rg.Start+rg.Count; i++ {
			i, home := i, r
			wg.Add(1)
			go func() {
				defer wg.Done()
				dials := 0
				dial := func() (net.Conn, error) {
					dials++
					if dials == 1 {
						return net.Dial("tcp", edgeLns[home].Addr().String())
					}
					// In this suite edges have no faults of their own, so an
					// edge only ever redials because its home coordinator
					// released it: wait out the departure, then follow the
					// shard to its adopter, which holds the resume until the
					// adopt frame installs the shard.
					<-gone[home]
					adopter, ok := spec.adoptTo[home]
					if !ok {
						return nil, fmt.Errorf("edge %d: home region %d left and nobody adopted its shard", i, home)
					}
					return net.Dial("tcp", edgeLns[adopter].Addr().String())
				}
				out.edgeErrs[i] = RunEdgeResumable(dial, i, &parityRuntime{w: w, edge: i, rng: w.edgeRNG(i)}, 50)
			}()
		}
	}

	out.sum, out.rootErr = root.Serve(rootLn)
	wg.Wait()
	return out
}

// requireQuiet asserts the run completed with no root, region, or edge
// errors.
func requireQuiet(t *testing.T, run *regionChaosRun) {
	t.Helper()
	if run.rootErr != nil {
		t.Fatalf("root.Serve: %v", run.rootErr)
	}
	for id, err := range run.regionErrs {
		if err != nil {
			t.Fatalf("region %d: %v", id, err)
		}
	}
	for i, err := range run.edgeErrs {
		if err != nil {
			t.Fatalf("edge %d: %v", i, err)
		}
	}
}

// stripElasticity clears the region-tier fault accounting so a recovered
// run's Summary can be compared deep-equal against a fault-free one.
func stripElasticity(s *Summary) *Summary {
	cp := *s
	cp.RegionResumes = nil
	cp.RegionRetries = nil
	cp.Rebalances = nil
	return &cp
}

// TestRegionChaosKillResumeDeterministic cuts one coordinator's upstream
// link between slots: the coordinator redials, resumes from the root's fold
// watermark, and the run completes with the fault-free Summary bit for bit.
// The recovery itself must also replay deterministically.
func TestRegionChaosKillResumeDeterministic(t *testing.T) {
	const cutSlot = 5
	base := regionChaosSpec{edges: 4, regions: 2, horizon: 12, seed: 41, policy: engine.Degrade}
	clean := runRegionChaos(t, base)
	requireQuiet(t, clean)
	if clean.sum.RegionResumes != nil || clean.sum.RegionRetries != nil || clean.sum.Rebalances != nil {
		t.Fatalf("fault-free run reports elasticity accounting: %+v", clean.sum)
	}

	spec := base
	spec.upstreamFaults = map[int]faultSchedule{1: faultKillAt(cutSlot)}
	chaos := runRegionChaos(t, spec)
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

	again := runRegionChaos(t, spec)
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
	base := regionChaosSpec{edges: 4, regions: 2, horizon: 12, seed: 42, policy: engine.Degrade}
	clean := runRegionChaos(t, base)
	requireQuiet(t, clean)

	spec := base
	spec.upstreamFaults = map[int]faultSchedule{1: faultTruncateAt(tearSlot)}
	chaos := runRegionChaos(t, spec)
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
	base := regionChaosSpec{edges: 4, regions: 2, horizon: 12, seed: 45, policy: engine.Degrade}
	clean := runRegionChaos(t, base)
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
	chaos := runRegionChaos(t, spec)
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
	base := regionChaosSpec{edges: 4, regions: 2, horizon: 12, seed: 43, policy: engine.Degrade}
	clean := runRegionChaos(t, base)
	requireQuiet(t, clean)

	spec := base
	spec.leaveBefore = map[int]int{1: leaveSlot}
	spec.adoptTo = map[int]int{1: 0}
	chaos := runRegionChaos(t, spec)
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

	again := runRegionChaos(t, spec)
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
	base := regionChaosSpec{edges: 4, regions: 2, horizon: 12, seed: 44, policy: engine.Degrade}
	clean := runRegionChaos(t, base)
	requireQuiet(t, clean)

	spec := base
	spec.spares = []int{2}
	spec.leaveBefore = map[int]int{1: leaveSlot}
	spec.adoptTo = map[int]int{1: 2}
	spec.target = func(shard int, live []int) int { return 2 }
	chaos := runRegionChaos(t, spec)
	requireQuiet(t, chaos)
	if got, want := chaos.sum.Rebalances, []int{0, 1}; !reflect.DeepEqual(got, want) {
		t.Errorf("Rebalances = %v, want %v", got, want)
	}
	if !reflect.DeepEqual(stripElasticity(chaos.sum), clean.sum) {
		t.Errorf("late-join Summary diverged from fault-free run:\n chaos: %+v\n clean: %+v",
			stripElasticity(chaos.sum), clean.sum)
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
	base := regionChaosSpec{edges: 4, regions: 2, horizon: 12, seed: 46, policy: engine.Degrade}
	clean := runRegionChaos(t, base)
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
	chaos := runRegionChaos(t, spec)
	requireQuiet(t, chaos)
	if got, want := chaos.sum.Rebalances, []int{0, 1}; !reflect.DeepEqual(got, want) {
		t.Errorf("Rebalances = %v, want %v", got, want)
	}
	if !reflect.DeepEqual(stripElasticity(chaos.sum), clean.sum) {
		t.Errorf("held-adopt Summary diverged from fault-free run:\n chaos: %+v\n clean: %+v",
			stripElasticity(chaos.sum), clean.sum)
	}
}

// lostShardStepper fails like an edge whose region link vanished: it serves
// normally until failSlot and then returns the canonical degrade reason.
type lostShardStepper struct {
	inner    engine.EdgeStepper
	failSlot int
	reason   string
}

func (s *lostShardStepper) Step(slot, arm int, download bool) (engine.Observation, error) {
	if slot >= s.failSlot {
		return engine.Observation{}, errors.New(s.reason)
	}
	return s.inner.Step(slot, arm, download)
}

// TestRegionChaosQuorumDegrade drops the live membership below RegionQuorum:
// instead of rebalancing the departed coordinator's shard, the root degrades
// it with the engine's down-slot semantics. The accounting is pinned against
// an in-process sharded run whose steppers fail with the same canonical
// reason at the same slot — byte-identical Summaries.
func TestRegionChaosQuorumDegrade(t *testing.T) {
	const (
		edges     = 4
		regions   = 2
		horizon   = 12
		seed      = int64(47)
		leaveSlot = 6
	)
	spec := regionChaosSpec{
		edges: edges, regions: regions, horizon: horizon, seed: seed,
		policy:      engine.Degrade,
		quorum:      2, // one survivor is below quorum: degrade, don't rebalance
		leaveBefore: map[int]int{1: leaveSlot},
		// no adoptTo: the departed shard's edges are orphaned for good
	}
	chaos := runRegionChaos(t, spec)
	if chaos.rootErr != nil {
		t.Fatalf("root.Serve: %v", chaos.rootErr)
	}
	for id := 0; id < regions; id++ {
		if err := chaos.regionErrs[id]; err != nil {
			t.Fatalf("region %d: %v", id, err)
		}
	}
	ranges := engine.PartitionEdges(edges, regions)
	for i := 0; i < edges; i++ {
		err := chaos.edgeErrs[i]
		if i < ranges[1].Start && err != nil {
			t.Fatalf("surviving edge %d: %v", i, err)
		}
		if i >= ranges[1].Start && err == nil {
			t.Fatalf("orphaned edge %d finished cleanly, expected a dropped session", i)
		}
	}
	if chaos.sum.RegionResumes != nil || chaos.sum.Rebalances != nil {
		t.Errorf("degraded run reports resumes/rebalances: %+v", chaos.sum)
	}
	reason := fmt.Sprintf("deploy: region link 1 lost at slot %d", leaveSlot)
	for i := ranges[1].Start; i < edges; i++ {
		if got := chaos.sum.DownErrors[i]; got != reason {
			t.Errorf("edge %d down error = %q, want %q", i, got, reason)
		}
		if got, want := chaos.sum.Downtime[i], horizon-leaveSlot; got != want {
			t.Errorf("edge %d downtime = %d, want %d", i, got, want)
		}
	}

	// The in-process pin: same world, same controller, shard 1's steppers
	// fail with the canonical reason at the degrade slot.
	w := newParityWorld(seed)
	prices, err := market.GeneratePrices(market.DefaultPriceConfig(), horizon, numeric.SplitRNG(seed, "region-chaos-prices"))
	if err != nil {
		t.Fatal(err)
	}
	costs := make([]float64, edges)
	for i := range costs {
		costs[i] = 0.4 + 0.2*float64(i)
	}
	ctrl, err := core.New(core.Config{
		NumModels:     len(w.metas),
		DownloadCosts: costs,
		Horizon:       horizon,
		InitialCap:    0.01,
		EmissionScale: 1e-3,
		PriceScale:    prices.MeanBuy(horizon),
		Seed:          seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	shards := make([]engine.ShardStepper, regions)
	for k, rg := range ranges {
		steppers := make([]engine.EdgeStepper, rg.Count)
		for j := 0; j < rg.Count; j++ {
			i := rg.Start + j
			var es engine.EdgeStepper = &parityStepper{w: w, edge: i, rng: w.edgeRNG(i)}
			if k == 1 {
				es = &lostShardStepper{inner: es, failSlot: leaveSlot, reason: reason}
			}
			steppers[j] = es
		}
		sh, err := engine.NewShard(engine.ShardConfig{Start: rg.Start, Workers: rg.Count, Policy: engine.Degrade}, steppers)
		if err != nil {
			t.Fatal(err)
		}
		shards[k] = sh
	}
	res, err := engine.RunSharded(engine.Config{
		Name:         "deploy",
		Horizon:      horizon,
		NumModels:    len(w.metas),
		InitialCap:   0.01,
		EmissionRate: 500,
		Prices:       prices,
		SwitchCosts:  costs,
		Policy:       engine.Degrade,
	}, ctrl, shards)
	if err != nil {
		t.Fatal(err)
	}
	want := summaryFromResult(res, make([]int, edges))
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
	spec := regionChaosSpec{
		edges: 4, regions: 2, horizon: 12, seed: 49,
		policy:      engine.FailFast,
		leaveBefore: map[int]int{1: leaveSlot},
	}
	chaos := runRegionChaos(t, spec)
	if chaos.rootErr == nil {
		t.Fatal("expected the departure to abort the FailFast run")
	}
	want := fmt.Sprintf("region link 1 departed at slot %d", leaveSlot)
	if !strings.Contains(chaos.rootErr.Error(), want) {
		t.Errorf("root error %q does not name the departure %q", chaos.rootErr, want)
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
		base := regionChaosSpec{edges: edges, regions: regions, horizon: horizon, seed: seed, policy: engine.Degrade}
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
			clean := runRegionChaos(t, base)
			requireQuiet(t, clean)
			chaos := runRegionChaos(t, spec)
			requireQuiet(t, chaos)
			if !reflect.DeepEqual(stripElasticity(chaos.sum), clean.sum) {
				t.Errorf("summary diverged from the fault-free run:\n chaos: %+v\n clean: %+v",
					stripElasticity(chaos.sum), clean.sum)
			}
		})
	}
}

// TestShardDeltaReplayFoldsToCleanBytes pins the root's delta-dedup
// discipline at the unit level: duplicate, reordered, and partially
// overlapping replayed MsgShardDelta streams must fold to exactly the bytes
// of the clean stream — each slot validated and admitted once, every replay
// skipped.
func TestShardDeltaReplayFoldsToCleanBytes(t *testing.T) {
	const start, count, slots = 3, 2, 5
	mk := func(slot int) *Message {
		d := &engine.SlotDelta{Start: start}
		for j := 0; j < count; j++ {
			d.Edges = append(d.Edges, engine.EdgeDelta{
				Loss:      1.25*float64(slot) + 0.5*float64(j),
				InferLoss: float64(slot) + 0.25*float64(j),
				Compute:   0.25,
				Correct:   slot + j,
				Samples:   slot + j + 2,
				InferKWh:  1e-5 * float64(slot+1),
				Served:    true,
			})
		}
		return &Message{Type: MsgShardDelta, Slot: slot, Delta: d}
	}
	// fold replays the root's admission loop over a stream of slot numbers
	// and returns the JSON bytes of the folded sequence.
	fold := func(t *testing.T, stream []int) []byte {
		t.Helper()
		var dedup engine.SlotDeduper
		var folded []engine.SlotDelta
		for _, s := range stream {
			m := mk(s)
			slot := dedup.Next() // the slot the root is waiting on
			if m.Slot != slot && dedup.Seen(m.Slot) {
				continue // replayed duplicate of an already-folded slot
			}
			if err := ValidateDelta(m, start, count, slot); err != nil {
				t.Fatalf("slot %d: %v", s, err)
			}
			if !dedup.Admit(slot) {
				t.Fatalf("slot %d rejected by its own watermark", slot)
			}
			folded = append(folded, *m.Delta)
		}
		if got := dedup.Next(); got != slots {
			t.Fatalf("folded %d slots, want %d", got, slots)
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
