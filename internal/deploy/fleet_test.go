package deploy

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"github.com/carbonedge/carbonedge/internal/engine"
	"github.com/carbonedge/carbonedge/internal/market"
	"github.com/carbonedge/carbonedge/internal/numeric"
)

// The fleet harness: every test that serves real edges goes through one
// spec, runFleet, over loopback TCP — a Cloud on one listener, or a Root
// plus regional coordinators with one listener each — with deterministic
// fault schedules on any link: connections cut between slots, frames torn
// mid-body, graceful departures with mid-run shard rebalancing, standby
// coordinators adopting orphaned shards, and quorum-loss degradation. Every
// edge runs RunEdgeResumable and every coordinator RunRegionResumable, the
// entry points the binaries run. Its in-process twin is reference: the same
// world through the engine, with the controller NewCloud and NewRoot build.

// fleetSpec parameterizes one served run of the parity world.
type fleetSpec struct {
	// regions == 0 serves the fleet through one Cloud; otherwise a Root
	// serves that many coordinators, each admitting its shard's edges.
	edges, regions, horizon int
	seed                    int64
	policy                  engine.ErrorPolicy
	// resumes is every edge's and coordinator's resume budget: 0 serves each
	// on one connection.
	resumes int
	quorum  int
	target  func(shard int, live []int) int
	// retry configures the cloud or the root; zero selects
	// defaultChaosRetry, which every coordinator that regionRetries does not
	// list runs too.
	retry         RetryConfig
	regionRetries map[int]RetryConfig

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
	// edgeFaults wraps an edge's first connection in a faultConn with the
	// given schedule. The edge redials its home listener once per scheduled
	// event, and those redials are clean.
	edgeFaults map[int]faultSchedule
	// adoptTo names the listener a departed coordinator's released edges
	// redial (the expected adopter). Absent means nobody adopts the shard —
	// its edges are expected to fail.
	adoptTo map[int]int
	// onSlot, when non-nil, runs in every coordinator's OnSlot hook, before
	// the slot is served: a schedule's way to order events across regions.
	onSlot func(root *Root, region, slot int)
	// tap, when non-nil, wraps every connection a coordinator or an edge
	// dials, over any fault injector: it sees whole frames written.
	tap func(net.Conn) net.Conn
	// runtime, when non-nil, wraps or replaces edge i's parity runtime.
	runtime func(i int, rt Runtime) Runtime
	// source, when non-nil, serves the models in place of the parity world.
	source ModelSource
}

// config is the cloud configuration of the spec's world. The Root is built
// from the same values.
func (spec fleetSpec) config(t *testing.T) CloudConfig {
	t.Helper()
	prices, err := market.GeneratePrices(market.DefaultPriceConfig(), spec.horizon, numeric.SplitRNG(spec.seed, "parity-prices"))
	if err != nil {
		t.Fatal(err)
	}
	costs := make([]float64, spec.edges)
	for i := range costs {
		costs[i] = 0.4 + 0.2*float64(i)
	}
	return CloudConfig{
		Edges:         spec.edges,
		Horizon:       spec.horizon,
		DownloadCosts: costs,
		InitialCap:    0.01,
		EmissionRate:  500,
		Prices:        prices,
		EmissionScale: 1e-3,
		Seed:          spec.seed,
		Retry:         spec.retry,
		Policy:        spec.policy,
	}
}

// parityCloud builds the cloud of the spec's world for a test that drives
// its own clients; adjust, when set, edits the configuration first.
func parityCloud(t *testing.T, spec fleetSpec, adjust func(*CloudConfig)) (*Cloud, *parityWorld) {
	t.Helper()
	w := newParityWorld(spec.seed)
	cfg := spec.config(t)
	if adjust != nil {
		adjust(&cfg)
	}
	cloud, err := NewCloud(cfg, &paritySource{w: w})
	if err != nil {
		t.Fatal(err)
	}
	return cloud, w
}

// tapped wraps what dial returns in spec.tap, when one is set.
func (spec fleetSpec) tapped(dial func() (net.Conn, error)) func() (net.Conn, error) {
	if spec.tap == nil {
		return dial
	}
	return func() (net.Conn, error) {
		conn, err := dial()
		if err != nil {
			return nil, err
		}
		return spec.tap(conn), nil
	}
}

// fleetRun is everything one harness run observed.
type fleetRun struct {
	sum        *Summary
	serveErr   error
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

// listen opens a loopback listener that is closed when the test ends.
func listen(t *testing.T) net.Listener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	return ln
}

// chaosRuntime arms the fault injector's slot index as slots begin serving
// on the edge, so schedules fire relative to protocol progress, not wall
// time.
type chaosRuntime struct {
	Runtime
	mu sync.Mutex
	fc *faultConn
}

func (r *chaosRuntime) setConn(fc *faultConn) {
	r.mu.Lock()
	r.fc = fc
	r.mu.Unlock()
}

func (r *chaosRuntime) RunSlot(slot, modelID int) (SlotReport, error) {
	r.mu.Lock()
	if r.fc != nil {
		r.fc.SetSlot(slot)
	}
	r.mu.Unlock()
	return r.Runtime.RunSlot(slot, modelID)
}

// runFleet drives one full deployment under the spec's fault schedule and
// returns everything it observed. Error assertions are the caller's: which
// errors are expected depends on the schedule. Backoff replays with zero
// wall clock.
func runFleet(t *testing.T, spec fleetSpec) *fleetRun {
	t.Helper()
	if spec.retry == (RetryConfig{}) {
		spec.retry = defaultChaosRetry()
	}
	w := newParityWorld(spec.seed)
	source := spec.source
	if source == nil {
		source = &paritySource{w: w}
	}
	cfg := spec.config(t)
	serveLn := listen(t)
	noSleep := func(time.Duration) {}

	// homes[id] is the listener the edges of shard id dial; gone[id] closes
	// once its coordinator has ended.
	homes := map[int]net.Listener{}
	gone := map[int]chan struct{}{}
	var serve func(net.Listener) (*Summary, error)
	var root *Root
	var ids []int
	if spec.regions == 0 {
		cloud, err := NewCloud(cfg, source)
		if err != nil {
			t.Fatal(err)
		}
		cloud.retry.sleep = noSleep
		serve, homes[0] = cloud.Serve, serveLn
	} else {
		var err error
		root, err = NewRoot(RootConfig{
			Edges:         cfg.Edges,
			Regions:       spec.regions,
			Horizon:       cfg.Horizon,
			DownloadCosts: cfg.DownloadCosts,
			InitialCap:    cfg.InitialCap,
			EmissionRate:  cfg.EmissionRate,
			Prices:        cfg.Prices,
			EmissionScale: cfg.EmissionScale,
			Seed:          cfg.Seed,
			NumModels:     source.NumModels(),
			Policy:        cfg.Policy,
			Retry:         cfg.Retry,
			RegionQuorum:  spec.quorum,
		})
		if err != nil {
			t.Fatal(err)
		}
		root.retry.sleep = noSleep
		root.rebalanceTarget = spec.target
		serve = root.Serve
		for r := 0; r < spec.regions; r++ {
			ids = append(ids, r)
		}
		ids = append(ids, spec.spares...)
		for _, id := range ids {
			homes[id] = listen(t)
			gone[id] = make(chan struct{})
		}
	}

	out := &fleetRun{
		regionErrs: make(map[int]error, len(ids)),
		edgeErrs:   make([]error, spec.edges),
	}
	var regionMu sync.Mutex
	var wg sync.WaitGroup
	for _, id := range ids {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var fcMu sync.Mutex
			var fc *faultConn
			sched := spec.upstreamFaults[id]
			dials := 0
			dial := func() (net.Conn, error) {
				conn, err := net.Dial("tcp", serveLn.Addr().String())
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
			retry, ok := spec.regionRetries[id]
			if !ok {
				retry = defaultChaosRetry()
			}
			err := RunRegionResumable(spec.tapped(dial), homes[id], RegionConfig{
				RegionID:        id,
				Source:          source,
				Seed:            spec.seed + int64(id),
				Retry:           retry,
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
			}, spec.resumes)
			// Stop accepting edges before announcing the coordinator gone: a
			// released edge that redials a closed listener fails fast instead
			// of sitting unanswered in the accept backlog.
			homes[id].Close()
			close(gone[id])
			regionMu.Lock()
			out.regionErrs[id] = err
			regionMu.Unlock()
		}()
	}

	for home, rg := range engine.PartitionEdges(spec.edges, max(spec.regions, 1)) {
		for i := rg.Start; i < rg.Start+rg.Count; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				var base Runtime = &parityRuntime{w: w, edge: i, rng: w.edgeRNG(i)}
				if spec.runtime != nil {
					base = spec.runtime(i, base)
				}
				rt := &chaosRuntime{Runtime: base}
				sched := spec.edgeFaults[i]
				dials := 0
				dial := func() (net.Conn, error) {
					dials++
					ln := homes[home]
					if dials > 1+len(sched) && spec.regions > 0 {
						// Past its own faults, an edge only redials because its
						// home coordinator released it: wait out the departure,
						// then follow the shard to its adopter, which holds the
						// resume until the adopt frame installs the shard.
						<-gone[home]
						adopter, ok := spec.adoptTo[home]
						if !ok {
							return nil, fmt.Errorf("edge %d: home region %d left and nobody adopted its shard", i, home)
						}
						ln = homes[adopter]
					}
					conn, err := net.Dial("tcp", ln.Addr().String())
					if err != nil || dials > 1 || len(sched) == 0 {
						rt.setConn(nil)
						return conn, err
					}
					fc, err := newFaultConn(conn, sched, numeric.SplitRNG(spec.seed, fmt.Sprintf("region-chaos-edge-fault-%d", i)), noSleep)
					if err != nil {
						conn.Close()
						return nil, err
					}
					rt.setConn(fc)
					return fc, nil
				}
				out.edgeErrs[i] = RunEdgeResumable(spec.tapped(dial), i, rt, spec.resumes)
			}()
		}
	}

	out.sum, out.serveErr = serve(serveLn)
	wg.Wait()
	return out
}

// requireQuiet asserts the run completed with no serving, region, or edge
// errors.
func requireQuiet(t *testing.T, run *fleetRun) {
	t.Helper()
	if run.serveErr != nil {
		t.Fatalf("Serve: %v", run.serveErr)
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

// downStepper fails like an edge that went down: it serves normally until
// failAt, then fails every slot with reason, reporting the retries the TCP
// stepper burned on it.
type downStepper struct {
	engine.EdgeStepper
	failAt, retries int
	reason          string
}

func (s *downStepper) Step(slot, arm int, download bool) (engine.Observation, error) {
	if slot >= s.failAt {
		return engine.Observation{Retries: s.retries}, errors.New(s.reason)
	}
	return s.EdgeStepper.Step(slot, arm, download)
}

// reference runs the spec's world in process: the controller NewCloud and
// NewRoot build, stepping one shard of parity steppers per region (one for
// a cloud), each passed through wrap when it is set. It returns the Summary
// of a served run that no edge resumed.
func reference(t *testing.T, spec fleetSpec, wrap func(i int, es engine.EdgeStepper) engine.EdgeStepper) *Summary {
	t.Helper()
	w := newParityWorld(spec.seed)
	c, err := newController(spec.config(t), len(w.metas))
	if err != nil {
		t.Fatal(err)
	}
	ranges := engine.PartitionEdges(spec.edges, max(spec.regions, 1))
	shards := make([]engine.ShardStepper, len(ranges))
	for k, rg := range ranges {
		steppers := make([]engine.EdgeStepper, rg.Count)
		for j := range steppers {
			i := rg.Start + j
			steppers[j] = &parityStepper{w: w, edge: i, rng: w.edgeRNG(i)}
			if wrap != nil {
				steppers[j] = wrap(i, steppers[j])
			}
		}
		if shards[k], err = engine.NewShard(engine.ShardConfig{Start: rg.Start, Workers: rg.Count, Policy: spec.policy}, steppers); err != nil {
			t.Fatal(err)
		}
	}
	res, err := engine.RunSharded(c.ecfg, c.ctrl, shards)
	if err != nil {
		t.Fatal(err)
	}
	return summaryFromResult(res, make([]int, spec.edges))
}

// chanListener serves pre-made in-memory connections: Accept drains them,
// then blocks until Close.
type chanListener struct {
	conns chan net.Conn
	done  chan struct{}
	once  sync.Once
}

func newChanListener(conns ...net.Conn) *chanListener {
	l := &chanListener{conns: make(chan net.Conn, len(conns)), done: make(chan struct{})}
	for _, c := range conns {
		l.conns <- c
	}
	return l
}

func (l *chanListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

func (l *chanListener) Close() error {
	l.once.Do(func() { close(l.done) })
	return nil
}

func (l *chanListener) Addr() net.Addr { return &net.IPAddr{} }
