package deploy

import (
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

// The chaos tests drive the real TCP cloud through injected connection
// faults and assert the three fault-tolerance layers end to end:
// deterministic injection (faultConn, faults_test.go), retry + session resume
// (internal/deploy), and graceful degradation (internal/engine). Every
// schedule is slot-indexed and every random choice comes from a SplitRNG
// stream, so each scenario is asserted to reproduce bit-for-bit.

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

// chaosCloud builds a parity-world cloud with the given fault-tolerance
// configuration and a no-op backoff sleeper (delays stay in the schedule;
// the test does not pay them in wall time). Each adjust edits the
// configuration before the cloud is built.
func chaosCloud(t *testing.T, w *parityWorld, edges, horizon int, seed int64, retry RetryConfig, policy engine.ErrorPolicy, adjust ...func(*CloudConfig)) (*Cloud, *market.Prices) {
	t.Helper()
	prices, err := market.GeneratePrices(market.DefaultPriceConfig(), horizon, numeric.SplitRNG(seed, "chaos-prices"))
	if err != nil {
		t.Fatal(err)
	}
	downloadCosts := make([]float64, edges)
	for i := range downloadCosts {
		downloadCosts[i] = 0.4 + 0.2*float64(i)
	}
	cfg := CloudConfig{
		Edges:         edges,
		Horizon:       horizon,
		DownloadCosts: downloadCosts,
		InitialCap:    0.01,
		EmissionRate:  500,
		Prices:        prices,
		EmissionScale: 1e-3,
		Seed:          seed,
		Retry:         retry,
		Policy:        policy,
	}
	for _, f := range adjust {
		f(&cfg)
	}
	cloud, err := NewCloud(cfg, &paritySource{w: w})
	if err != nil {
		t.Fatal(err)
	}
	cloud.retry.sleep = func(time.Duration) {} // deterministic: no wall-clock backoff
	return cloud, prices
}

// TestChaosKillResumeDeterministic is the acceptance scenario: one edge's
// connection is cut mid-run, the edge redials and resumes its session, and
// the run completes with the exact result a fault-free run produces — plus
// nonzero retry and resume counters. Two full executions must agree
// bit-for-bit.
func TestChaosKillResumeDeterministic(t *testing.T) {
	const (
		edges    = 2
		horizon  = 12
		seed     = int64(21)
		cutSlot  = 5
		hurtEdge = 1
	)

	runOnce := func(inject bool) *Summary {
		w := newParityWorld(seed)
		cloud, _ := chaosCloud(t, w, edges, horizon, seed,
			RetryConfig{Attempts: 3, resumeWait: 30 * time.Second}, engine.Degrade)
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()

		var wg sync.WaitGroup
		edgeErrs := make([]error, edges)
		for i := 0; i < edges; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				rt := &parityRuntime{w: w, edge: i, rng: w.edgeRNG(i)}
				if i != hurtEdge || !inject {
					conn, err := net.Dial("tcp", ln.Addr().String())
					if err != nil {
						edgeErrs[i] = err
						return
					}
					defer conn.Close()
					edgeErrs[i] = RunEdge(conn, i, rt)
					return
				}
				// The hurt edge: its first connection is cut while reading the
				// assign after cutSlot; every later dial is clean, so the
				// session resumes exactly once.
				crt := &chaosRuntime{Runtime: rt}
				dials := 0
				dial := func() (net.Conn, error) {
					conn, err := net.Dial("tcp", ln.Addr().String())
					if err != nil {
						return nil, err
					}
					dials++
					if dials > 1 {
						crt.setConn(nil)
						return conn, nil
					}
					fc, err := newFaultConn(conn, faultSchedule{{Slot: cutSlot, Kind: faultCutRead}},
						numeric.SplitRNG(seed, "chaos-fault"), func(time.Duration) {})
					if err != nil {
						conn.Close()
						return nil, err
					}
					crt.setConn(fc)
					return fc, nil
				}
				edgeErrs[i] = RunEdgeResumable(dial, i, crt, 3)
			}(i)
		}

		sum, err := cloud.Serve(ln)
		if err != nil {
			t.Fatalf("cloud.Serve: %v", err)
		}
		wg.Wait()
		for i, err := range edgeErrs {
			if err != nil {
				t.Fatalf("edge %d: %v", i, err)
			}
		}
		return sum
	}

	chaos := runOnce(true)
	if chaos.DroppedSlots != 0 {
		t.Errorf("DroppedSlots = %d, want 0 (the resume healed the cut)", chaos.DroppedSlots)
	}
	if chaos.Retries[hurtEdge] == 0 {
		t.Error("hurt edge burned no retries despite the cut")
	}
	if got, want := chaos.Resumes, []int{0, 1}; !reflect.DeepEqual(got, want) {
		t.Errorf("Resumes = %v, want %v", got, want)
	}
	for i, d := range chaos.Downtime {
		if d != 0 {
			t.Errorf("Downtime[%d] = %d, want 0", i, d)
		}
	}

	// Same seed, same schedule: the whole summary must reproduce exactly.
	if again := runOnce(true); !reflect.DeepEqual(chaos, again) {
		t.Errorf("chaos run not deterministic:\n first: %+v\n again: %+v", chaos, again)
	}

	// The resume must be observation-transparent: every accounting field
	// matches the fault-free run (only the fault counters differ).
	clean := runOnce(false)
	if !reflect.DeepEqual(chaos.Selections, clean.Selections) {
		t.Errorf("selections diverge from fault-free run:\n chaos: %v\n clean: %v", chaos.Selections, clean.Selections)
	}
	if !reflect.DeepEqual(chaos.Emissions, clean.Emissions) {
		t.Error("emission series diverge from fault-free run")
	}
	if !reflect.DeepEqual(chaos.Decisions, clean.Decisions) {
		t.Error("trade decisions diverge from fault-free run")
	}
	if chaos.ObservedLoss != clean.ObservedLoss || chaos.TradingCost != clean.TradingCost ||
		chaos.Fit != clean.Fit || chaos.Switches != clean.Switches || chaos.Accuracy != clean.Accuracy {
		t.Error("scalar accounting diverges from fault-free run")
	}
}

// deadStepper mirrors the in-process side of a permanently dead edge: it
// serves the parity observations until failAt, then fails every slot,
// reporting the retry budget the TCP stepper would have burned.
type deadStepper struct {
	*parityStepper
	failAt  int
	retries int
}

func (s *deadStepper) Step(slot, arm int, download bool) (engine.Observation, error) {
	if slot >= s.failAt {
		return engine.Observation{Retries: s.retries}, fmt.Errorf("edge dead")
	}
	return s.parityStepper.Step(slot, arm, download)
}

// TestChaosDeadEdgeDegrades kills one edge permanently (cut, no resume) and
// pins the graceful-degradation accounting of the real TCP deployment
// against the in-process engine running the identical failure: same
// selections, same emission series, same downtime — proving a down edge
// contributes exactly the documented fallback and nothing else.
func TestChaosDeadEdgeDegrades(t *testing.T) {
	const (
		edges    = 2
		horizon  = 10
		seed     = int64(33)
		cutSlot  = 4
		deadEdge = 1
		attempts = 2
	)
	// The edge completes cutSlot, then its read of the next assign is cut:
	// the cloud first fails at slot cutSlot+1.
	const downFrom = cutSlot + 1

	runTCP := func() *Summary {
		w := newParityWorld(seed)
		cloud, _ := chaosCloud(t, w, edges, horizon, seed,
			RetryConfig{Attempts: attempts, resumeWait: time.Millisecond}, engine.Degrade)
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()

		var wg sync.WaitGroup
		edgeErrs := make([]error, edges)
		for i := 0; i < edges; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				conn, err := net.Dial("tcp", ln.Addr().String())
				if err != nil {
					edgeErrs[i] = err
					return
				}
				defer conn.Close()
				rt := &parityRuntime{w: w, edge: i, rng: w.edgeRNG(i)}
				if i != deadEdge {
					edgeErrs[i] = RunEdge(conn, i, rt)
					return
				}
				crt := &chaosRuntime{Runtime: rt}
				fc, err := newFaultConn(conn, faultSchedule{{Slot: cutSlot, Kind: faultCutRead}},
					numeric.SplitRNG(seed, "chaos-dead"), func(time.Duration) {})
				if err != nil {
					edgeErrs[i] = err
					return
				}
				crt.setConn(fc)
				// No resume: the edge dies with the connection.
				edgeErrs[i] = RunEdge(fc, i, crt)
			}(i)
		}
		sum, err := cloud.Serve(ln)
		if err != nil {
			t.Fatalf("cloud.Serve: %v", err)
		}
		wg.Wait()
		if edgeErrs[deadEdge] == nil {
			t.Error("dead edge reported a clean run")
		}
		for i, err := range edgeErrs {
			if i != deadEdge && err != nil {
				t.Fatalf("surviving edge %d: %v", i, err)
			}
		}
		return sum
	}

	sum := runTCP()
	if got, want := sum.Downtime[deadEdge], horizon-downFrom; got != want {
		t.Errorf("Downtime[%d] = %d, want %d", deadEdge, got, want)
	}
	if got, want := sum.DroppedSlots, horizon-downFrom; got != want {
		t.Errorf("DroppedSlots = %d, want %d", got, want)
	}
	if got := sum.Retries[deadEdge]; got != attempts {
		t.Errorf("Retries[%d] = %d, want the whole budget %d", deadEdge, got, attempts)
	}
	if sum.DownErrors[deadEdge] == "" {
		t.Error("no down error recorded for the dead edge")
	}
	if sum.DownErrors[0] != "" || sum.Downtime[0] != 0 {
		t.Error("surviving edge shows fault accounting")
	}
	served := 0
	for _, c := range sum.Selections[deadEdge] {
		served += c
	}
	if served != downFrom {
		t.Errorf("dead edge served %d slots in Selections, want %d", served, downFrom)
	}

	// Determinism: the whole summary reproduces.
	if again := runTCP(); !reflect.DeepEqual(sum, again) {
		t.Errorf("degraded run not deterministic:\n first: %+v\n again: %+v", sum, again)
	}

	// Engine parity: the in-process engine with the identical failure under
	// Degrade must produce the identical accounting.
	w := newParityWorld(seed)
	_, prices := chaosCloud(t, w, edges, horizon, seed, RetryConfig{}, engine.Degrade)
	downloadCosts := []float64{0.4, 0.6}
	avgPrice := 0.0
	for t2 := 0; t2 < horizon; t2++ {
		avgPrice += prices.Buy[t2]
	}
	avgPrice /= float64(horizon)
	ctrl, err := core.New(core.Config{
		NumModels:     len(w.metas),
		DownloadCosts: downloadCosts,
		Horizon:       horizon,
		InitialCap:    0.01,
		EmissionScale: 1e-3,
		PriceScale:    avgPrice,
		Seed:          seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	steppers := make([]engine.EdgeStepper, edges)
	for i := range steppers {
		ps := &parityStepper{w: w, edge: i, rng: w.edgeRNG(i)}
		if i == deadEdge {
			steppers[i] = &deadStepper{parityStepper: ps, failAt: downFrom, retries: attempts}
		} else {
			steppers[i] = ps
		}
	}
	res, err := engine.Run(engine.Config{
		Name:         "chaos-local",
		Horizon:      horizon,
		NumModels:    len(w.metas),
		InitialCap:   0.01,
		EmissionRate: 500,
		Prices:       prices,
		SwitchCosts:  downloadCosts,
		Workers:      edges,
		Policy:       engine.Degrade,
	}, ctrl, steppers)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Selections, sum.Selections) {
		t.Errorf("degraded selections diverge:\n engine: %v\n deploy: %v", res.Selections, sum.Selections)
	}
	if !reflect.DeepEqual(res.Emissions, sum.Emissions) {
		t.Error("degraded emission series diverge")
	}
	if !reflect.DeepEqual(res.Decisions, sum.Decisions) {
		t.Error("degraded trade decisions diverge")
	}
	if !reflect.DeepEqual(res.Downtime, sum.Downtime) || res.DroppedSlots != sum.DroppedSlots {
		t.Error("downtime accounting diverges")
	}
	if sum.Fit != res.Fit || sum.Switches != res.Switches || sum.Accuracy != res.OverallAccuracy {
		t.Error("scalar accounting diverges between engine and deploy degradation")
	}
}

// TestChaosDeadEdgeFailsFastByDefault pins that the zero-value policy keeps
// the historical semantics: the same dead edge aborts the whole run.
func TestChaosDeadEdgeFailsFastByDefault(t *testing.T) {
	const (
		edges   = 2
		horizon = 10
		seed    = int64(33)
		cutSlot = 4
	)
	w := newParityWorld(seed)
	cloud, _ := chaosCloud(t, w, edges, horizon, seed,
		RetryConfig{Attempts: 1, resumeWait: time.Millisecond}, engine.FailFast)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	var wg sync.WaitGroup
	for i := 0; i < edges; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			conn, err := net.Dial("tcp", ln.Addr().String())
			if err != nil {
				return
			}
			defer conn.Close()
			rt := &parityRuntime{w: w, edge: i, rng: w.edgeRNG(i)}
			if i != 1 {
				_ = RunEdge(conn, i, rt) // aborted by the cloud; error expected
				return
			}
			crt := &chaosRuntime{Runtime: rt}
			fc, err := newFaultConn(conn, faultSchedule{{Slot: cutSlot, Kind: faultCutRead}},
				numeric.SplitRNG(seed, "chaos-ff"), func(time.Duration) {})
			if err != nil {
				return
			}
			crt.setConn(fc)
			_ = RunEdge(fc, i, crt)
		}(i)
	}
	_, err = cloud.Serve(ln)
	wg.Wait()
	if err == nil {
		t.Fatal("expected the run to abort under FailFast")
	}
	if !strings.Contains(err.Error(), "retry budget exhausted") {
		t.Errorf("err = %v, want it to report the exhausted retry budget", err)
	}
}

// TestChaosFatalEdgeErrorSkipsRetry pins the error taxonomy end to end: an
// application-level edge failure (MsgError) is fatal, so the retry budget is
// never spent on it and the edge goes down in the failing slot itself.
func TestChaosFatalEdgeErrorSkipsRetry(t *testing.T) {
	const (
		edges    = 2
		horizon  = 8
		seed     = int64(5)
		failSlot = 3
	)
	w := newParityWorld(seed)
	cloud, _ := chaosCloud(t, w, edges, horizon, seed,
		RetryConfig{Attempts: 5, resumeWait: time.Millisecond}, engine.Degrade)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	var wg sync.WaitGroup
	for i := 0; i < edges; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			conn, err := net.Dial("tcp", ln.Addr().String())
			if err != nil {
				return
			}
			defer conn.Close()
			rt := Runtime(&parityRuntime{w: w, edge: i, rng: w.edgeRNG(i)})
			if i == 1 {
				rt = &failingRuntime{Runtime: rt, failSlot: failSlot}
			}
			_ = RunEdge(conn, i, rt)
		}(i)
	}
	sum, err := cloud.Serve(ln)
	if err != nil {
		t.Fatalf("cloud.Serve: %v", err)
	}
	wg.Wait()
	if got := sum.Retries[1]; got != 0 {
		t.Errorf("Retries[1] = %d, want 0: fatal errors must not consume the retry budget", got)
	}
	if got, want := sum.Downtime[1], horizon-failSlot; got != want {
		t.Errorf("Downtime[1] = %d, want %d (down in the failing slot itself)", got, want)
	}
	if !strings.Contains(sum.DownErrors[1], "edge 1 failed") {
		t.Errorf("DownErrors[1] = %q, want the EdgeError taxonomy", sum.DownErrors[1])
	}
}

// failingRuntime reports an application failure at one slot.
type failingRuntime struct {
	Runtime
	failSlot int
}

func (r *failingRuntime) RunSlot(slot, modelID int) (SlotReport, error) {
	if slot == r.failSlot {
		return SlotReport{}, fmt.Errorf("sensor offline")
	}
	return r.Runtime.RunSlot(slot, modelID)
}

// TestCloudHandshakeTimeoutRejectsSilentClient pins the bounded handshake: a
// client that connects and never speaks is dropped at the deadline while the
// real fleet proceeds, so Serve cannot be wedged by a silent dialer.
func TestCloudHandshakeTimeoutRejectsSilentClient(t *testing.T) {
	const (
		edges   = 1
		horizon = 4
		seed    = int64(9)
	)
	w := newParityWorld(seed)
	cloud, _ := chaosCloud(t, w, edges, horizon, seed, RetryConfig{}, engine.FailFast,
		func(c *CloudConfig) { c.HandshakeTimeout = 150 * time.Millisecond })
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	// The silent client connects first and never sends a byte.
	silent, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer silent.Close()

	done := make(chan error, 1)
	go func() {
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			done <- err
			return
		}
		defer conn.Close()
		done <- RunEdge(conn, 0, &parityRuntime{w: w, edge: 0, rng: w.edgeRNG(0)})
	}()

	serveDone := make(chan error, 1)
	go func() {
		_, err := cloud.Serve(ln)
		serveDone <- err
	}()
	select {
	case err := <-serveDone:
		if err != nil {
			t.Fatalf("cloud.Serve: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Serve wedged by a silent client")
	}
	if err := <-done; err != nil {
		t.Fatalf("edge: %v", err)
	}
	// The deadline must have closed the silent connection.
	silent.SetReadDeadline(time.Now().Add(5 * time.Second)) //nolint:errcheck
	if _, err := silent.Read(make([]byte, 1)); err == nil {
		t.Error("silent connection still open after the handshake deadline")
	}
}

// TestCloudRejectsBadHandshakes covers admission hardening: bad edge ids,
// forged resume tokens, and duplicate initial connections are rejected with
// a typed MsgError while the real fleet completes undisturbed.
func TestCloudRejectsBadHandshakes(t *testing.T) {
	const (
		edges   = 1
		horizon = 4
		seed    = int64(11)
	)
	w := newParityWorld(seed)
	cloud, _ := chaosCloud(t, w, edges, horizon, seed, RetryConfig{}, engine.FailFast)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	expectRejected := func(hello *Message, wantFrag string) {
		t.Helper()
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		if err := WriteMessage(conn, hello); err != nil {
			t.Fatal(err)
		}
		reply, err := ReadMessage(conn)
		if err != nil {
			t.Fatalf("no rejection reply: %v", err)
		}
		if reply.Type != MsgError || !strings.Contains(reply.Reason, wantFrag) {
			t.Errorf("reply = %+v, want MsgError mentioning %q", reply, wantFrag)
		}
	}

	edgeDone := make(chan error, 1)
	serveDone := make(chan error, 1)
	go func() {
		_, err := cloud.Serve(ln)
		serveDone <- err
	}()

	// Rejections racing admission of the real edge must not disturb it.
	expectRejected(&Message{Type: MsgHello, EdgeID: 7}, "bad edge id")
	expectRejected(&Message{Type: MsgHello, EdgeID: 0, Resume: true, ResumeToken: "forged"}, "bad resume token")
	expectRejected(&Message{Type: MsgDone}, "expected Hello")
	// Resume tokens are deterministic from the seed: an edge process left over
	// from an earlier run of the same seed holds a valid one. It has no
	// session here to resume, and taking its connection for edge 0's would
	// leave Serve waiting for an initial admission that never comes.
	expectRejected(&Message{Type: MsgHello, EdgeID: 0, Resume: true, ResumeToken: cloud.linkFor(0).token}, "edge id 0 never joined")

	// The real edge parks in its last slot until released, so the duplicate
	// probe below is guaranteed to race an in-progress run, not a finished
	// one.
	release := make(chan struct{})
	go func() {
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			edgeDone <- err
			return
		}
		defer conn.Close()
		rt := &gatedRuntime{
			Runtime:  &parityRuntime{w: w, edge: 0, rng: w.edgeRNG(0)},
			gateSlot: horizon - 1,
			release:  release,
		}
		edgeDone <- RunEdge(conn, 0, rt)
	}()
	// Wait for the real edge to claim its slot, then try to steal it.
	deadline := time.Now().Add(5 * time.Second)
	for {
		link := cloud.linkFor(0)
		link.mu.Lock()
		claimed := link.claimed
		link.mu.Unlock()
		if claimed {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("real edge never claimed its slot")
		}
		time.Sleep(time.Millisecond)
	}
	expectRejected(&Message{Type: MsgHello, EdgeID: 0}, "duplicate edge id")
	close(release)

	if err := <-serveDone; err != nil {
		t.Fatalf("cloud.Serve: %v", err)
	}
	if err := <-edgeDone; err != nil {
		t.Fatalf("edge: %v", err)
	}
}

// gatedRuntime parks one slot until released, holding a run open.
type gatedRuntime struct {
	Runtime
	gateSlot int
	release  <-chan struct{}
}

func (r *gatedRuntime) RunSlot(slot, modelID int) (SlotReport, error) {
	if slot == r.gateSlot {
		<-r.release
	}
	return r.Runtime.RunSlot(slot, modelID)
}
