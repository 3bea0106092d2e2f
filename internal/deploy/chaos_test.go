package deploy

import (
	"fmt"
	"net"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/carbonedge/carbonedge/internal/engine"
)

// The chaos tests drive the real TCP cloud through injected connection
// faults and assert the three fault-tolerance layers end to end:
// deterministic injection (faultConn, faults_test.go), retry + session resume
// (internal/deploy), and graceful degradation (internal/engine). Every
// schedule is slot-indexed and every random choice comes from a SplitRNG
// stream, so each scenario is asserted to reproduce bit-for-bit.

// TestChaosKillResumeDeterministic is the acceptance scenario: one edge's
// connection is cut mid-run, the edge redials and resumes its session, and
// the run completes with the exact result a fault-free run produces — plus
// nonzero retry and resume counters. Two full executions must agree
// bit-for-bit.
func TestChaosKillResumeDeterministic(t *testing.T) {
	const (
		cutSlot  = 5
		hurtEdge = 1
	)
	base := fleetSpec{edges: 2, horizon: 12, seed: 21, policy: engine.Degrade, resumes: 3,
		retry: RetryConfig{Attempts: 3, resumeWait: 30 * time.Second}}
	// The hurt edge's first connection is cut while reading the assign after
	// cutSlot; every later dial is clean, so the session resumes exactly once.
	spec := base
	spec.edgeFaults = map[int]faultSchedule{hurtEdge: faultKillAt(cutSlot)}
	runOnce := func(spec fleetSpec) *Summary {
		run := runFleet(t, spec)
		requireQuiet(t, run)
		return run.sum
	}

	chaos := runOnce(spec)
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
	if again := runOnce(spec); !reflect.DeepEqual(chaos, again) {
		t.Errorf("chaos run not deterministic:\n first: %+v\n again: %+v", chaos, again)
	}

	// The resume must be observation-transparent: every accounting field
	// matches the fault-free run, only the fault counters differ.
	clean := runOnce(base)
	got := *chaos
	got.Retries, got.Resumes = clean.Retries, clean.Resumes
	if !reflect.DeepEqual(&got, clean) {
		t.Errorf("accounting diverges from the fault-free run:\n chaos: %+v\n clean: %+v", &got, clean)
	}
}

// TestChaosDeadEdgeDegrades kills one edge permanently (cut, no resume) and
// pins the graceful-degradation accounting of the real TCP deployment
// against the in-process engine running the identical failure: same
// selections, same emission series, same downtime — proving a down edge
// contributes exactly the documented fallback and nothing else.
func TestChaosDeadEdgeDegrades(t *testing.T) {
	const (
		cutSlot  = 4
		deadEdge = 1
		attempts = 2
	)
	// The edge completes cutSlot, then its read of the next assign is cut:
	// the cloud first fails at slot cutSlot+1.
	const downFrom = cutSlot + 1
	spec := fleetSpec{edges: 2, horizon: 10, seed: 33, policy: engine.Degrade,
		retry:      RetryConfig{Attempts: attempts, resumeWait: time.Millisecond},
		edgeFaults: map[int]faultSchedule{deadEdge: faultKillAt(cutSlot)}}

	runTCP := func() *Summary {
		run := runFleet(t, spec)
		if run.serveErr != nil {
			t.Fatalf("cloud.Serve: %v", run.serveErr)
		}
		if run.edgeErrs[deadEdge] == nil {
			t.Error("dead edge reported a clean run")
		}
		for i, err := range run.edgeErrs {
			if i != deadEdge && err != nil {
				t.Fatalf("surviving edge %d: %v", i, err)
			}
		}
		return run.sum
	}

	sum := runTCP()
	if got, want := sum.Downtime[deadEdge], spec.horizon-downFrom; got != want {
		t.Errorf("Downtime[%d] = %d, want %d", deadEdge, got, want)
	}
	if got, want := sum.DroppedSlots, spec.horizon-downFrom; got != want {
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
	want := reference(t, spec, func(i int, es engine.EdgeStepper) engine.EdgeStepper {
		if i != deadEdge {
			return es
		}
		return &downStepper{EdgeStepper: es, failAt: downFrom, retries: attempts, reason: sum.DownErrors[deadEdge]}
	})
	if !reflect.DeepEqual(sum, want) {
		t.Errorf("degraded accounting diverges:\n deploy: %+v\n engine: %+v", sum, want)
	}
}

// TestChaosDeadEdgeFailsFastByDefault pins that the zero-value policy keeps
// the historical semantics: the same dead edge aborts the whole run.
func TestChaosDeadEdgeFailsFastByDefault(t *testing.T) {
	run := runFleet(t, fleetSpec{edges: 2, horizon: 10, seed: 33,
		retry:      RetryConfig{Attempts: 1, resumeWait: time.Millisecond},
		edgeFaults: map[int]faultSchedule{1: faultKillAt(4)}})
	if run.serveErr == nil {
		t.Fatal("expected the run to abort under FailFast")
	}
	if !strings.Contains(run.serveErr.Error(), "retry budget exhausted") {
		t.Errorf("err = %v, want it to report the exhausted retry budget", run.serveErr)
	}
}

// TestChaosFatalEdgeErrorSkipsRetry pins the error taxonomy end to end: an
// application-level edge failure (MsgError) is fatal, so the retry budget is
// never spent on it and the edge goes down in the failing slot itself.
func TestChaosFatalEdgeErrorSkipsRetry(t *testing.T) {
	const (
		horizon  = 8
		failSlot = 3
	)
	run := runFleet(t, fleetSpec{edges: 2, horizon: horizon, seed: 5, policy: engine.Degrade,
		retry: RetryConfig{Attempts: 5, resumeWait: time.Millisecond},
		runtime: func(i int, rt Runtime) Runtime {
			if i == 1 {
				rt = &failingRuntime{Runtime: rt, failSlot: failSlot}
			}
			return rt
		}})
	if run.serveErr != nil {
		t.Fatalf("cloud.Serve: %v", run.serveErr)
	}
	sum := run.sum
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
	cloud, w := parityCloud(t, fleetSpec{edges: 1, horizon: 4, seed: 9},
		func(c *CloudConfig) { c.HandshakeTimeout = 150 * time.Millisecond })
	ln := listen(t)

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
	const horizon = 4
	cloud, w := parityCloud(t, fleetSpec{edges: 1, horizon: horizon, seed: 11}, nil)
	ln := listen(t)

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
