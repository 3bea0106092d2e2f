package deploy

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"github.com/carbonedge/carbonedge/internal/energy"
	"github.com/carbonedge/carbonedge/internal/engine"
	"github.com/carbonedge/carbonedge/internal/numeric"
)

// fleetConfig parameterizes an edgeFleet: the TCP-facing machinery that
// admits contiguous ranges of edge sessions, carries their connections
// across drops, and exchanges per-slot assignments for reports.
//
// It is the deployment-transport subset of CloudConfig, factored out so both
// the monolithic Cloud (offset 0, the whole fleet) and a regional
// coordinator (offset = the region's shard start) drive identical admission,
// resume, retry, and exchange code.
type fleetConfig struct {
	// count is the number of edges this fleet initially admits; offset is the
	// global id of its first edge: the fleet starts serving global edge ids
	// [offset, offset+count). count may be 0 for a standby fleet that gains
	// its ranges only through mid-run shard adoption.
	count  int
	offset int
	// horizon bounds the resume-position plausibility check.
	horizon int
	// seed drives the resume-token issue and the deterministic backoff
	// jitter streams.
	seed int64
	// timeouts returns the current handshake and slot deadlines (the owner's
	// CloudConfig/RegionConfig fields). It is consulted per use, not
	// snapshotted, preserving the historical behavior that owners may adjust
	// the deadlines between construction and serving.
	timeouts func() (handshake, slot time.Duration)
	// retry is the per-slot transient-failure budget.
	retry RetryConfig
}

// fleetRange is one contiguous block of edge links the fleet serves: the
// initial range from fleetConfig, plus one per adopted shard. Tokens and
// jitter streams are derived from the range's own seed — for an adopted
// range that is the original owner's fleet seed, so the edges' existing
// resume tokens keep verifying.
type fleetRange struct {
	offset int
	seed   int64
	links  []*edgeLink
}

// edgeFleet owns the cloud-side state of the edge sessions it serves: one
// edgeLink per edge (grouped into contiguous ranges), the acceptor that
// admits initial and resumed connections into the links, and the tcpSteppers
// that consume them.
type edgeFleet struct {
	fcfg   fleetConfig
	source ModelSource

	// mu guards ranges: the acceptor reads them concurrently with mid-run
	// adoptions appending new ones.
	mu     sync.RWMutex
	ranges []*fleetRange

	// initial and acceptErr carry initial-admission progress from the
	// acceptor to awaitInitial.
	initial   chan int
	acceptErr chan error

	// sleep performs retry backoff; injectable so chaos tests replay with
	// zero wall time. Defaults to time.Sleep.
	sleep func(time.Duration)
	// done flips once the run is over: the acceptor stops admitting.
	done atomic.Bool
}

// newEdgeFleet builds the fleet's initial links with deterministic resume
// tokens. The caller validates the configuration (see NewCloud / RunRegion).
func newEdgeFleet(cfg fleetConfig, source ModelSource) *edgeFleet {
	f := &edgeFleet{
		fcfg:      cfg,
		source:    source,
		initial:   make(chan int, cfg.count+1),
		acceptErr: make(chan error, 1),
	}
	f.ranges = []*fleetRange{{
		offset: cfg.offset,
		seed:   cfg.seed,
		links:  buildLinks(cfg.offset, cfg.count, cfg.seed, false),
	}}
	//lint:allow nodeterm retry backoff is real wall-clock waiting; chaos tests inject a zero-time sleep
	f.sleep = time.Sleep
	return f
}

// buildLinks derives a contiguous range's links. Resume tokens are
// deterministic from the seed: they bind a redialing connection to the
// session it claims (mis-binding protection inside a trusted deployment),
// not an authentication secret — which is also what lets an adopting
// coordinator reconstruct an orphaned range's tokens from the original
// fleet seed instead of having them shipped.
func buildLinks(offset, count int, seed int64, claimed bool) []*edgeLink {
	tokenRNG := numeric.SplitRNG(seed, "deploy-resume-token")
	links := make([]*edgeLink, count)
	for i := range links {
		links[i] = &edgeLink{
			id:       offset + i,
			token:    fmt.Sprintf("%016x-%02d", tokenRNG.Uint64(), i),
			incoming: make(chan *wireConn, 1),
			claimed:  claimed,
		}
	}
	return links
}

// linkFor resolves a global edge id to its link, or nil when the fleet does
// not (yet) serve it.
func (f *edgeFleet) linkFor(id int) *edgeLink {
	f.mu.RLock()
	defer f.mu.RUnlock()
	for _, rg := range f.ranges {
		if local := id - rg.offset; local >= 0 && local < len(rg.links) {
			return rg.links[local]
		}
	}
	return nil
}

// adopt installs an orphaned shard's range mid-run from its checkpoint: the
// links are rebuilt with the original fleet's tokens (derived from
// ck.FleetSeed) and pre-claimed, so the shard's edges are admitted through
// the resume path only — exactly the state they are in. It returns the
// range's steppers, with each edge's backoff jitter stream fast-forwarded to
// the checkpointed draw position (jitter paces wall-clock retries only; it
// never reaches Results).
func (f *edgeFleet) adopt(ck *engine.ShardCheckpoint) ([]*tcpStepper, error) {
	f.mu.Lock()
	for _, rg := range f.ranges {
		if ck.Start < rg.offset+len(rg.links) && rg.offset < ck.Start+ck.Count {
			f.mu.Unlock()
			return nil, protocolErrorf("adopted range [%d,%d) overlaps fleet range [%d,%d)",
				ck.Start, ck.Start+ck.Count, rg.offset, rg.offset+len(rg.links))
		}
	}
	rg := &fleetRange{
		offset: ck.Start,
		seed:   ck.FleetSeed,
		links:  buildLinks(ck.Start, ck.Count, ck.FleetSeed, true),
	}
	f.ranges = append(f.ranges, rg)
	f.mu.Unlock()

	tcp := make([]*tcpStepper, len(rg.links))
	for i, link := range rg.links {
		rng := numeric.SplitRNG(ck.FleetSeed, fmt.Sprintf("deploy-retry-%d", i))
		if ck.JitterDraws != nil {
			for k := 0; k < ck.JitterDraws[i]; k++ {
				rng.Int63()
			}
		}
		tcp[i] = &tcpStepper{fleet: f, link: link, id: link.id, rng: rng}
	}
	return tcp, nil
}

// edgeLink is the cloud-side connection slot of one edge: the acceptor
// delivers handshaken connections (initial and resumed) into incoming, and
// the edge's stepper consumes them. A dropped edge leaves its link empty
// until a resume arrives.
type edgeLink struct {
	id       int // global edge id
	token    string
	incoming chan *wireConn

	mu      sync.Mutex
	claimed bool // initial connection admitted (true from birth on adopted links)
	resumes int
}

// deliver hands a fresh connection to the stepper, replacing any stale one
// that was never consumed (latest connection wins).
func (l *edgeLink) deliver(conn *wireConn) {
	for {
		select {
		case l.incoming <- conn:
			return
		default:
			select {
			case stale := <-l.incoming:
				stale.Close()
			default:
			}
		}
	}
}

// start launches the acceptor on ln for the whole run. The returned stop
// function halts admission and unblocks a blocked Accept without closing the
// caller's listener. Call stop exactly once, when the run is over.
func (f *edgeFleet) start(ln net.Listener) (stop func()) {
	go f.acceptLoop(ln)
	return func() {
		f.done.Store(true)
		// Unblock a blocked Accept without closing the caller's listener: a
		// deadline in the distant past forces an immediate timeout.
		if d, ok := ln.(interface{ SetDeadline(time.Time) error }); ok {
			d.SetDeadline(time.Unix(1, 0)) //nolint:errcheck // best-effort unblock
		}
	}
}

// awaitInitial blocks until all fcfg.count initial edge sessions are
// admitted (immediately for a standby fleet).
func (f *edgeFleet) awaitInitial() error {
	connected := 0
	for connected < f.fcfg.count {
		select {
		case <-f.initial:
			connected++
		case err := <-f.acceptErr:
			// The acceptor is gone; drain admissions that completed before
			// it died, then fail if the fleet is still short.
			for {
				select {
				case <-f.initial:
					connected++
					continue
				default:
				}
				break
			}
			if connected < f.fcfg.count {
				return fmt.Errorf("deploy: accept: %w", err)
			}
		}
	}
	return nil
}

// awaitFleet starts the acceptor on ln and blocks until the initial fleet is
// complete. The acceptor keeps running so dropped edges can redial and
// resume mid-run.
func (f *edgeFleet) awaitFleet(ln net.Listener) (stop func(), err error) {
	stop = f.start(ln)
	if err := f.awaitInitial(); err != nil {
		stop()
		return nil, err
	}
	return stop, nil
}

// acceptLoop admits connections for the whole run: initial handshakes first,
// session resumes once the run is underway. Admissions run concurrently so
// one slow (or silent) client cannot wedge the fleet.
func (f *edgeFleet) acceptLoop(ln net.Listener) {
	var wg sync.WaitGroup
	for {
		conn, err := ln.Accept()
		if err != nil {
			wg.Wait() // let in-flight admissions finish before reporting
			if !f.done.Load() {
				select {
				case f.acceptErr <- err:
				default:
				}
			}
			return
		}
		if f.done.Load() {
			conn.Close()
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			f.admit(conn)
		}()
	}
}

// admit performs one connection's handshake under the handshake deadline and
// delivers the connection to its edge's link. Bad clients are rejected and
// closed without disturbing the fleet. Edge ids on the wire are global; the
// fleet serves its ranges' ids (initial plus any adopted mid-run). The
// connection is wrapped here, once: the frame reader that took the Hello is
// the one the edge's stepper reads reports through.
func (f *edgeFleet) admit(raw net.Conn) {
	conn := newWireConn(raw)
	admitted := false
	defer func() {
		if !admitted {
			conn.Close()
		}
	}()
	timeout, _ := f.fcfg.timeouts()
	if timeout == 0 {
		timeout = DefaultHandshakeTimeout
	}
	if timeout > 0 {
		//lint:allow nodeterm real I/O deadline on a live connection; wall time is the only clock the kernel honors
		if err := conn.SetDeadline(time.Now().Add(timeout)); err != nil {
			return
		}
	}
	m, err := conn.readMessage()
	if err != nil {
		return
	}
	if m.Type != MsgHello {
		_ = WriteMessage(conn, &Message{Type: MsgError, Reason: "expected Hello"})
		return
	}
	link := f.linkFor(m.EdgeID)
	if link == nil {
		if m.Resume {
			// A resuming edge the fleet does not know (yet): during a shard
			// handoff the edge may redial the adopter before the adopt frame
			// installs its range. Close without a verdict — the edge sees a
			// transient drop and retries; a definitive rejection would kill
			// its session mid-migration.
			return
		}
		_ = WriteMessage(conn, &Message{Type: MsgError, Reason: fmt.Sprintf("bad edge id %d", m.EdgeID)})
		return
	}

	if m.Resume {
		if m.ResumeToken != link.token {
			_ = WriteMessage(conn, &Message{Type: MsgError, Reason: "bad resume token"})
			return
		}
		if m.DoneSlots < 0 || m.DoneSlots > f.fcfg.horizon {
			_ = WriteMessage(conn, &Message{Type: MsgError, Reason: fmt.Sprintf("implausible resume position %d", m.DoneSlots)})
			return
		}
		// The resume Welcome intentionally omits the zoo metadata: the edge
		// already holds it (and its loaded checkpoints) from the session.
		if err := WriteMessage(conn, &Message{Type: MsgWelcome, EdgeID: m.EdgeID, Resume: true}); err != nil {
			return
		}
		if timeout > 0 {
			conn.SetDeadline(time.Time{}) //nolint:errcheck // best-effort reset
		}
		link.mu.Lock()
		link.resumes++
		link.mu.Unlock()
		link.deliver(conn)
		admitted = true
		return
	}

	link.mu.Lock()
	if link.claimed {
		link.mu.Unlock()
		_ = WriteMessage(conn, &Message{Type: MsgError, Reason: fmt.Sprintf("duplicate edge id %d", m.EdgeID)})
		return
	}
	link.claimed = true
	link.mu.Unlock()
	metas := make([]ModelMeta, f.source.NumModels())
	for n := range metas {
		metas[n] = f.source.Meta(n)
	}
	welcome := &Message{
		Type:        MsgWelcome,
		EdgeID:      m.EdgeID,
		NumModels:   len(metas),
		Models:      metas,
		ResumeToken: link.token,
	}
	if err := WriteMessage(conn, welcome); err != nil {
		link.mu.Lock()
		link.claimed = false
		link.mu.Unlock()
		return
	}
	if timeout > 0 {
		conn.SetDeadline(time.Time{}) //nolint:errcheck // best-effort reset
	}
	// m lives in the connection's recycled decode target: once the link is
	// delivered, the edge's stepper owns the reader and m with it.
	edgeID := m.EdgeID
	link.deliver(conn)
	f.initial <- edgeID
	admitted = true
}

// steppers builds one tcpStepper per initial-range link, with deterministic
// per-edge backoff jitter streams. Adopted ranges get their steppers from
// adopt.
func (f *edgeFleet) steppers() []*tcpStepper {
	f.mu.RLock()
	links := f.ranges[0].links
	f.mu.RUnlock()
	tcp := make([]*tcpStepper, len(links))
	for i, link := range links {
		tcp[i] = &tcpStepper{
			fleet: f,
			link:  link,
			id:    link.id,
			rng:   numeric.SplitRNG(f.fcfg.seed, fmt.Sprintf("deploy-retry-%d", i)),
		}
	}
	return tcp
}

// closeAll closes every live connection (deferred teardown after a run).
func (f *edgeFleet) closeAll(steppers []*tcpStepper) {
	for _, s := range steppers {
		if conn := s.liveConn(); conn != nil {
			conn.Close()
		}
	}
}

// finish notifies every still-connected edge that the run is over. The loop
// is best-effort by design: one dead edge must not leave the others hanging
// until their read deadlines, so every edge is attempted and the failures
// are reported joined (callers ignore them under Degrade).
func (f *edgeFleet) finish(steppers []*tcpStepper) error {
	var errs []error
	for _, s := range steppers {
		conn := s.liveConn()
		if conn == nil {
			continue // edge is down; nobody to notify
		}
		if err := WriteMessage(conn, &Message{Type: MsgDone}); err != nil {
			errs = append(errs, fmt.Errorf("deploy: send done to edge %d: %w", s.id, err))
		}
	}
	return errors.Join(errs...)
}

// abort tells every still-connected edge the run failed and returns the
// error. Like finish, it attempts every edge before returning.
func (f *edgeFleet) abort(steppers []*tcpStepper, err error) error {
	msg := &Message{Type: MsgError, Reason: err.Error()}
	for _, s := range steppers {
		if conn := s.liveConn(); conn != nil {
			_ = WriteMessage(conn, msg) // best effort; we are already failing
		}
	}
	return err
}

// resumes snapshots the initial range's per-edge accepted-resume counts.
func (f *edgeFleet) resumes() []int {
	f.mu.RLock()
	links := f.ranges[0].links
	f.mu.RUnlock()
	out := make([]int, len(links))
	for i, link := range links {
		link.mu.Lock()
		out[i] = link.resumes
		link.mu.Unlock()
	}
	return out
}

// tcpStepper runs one edge's slot over its current connection: ship the
// assignment (plus checkpoint on a switch), wait for the report, translate
// it into the engine's observation. The reported average loss stands in for
// both the bandit feedback and the accounting term — the deployment has no
// posterior mean, only what the edge measured.
//
// Transient failures (resets, timeouts, mid-frame EOFs) consume the
// per-slot retry budget: each retry backs off deterministically and waits
// for the edge to redial and resume before re-running the exchange. Fatal
// failures (protocol violations, invalid report numbers, edge application
// errors) fail the slot immediately.
type tcpStepper struct {
	fleet *edgeFleet
	link  *edgeLink
	id    int        // global edge id
	rng   *rand.Rand // deterministic backoff jitter stream
	conn  *wireConn  // current connection; nil while the edge is down
	// assign is the outgoing Assign, rewritten every slot: one edge-slot
	// allocates no envelope.
	assign Message
}

// Step implements engine.EdgeStepper.
//
//lint:cold a TCP round trip per slot dominates any allocation; the alloc-free contract covers in-process steppers only
func (s *tcpStepper) Step(slot, arm int, download bool) (engine.Observation, error) {
	retry := s.fleet.fcfg.retry.withDefaults()
	attempts := 0
	var lastErr error
	for {
		if s.conn == nil {
			if conn := s.await(retry.ResumeWait); conn != nil {
				s.conn = conn
			} else {
				lastErr = Transientf("edge %d: no live connection within %v", s.id, retry.ResumeWait)
			}
		}
		if s.conn != nil {
			obs, err := s.exchange(s.conn, slot, arm, download)
			if err == nil {
				obs.Retries = attempts
				return obs, nil
			}
			s.conn.Close()
			s.conn = nil
			if !Transient(err) {
				return engine.Observation{Retries: attempts}, err
			}
			lastErr = err
		}
		if attempts >= s.fleet.fcfg.retry.Attempts {
			return engine.Observation{Retries: attempts},
				fmt.Errorf("edge %d slot %d: retry budget exhausted after %d retries: %w", s.id, slot, attempts, lastErr)
		}
		attempts++
		s.fleet.sleep(backoffDelay(retry, attempts, s.rng))
	}
}

// await waits up to d for the acceptor to deliver a (re)connection.
func (s *tcpStepper) await(d time.Duration) *wireConn {
	select {
	case conn := <-s.link.incoming:
		return conn
	default:
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case conn := <-s.link.incoming:
		return conn
	case <-t.C:
		return nil
	}
}

// liveConn returns the stepper's current connection, consuming a freshly
// resumed one if the acceptor delivered it after the last step. Callers
// must not race Step (the engine has returned, or never started).
func (s *tcpStepper) liveConn() *wireConn {
	select {
	case conn := <-s.link.incoming:
		if s.conn != nil {
			s.conn.Close()
		}
		s.conn = conn
	default:
	}
	return s.conn
}

// exchange runs one assign/report round trip on conn.
func (s *tcpStepper) exchange(conn *wireConn, slot, arm int, download bool) (engine.Observation, error) {
	f, i := s.fleet, s.id
	if _, slotTimeout := f.fcfg.timeouts(); slotTimeout > 0 {
		//lint:allow nodeterm real I/O deadline on a live TCP connection; wall time is the only clock the kernel honors
		if err := conn.SetDeadline(time.Now().Add(slotTimeout)); err != nil {
			return engine.Observation{}, fmt.Errorf("edge %d deadline: %w", i, err)
		}
		defer conn.SetDeadline(time.Time{}) //nolint:errcheck // best-effort reset
	}
	assign := &s.assign
	*assign = Message{
		Type:    MsgAssign,
		Slot:    slot,
		ModelID: arm,
		Switch:  download,
	}
	if download {
		ckpt, err := f.source.Checkpoint(arm)
		if err != nil {
			return engine.Observation{}, fmt.Errorf("checkpoint model %d: %w", arm, err)
		}
		assign.Weights = ckpt
	}
	if err := WriteMessage(conn, assign); err != nil {
		return engine.Observation{}, fmt.Errorf("edge %d assign: %w", i, err)
	}
	rep, err := conn.readMessage()
	if err != nil {
		return engine.Observation{}, fmt.Errorf("edge %d report: %w", i, err)
	}
	if rep.Type == MsgError {
		return engine.Observation{}, &EdgeError{EdgeID: i, Reason: rep.Reason}
	}
	if err := ValidateReport(rep); err != nil {
		return engine.Observation{}, fmt.Errorf("edge %d: %w", i, err)
	}
	if rep.Slot != slot {
		return engine.Observation{}, protocolErrorf("edge %d: report for slot %d, want %d", i, rep.Slot, slot)
	}
	return engine.Observation{
		Loss:      rep.AvgLoss + rep.CompSeconds,
		InferLoss: rep.AvgLoss,
		Compute:   rep.CompSeconds,
		Correct:   rep.Correct,
		Samples:   rep.Samples,
		InferKWh:  rep.EnergyKWh,
		TransferKWh: energy.TransferEnergy(
			energy.TransferEnergyPerByte, f.source.Meta(arm).SizeBytes),
	}, nil
}
