package deploy

import (
	"bytes"
	"fmt"
	"math/rand"
	"net"
	"slices"

	"github.com/carbonedge/carbonedge/internal/nn"
)

// Runtime is the edge-local inference engine: it loads shipped checkpoints
// and serves one slot of traffic.
type Runtime interface {
	// Welcome delivers the cloud's model metadata before the first slot.
	Welcome(models []ModelMeta) error
	// LoadModel installs the checkpoint for modelID (called on switches).
	// checkpoint is the connection's recycled decode buffer: it is valid only
	// until LoadModel returns, so an implementation copies what it keeps.
	LoadModel(modelID int, checkpoint []byte) error
	// RunSlot serves the slot's local traffic with the given model and
	// returns the observation the cloud needs.
	RunSlot(slot, modelID int) (SlotReport, error)
}

// SlotReport is an edge's end-of-slot observation.
type SlotReport struct {
	AvgLoss     float64 // average squared inference loss L_{i,n}^t
	Correct     int
	Samples     int
	EnergyKWh   float64 // inference energy consumed this slot
	CompSeconds float64 // measured per-sample computation cost v_{i,n}
}

// RunEdge connects an edge agent: handshake, then serve Assign frames until
// Done. It returns nil on a clean Done and an error otherwise. It makes a
// single attempt on a single connection; fault-tolerant agents use an
// EdgeSession (or RunEdgeResumable) to survive connection loss.
func RunEdge(conn net.Conn, edgeID int, rt Runtime) error {
	s, err := NewEdgeSession(edgeID, rt)
	if err != nil {
		return err
	}
	_, err = s.Run(conn)
	return err
}

// EdgeSession is the resumable edge-side state of one cloud run: the zoo
// metadata and resume token from the initial Welcome, plus a cache of the
// last completed report. The session outlives any single connection — when a
// connection drops, redial and call Run again; the session re-handshakes
// with Resume set (skipping the zoo metadata) and answers a duplicate Assign
// from its report cache instead of re-serving the slot, so the edge's
// stochastic serving stream is never double-drawn and the cloud never
// double-counts a slot whose report was lost in flight.
type EdgeSession struct {
	session
	edgeID int
	rt     Runtime
	cache  replaySlot // the last completed report
}

// NewEdgeSession builds a fresh session for one run.
func NewEdgeSession(edgeID int, rt Runtime) (*EdgeSession, error) {
	if rt == nil {
		return nil, fmt.Errorf("deploy: nil runtime")
	}
	if edgeID < 0 {
		return nil, fmt.Errorf("deploy: negative edge id %d", edgeID)
	}
	return &EdgeSession{session: session{who: fmt.Sprintf("edge %d", edgeID), peer: "cloud", want: MsgWelcome}, edgeID: edgeID, rt: rt}, nil
}

// Run serves the session over one connection until it ends. done reports
// whether the session is over: a clean Done (err == nil), a cloud abort, or
// a fatal local/protocol failure. done == false means the connection itself
// failed (err is the transient cause) and the caller may redial and call Run
// again to resume the session.
func (s *EdgeSession) Run(raw net.Conn) (done bool, err error) { return s.run(raw, s) }

func (s *EdgeSession) hello() *Message { return &Message{Type: MsgHello, EdgeID: s.edgeID} }

func (s *EdgeSession) setup(w *Message) error {
	if err := s.rt.Welcome(w.Models); err != nil {
		return fmt.Errorf("deploy: runtime welcome: %w", err)
	}
	return nil
}

// serve answers an Assign with the slot's report.
func (s *EdgeSession) serve(conn *wireConn, m *Message) (outcome, error) {
	if m.Type != MsgAssign {
		return failed, protocolErrorf("unexpected message type %d from cloud", m.Type)
	}
	return s.cache.answer(conn, m.Slot, func(reply *Message) error {
		if m.Switch {
			if err := s.rt.LoadModel(m.ModelID, m.Weights); err != nil {
				return fmt.Errorf("deploy: load model %d: %w", m.ModelID, err)
			}
		}
		rep, err := s.rt.RunSlot(m.Slot, m.ModelID)
		if err != nil {
			return fmt.Errorf("deploy: run slot %d: %w", m.Slot, err)
		}
		*reply = Message{
			Type:        MsgReport,
			Slot:        m.Slot,
			AvgLoss:     rep.AvgLoss,
			Correct:     rep.Correct,
			Samples:     rep.Samples,
			EnergyKWh:   rep.EnergyKWh,
			CompSeconds: rep.CompSeconds,
		}
		return nil
	})
}

// An edge holds nothing its peer must hear about when the run ends.
func (s *EdgeSession) finish() error { return nil }
func (s *EdgeSession) abort(error)   {}

// RunEdgeResumable runs a full edge session with automatic reconnect: when a
// connection fails transiently, it redials and resumes, up to maxResumes
// times. dial is also what paces reconnection — a dialer may sleep or back
// off internally; RunEdgeResumable itself never waits, so deterministic
// harnesses stay in control of time.
func RunEdgeResumable(dial func() (net.Conn, error), edgeID int, rt Runtime, maxResumes int) error {
	s, err := NewEdgeSession(edgeID, rt)
	if err != nil {
		return err
	}
	return s.redial(dial, maxResumes, s)
}

// unit is the tier-specific half of a dial-side session — an edge, or a
// regional coordinator: what it says in its Hello, what it sets up on the
// run's first Welcome, what it serves, and what ending the run does to what
// it holds. Everything else belongs to the session.
type unit interface {
	// hello builds the unit's Hello.
	hello() *Message
	// setup takes the run's first Welcome.
	setup(w *Message) error
	// serve handles one frame other than Done and Error.
	serve(conn *wireConn, m *Message) (outcome, error)
	// finish ends the unit on the peer's Done; abort ends it on a failure
	// that is over the session.
	finish() error
	abort(err error)
}

// outcome is what serving one frame left of the session. It is explicit
// because a unit's failure can wrap a transient cause (a shard whose edge ran
// out of retry budget on a dropped connection), so Transient must not decide
// whether a failed unit's session is over.
type outcome int

const (
	served outcome = iota // answered: read the next frame
	cut                   // the connection failed: resumable if transient
	failed                // the unit failed: the peer hears why, the session is over
	ended                 // the unit ended the session cleanly (a departure)
)

// session is the dial side of a resumable session, shared by both tiers: the
// connection's frame reader, the initial and resume handshake, the peer's
// Done and Error, and what a failure means — a transient one can be resumed
// on a fresh connection, anything else aborts the unit and ends the session.
type session struct {
	// who names the unit in redial's errors ("edge 3", "region 1"), peer the
	// other side ("cloud", "root"); want is the peer's Welcome type.
	who, peer string
	want      MsgType

	welcomed bool
	token    string
}

// run serves u over one connection until the session ends or the connection
// fails; see EdgeSession.Run for done.
func (s *session) run(raw net.Conn, u unit) (done bool, err error) {
	// One frame reader for the connection's whole life: a frame that arrived
	// in the Welcome's segment is already in its buffer.
	conn := newWireConn(raw)
	o, err := s.handshake(conn, u)
	for err == nil {
		var m *Message
		if m, err = conn.readMessage(); err != nil {
			err = fmt.Errorf("deploy: read: %w", err)
			break
		}
		switch m.Type {
		case MsgDone:
			return true, u.finish()
		case MsgError:
			err = fmt.Errorf("deploy: %s aborted: %s", s.peer, m.Reason) //lint:allow errtaxonomy abort reason is forwarded verbatim and the session is already terminal
			u.abort(err)
			return true, err
		}
		if o, err = u.serve(conn, m); o == ended {
			return true, nil
		}
	}
	if o == failed {
		_ = WriteMessage(conn, &Message{Type: MsgError, Reason: err.Error()})
		u.abort(err)
		return true, err
	}
	if Transient(err) {
		return false, err
	}
	u.abort(err)
	return true, err
}

// handshake performs the Hello/Welcome exchange on a fresh connection. Once
// the session has been welcomed the Hello goes out as a resume, with the
// session's token, and the Welcome carries nothing to set up. A unit that
// cannot set up on the first Welcome has failed, as one that cannot serve a
// frame has: the peer hears why.
func (s *session) handshake(conn *wireConn, u unit) (outcome, error) {
	hello := u.hello()
	if s.welcomed {
		hello.Resume, hello.ResumeToken = true, s.token
	}
	if err := WriteMessage(conn, hello); err != nil {
		return cut, fmt.Errorf("deploy: hello: %w", err)
	}
	w, err := conn.readMessage()
	if err != nil {
		return cut, fmt.Errorf("deploy: welcome: %w", err)
	}
	if w.Type == MsgError {
		return cut, protocolErrorf("%s rejected the handshake: %s", s.peer, w.Reason)
	}
	if w.Type != s.want {
		return cut, protocolErrorf("expected a welcome, got type %d", w.Type)
	}
	if s.welcomed {
		return served, nil
	}
	if err := u.setup(w); err != nil {
		return failed, err
	}
	s.token, s.welcomed = w.ResumeToken, true
	return served, nil
}

// redial is the reconnect loop behind RunEdgeResumable and
// RunRegionResumable. Until a connection has been served, a dial failure is
// the run's error: there is nothing yet to resume.
func (s *session) redial(dial func() (net.Conn, error), maxResumes int, u unit) error {
	if dial == nil {
		return fmt.Errorf("deploy: nil dialer") //lint:allow errtaxonomy the caller's mistake, returned before any wire traffic
	}
	resumes, connected := 0, false
	for {
		conn, err := dial()
		if err == nil {
			var done bool
			done, err = s.run(conn, u)
			conn.Close()
			if done {
				return err
			}
			connected = true
		} else if !connected {
			return fmt.Errorf("deploy: %s: dial: %w", s.who, err)
		}
		if resumes >= maxResumes {
			return fmt.Errorf("deploy: %s: resume budget exhausted after %d resumes: %w", s.who, resumes, err)
		}
		resumes++
	}
}

// replaySlot holds a session's reply to the last slot it served, cached
// before it is sent: a peer that never saw it assigns the slot again over the
// resumed connection, and the answer must come from here.
type replaySlot struct {
	last *Message // cached reply of the last slot served; nil or &msg
	msg  Message  // storage of last, rewritten once per served slot
}

// answer replies to an assign for slot. A repeated slot gets the cached reply
// again — serving it twice would double-draw the unit's serving stream and
// double-count the slot. Otherwise produce writes the reply into the cache,
// which is then sent: if the write dies mid-frame the slot is still
// completed, and the resumed connection resends it. A produce error fails
// the unit, and the session sends it to the peer as an Error frame.
func (c *replaySlot) answer(conn *wireConn, slot int, produce func(reply *Message) error) (outcome, error) {
	if c.last == nil || c.last.Slot != slot {
		if err := produce(&c.msg); err != nil {
			return failed, err
		}
		c.last = &c.msg
	}
	if err := WriteMessage(conn, c.last); err != nil {
		return cut, fmt.Errorf("deploy: reply to slot %d: %w", slot, err)
	}
	return served, nil
}

// NNRuntime is a full-fidelity edge runtime: it holds the edge's local
// labeled data pool, builds each model's architecture locally the first time
// the model arrives, installs every checkpoint the cloud ships into that
// resident network via nn.ReadWeights, and runs genuine forward passes. The
// cloud never sees the data; the edge never sees the training pipeline —
// exactly the paper's split.
type NNRuntime struct {
	// Int8 runs every installed checkpoint through the true-INT8 engine
	// (nn.QuantizedNetwork): LoadModel quantizes the shipped float weights
	// on arrival and RunSlot serves integer kernels. This is an edge
	// execution mode — the wire format and the cloud are unchanged. Set it
	// before the first LoadModel; it is not a per-model switch.
	Int8 bool

	// buildNet constructs the (untrained) architecture for a model id;
	// weights arrive from the cloud.
	buildNet func(modelID int) (*nn.Network, error)
	// pool is the edge's local stream pool.
	pool []nn.Sample
	// samplesPerSlot draws M_i^t.
	samplesPerSlot func(slot int) int
	// compSecondsPerSample simulates the measured computation latency of
	// one inference (posterior, observed while serving).
	compSecondsPerSample func(modelID int) float64

	rng    *rand.Rand
	metas  []ModelMeta
	loaded map[int]*residentModel
	ckpt   bytes.Reader // over the checkpoint being installed; reused
	calib  *nn.Tensor   // INT8 calibration batch, built once from the pool head

	// Serving scratch, owned by this runtime (one per edge, its methods never
	// called concurrently). The scorer serves a slot's chunks on as many lanes
	// as the edge has cores, one arena a lane; it and idx are grow-only, so a
	// steady-state RunSlot allocates nothing (TestNNRuntimeSlotZeroAllocs). An
	// INT8 install borrows lane 0's arena for its calibration pass: LoadModel
	// and RunSlot never overlap, and each Resets the arena before drawing.
	scorer nn.Scorer
	idx    []int
}

// residentModel is one model id's storage on the edge, built on the model's
// first install and overwritten in place by every later one. qw and qn are
// set by installs made in Int8 mode, qn compiled from (net, qw) over the
// runtime's calibration batch. forward is the serving engine's batched pass,
// bound here because a method value taken per slot would allocate.
type residentModel struct {
	net     *nn.Network
	qw      *nn.QuantizedWeights
	qn      *nn.QuantizedNetwork
	forward func(in *nn.Tensor, a *nn.Arena) *nn.Tensor
}

var _ Runtime = (*NNRuntime)(nil)

// NewNNRuntime creates a runtime over a local pool.
func NewNNRuntime(build func(int) (*nn.Network, error), pool []nn.Sample,
	samplesPerSlot func(int) int, compSeconds func(int) float64, rng *rand.Rand) (*NNRuntime, error) {
	if build == nil || samplesPerSlot == nil || compSeconds == nil || rng == nil {
		return nil, fmt.Errorf("deploy: nil runtime dependency")
	}
	if len(pool) == 0 {
		return nil, fmt.Errorf("deploy: empty data pool")
	}
	for i, s := range pool {
		if !slices.Equal(s.X.Shape, pool[0].X.Shape) {
			return nil, fmt.Errorf("deploy: pool sample %d has shape %v, sample 0 has %v", i, s.X.Shape, pool[0].X.Shape)
		}
	}
	return &NNRuntime{
		buildNet:             build,
		pool:                 pool,
		samplesPerSlot:       samplesPerSlot,
		compSecondsPerSample: compSeconds,
		rng:                  rng,
		loaded:               make(map[int]*residentModel),
	}, nil
}

// Welcome implements Runtime.
func (r *NNRuntime) Welcome(models []ModelMeta) error {
	if len(models) == 0 {
		return fmt.Errorf("deploy: empty model metadata")
	}
	r.metas = models
	return nil
}

// LoadModel implements Runtime: install the shipped weights into the model's
// resident network, building its architecture first if the edge has never
// held it. An empty checkpoint is valid only for a model the runtime already
// holds a copy of. Every non-empty checkpoint is read and validated in full
// and, in Int8 mode, quantized over the resident int8 buffers; the engine is
// calibrated and compiled when the install creates it and again only when the
// quantization moved a weight or a scale, since a checkpoint that leaves them
// all where they were — the same model arriving again, which is most
// switches — compiles to the engine already resident. A checkpoint that fails
// part-way has already overwritten some of the resident storage, so the model
// is evicted and cannot be served until a good checkpoint reinstalls it, from
// scratch, engine and all.
func (r *NNRuntime) LoadModel(modelID int, checkpoint []byte) error {
	if modelID < 0 || modelID >= len(r.metas) {
		return fmt.Errorf("deploy: model id %d out of range", modelID)
	}
	m := r.loaded[modelID]
	if len(checkpoint) == 0 {
		if m != nil && (!r.Int8 || m.qn != nil) {
			return nil // cached copy, nothing shipped
		}
		// Installing buildNet's fresh initialisation would serve random
		// weights and report their loss as the model's.
		return fmt.Errorf("deploy: model %d switched in without weights and no cached copy", modelID)
	}
	if m == nil {
		net, err := r.buildNet(modelID)
		if err != nil {
			return err
		}
		if !slices.Equal(net.InShape(), r.pool[0].X.Shape) {
			return fmt.Errorf("deploy: model %d takes %v inputs, the pool holds %v samples", modelID, net.InShape(), r.pool[0].X.Shape)
		}
		m = &residentModel{net: net, forward: net.ForwardBatch}
	}
	if err := r.install(m, modelID, checkpoint); err != nil {
		delete(r.loaded, modelID)
		return err
	}
	r.loaded[modelID] = m
	return nil
}

// install overwrites m with the checkpoint. On error m is part old weights,
// part new, and must not be served.
func (r *NNRuntime) install(m *residentModel, modelID int, checkpoint []byte) error {
	r.ckpt.Reset(checkpoint)
	err := nn.ReadWeights(&r.ckpt, m.net)
	r.ckpt.Reset(nil) // checkpoint is the connection's buffer: do not retain it
	if err != nil {
		return err
	}
	if !r.Int8 {
		return nil
	}
	// Quantize the shipped float weights at install time and compile the
	// INT8 engine, exactly the zoo's quantization path: fake-quant the
	// float net (the accuracy oracle), then bind the integer kernels to
	// the same int8 buffers.
	created := m.qw == nil
	if created {
		m.qw, m.qn = &nn.QuantizedWeights{}, &nn.QuantizedNetwork{}
		m.forward = m.qn.ForwardBatch
	}
	changed := m.qw.Requantize(m.net)
	// Also when nothing changed: ReadWeights has just put the unquantized
	// floats back, and the compiled head reads its bias from m.net.
	if err := m.qw.ApplyTo(m.net); err != nil {
		return fmt.Errorf("deploy: quantize model %d: %w", modelID, err)
	}
	if !created && !changed {
		return nil // calibration and compilation are functions of (qw, calib)
	}
	if r.calib == nil {
		r.calib = nn.StackSamples(r.pool, nn.CalibBatch)
	}
	if err := m.qn.Recompile(m.net, m.qw, r.calib, r.scorer.Arena()); err != nil {
		return fmt.Errorf("deploy: compile INT8 model %d: %w", modelID, err)
	}
	return nil
}

// RunSlot implements Runtime: serve M samples with the loaded model.
//
//lint:hotroot steady-state slot serving must report 0 allocs/op (bench_test.go pins it)
func (r *NNRuntime) RunSlot(slot, modelID int) (SlotReport, error) {
	loaded, ok := r.loaded[modelID]
	if !ok {
		return SlotReport{}, fmt.Errorf("deploy: model %d assigned but never downloaded", modelID)
	}
	if r.Int8 && loaded.qn == nil {
		return SlotReport{}, fmt.Errorf("deploy: model %d loaded before Int8 mode was enabled", modelID)
	}
	m := r.samplesPerSlot(slot)
	if m < 0 {
		return SlotReport{}, fmt.Errorf("deploy: negative sample count %d", m)
	}
	// Draw all sample indices up front — the RNG call sequence of a
	// one-sample-at-a-time loop, so the stream each edge sees does not depend
	// on how the slot is then served.
	if cap(r.idx) < m {
		r.idx = make([]int, m) //lint:allow hotalloc grow-only index buffer; steady state reuses capacity
	}
	idx := r.idx[:m]
	for j := range idx {
		idx[j] = r.rng.Intn(len(r.pool))
	}
	totalLoss, correct := r.scorer.Score(loaded.forward, r.pool, idx)
	rep := SlotReport{Samples: m, Correct: correct, EnergyKWh: r.metas[modelID].PhiKWh * float64(m), CompSeconds: r.compSecondsPerSample(modelID)}
	if m > 0 {
		rep.AvgLoss = totalLoss / float64(m)
	}
	return rep, nil
}
