// Package deploy is a runnable distributed deployment of the paper's
// system (its Fig. 1): a cloud process hosts the model zoo and runs the
// joint online controller (Algorithm 1 per edge + Algorithm 2), while edge
// agents — connected over any net.Conn, e.g. TCP — receive serialized model
// checkpoints, run real inference on their local data streams, and report
// per-slot losses and energy. This realizes the paper's third future-work
// item ("deploying our system in real-world cloud-edge environments") at
// protocol fidelity: models are actually shipped as bytes, losses are only
// observed after inference, and the cloud sees nothing about an edge's data.
//
// The wire protocol is length-prefixed JSON: every frame is a 4-byte
// big-endian length followed by a Message's JSON object, {"type":N,...},
// exactly as encoding/json marshals it (model weights, the dominant payload,
// are a base64 string). A frame is built — header and body — in one pooled
// buffer and sent with a single Write; a connection's owner reads it through
// a wireConn, whose frameReader takes a small frame in one Read into a
// grow-only buffer and decodes it into reused targets.
//
// Two codecs produce and accept those same bytes. The per-slot messages
// (Assign, Report, ShardAssign, ShardDelta) and the bare control frames go
// through the reflection-free codec in codec.go; everything outside the shape
// that codec covers (the rule is stated once, at the top of codec.go) goes
// through encoding/json, which remains the authority for what a frame means
// and for every decode error. The body stays JSON on purpose: the slot-cost
// benchmark's frame tee keys on the {"type":N prefix, and byte-identical
// frames are what make its byte and digest metrics exact before/after checks
// of a codec change. A raw-float64 binary layout has to wait for a benchmark
// change that relaxes that.
package deploy

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"sync"

	"github.com/carbonedge/carbonedge/internal/engine"
)

// MsgType discriminates protocol messages.
type MsgType int

// Protocol message types.
const (
	// MsgHello is the edge's first frame: it announces its identity.
	MsgHello MsgType = iota + 1
	// MsgWelcome is the cloud's reply: zoo metadata the edge needs.
	MsgWelcome
	// MsgAssign starts a slot on an edge: the model to serve, with the
	// serialized checkpoint when the edge must download it.
	MsgAssign
	// MsgReport is the edge's end-of-slot observation.
	MsgReport
	// MsgDone ends the run.
	MsgDone
	// MsgError aborts the run with a reason.
	MsgError

	// Regional-aggregator tier (root cloud <-> regional coordinator). A
	// coordinator owns one contiguous shard of the fleet: it admits its
	// edges exactly as the monolithic cloud would, steps them per slot, and
	// streams the shard's SlotDelta back to the root, which merges deltas in
	// canonical shard order and folds them bit-identically to a single
	// in-process run (see engine.RunSharded).

	// MsgRegionHello is a coordinator's first frame: it announces RegionID.
	MsgRegionHello
	// MsgRegionWelcome is the root's reply: the shard's edge range, the
	// horizon, the zoo size, and the error policy the shard must apply.
	MsgRegionWelcome
	// MsgShardAssign starts a slot on a region: the shard-local model
	// placement and download schedule.
	MsgShardAssign
	// MsgShardDelta is the region's end-of-slot shard reduction.
	MsgShardDelta
	// MsgRegionLeave is a coordinator's graceful departure: sent in reply to
	// a ShardAssign it will not serve, it tells the root to rebalance the
	// region's shards onto survivors. The departing region then releases its
	// edge connections so the edges can redial the adopter and resume.
	MsgRegionLeave
	// MsgShardAdopt hands an orphaned shard to a surviving (or newly joined)
	// coordinator: it carries the engine.ShardCheckpoint the adopter needs to
	// rebuild the shard's links, tokens, and down state mid-run.
	MsgShardAdopt
)

// maxFrame bounds a single frame (weights of a large checkpoint dominate).
const maxFrame = 1 << 30

// Message is the single wire envelope; unused fields stay zero.
type Message struct {
	Type MsgType `json:"type"`

	// Hello / Welcome.
	EdgeID    int         `json:"edgeId,omitempty"`
	NumModels int         `json:"numModels,omitempty"`
	Models    []ModelMeta `json:"models,omitempty"`

	// Session resume (Hello / Welcome). A first Hello carries neither field;
	// the Welcome answers with the session's ResumeToken. A reconnecting
	// edge sends Hello with Resume set, the token it was issued, and
	// DoneSlots = number of slots it has completed reports for — so the
	// cloud can re-assign the in-flight slot without re-shipping zoo
	// metadata (the resume Welcome omits Models) and without double-counting
	// a slot whose report was lost in flight (the edge answers a duplicate
	// assign from its report cache instead of re-serving it).
	Resume      bool   `json:"resume,omitempty"`
	ResumeToken string `json:"resumeToken,omitempty"`
	DoneSlots   int    `json:"doneSlots,omitempty"`

	// Assign.
	Slot    int    `json:"slot,omitempty"`
	ModelID int    `json:"modelId,omitempty"`
	Switch  bool   `json:"switch,omitempty"`
	Weights []byte `json:"weights,omitempty"`

	// Report.
	AvgLoss     float64 `json:"avgLoss,omitempty"`
	Correct     int     `json:"correct,omitempty"`
	Samples     int     `json:"samples,omitempty"`
	EnergyKWh   float64 `json:"energyKwh,omitempty"`
	CompSeconds float64 `json:"compSeconds,omitempty"`

	// Error.
	Reason string `json:"reason,omitempty"`

	// Regional tier. RegionHello carries RegionID; RegionWelcome answers
	// with the shard's global edge range [Start, Start+Count), the run
	// Horizon, NumModels (shared field above), and Degrade (whether the
	// shard absorbs edge failures instead of failing fast). ShardAssign
	// carries the shard-local Arms/Downloads for Slot; ShardDelta answers
	// with the shard's per-slot reduction. encoding/json round-trips float64
	// exactly, so a delta that crossed this hop folds to the same bits as
	// one that never left the root's process.
	RegionID  int               `json:"regionId,omitempty"`
	Start     int               `json:"start,omitempty"`
	Count     int               `json:"count,omitempty"`
	Horizon   int               `json:"horizon,omitempty"`
	Degrade   bool              `json:"degrade,omitempty"`
	Arms      []int             `json:"arms,omitempty"`
	Downloads []bool            `json:"downloads,omitempty"`
	Delta     *engine.SlotDelta `json:"delta,omitempty"`

	// Region elasticity. A RegionHello announces Seed (the coordinator's
	// fleet seed, so the root can later checkpoint the shard's token and
	// jitter derivations for an adopter); a resuming RegionHello reuses the
	// shared Resume/ResumeToken/DoneSlots fields above, exactly as edges do.
	// ShardAssign carries Start/Count so a coordinator owning several ranges
	// after an adoption can route the slot; ShardAdopt carries the orphaned
	// shard's Checkpoint.
	Seed       int64                   `json:"seed,omitempty"`
	Checkpoint *engine.ShardCheckpoint `json:"checkpoint,omitempty"`
}

// ModelMeta is the per-model metadata the cloud announces to edges.
type ModelMeta struct {
	Name      string  `json:"name"`
	PhiKWh    float64 `json:"phiKwh"`
	SizeBytes int64   `json:"sizeBytes"`
}

// headerLen is the size of a frame's big-endian length prefix.
const headerLen = 4

// framePool recycles frame buffers: WriteMessage builds header and body in
// one, the stateless ReadMessage reads a body into one.
var framePool = sync.Pool{New: func() any { return new([]byte) }}

// WriteMessage frames m and sends it with a single Write.
func WriteMessage(w io.Writer, m *Message) error {
	bp := framePool.Get().(*[]byte)
	defer framePool.Put(bp)
	frame, err := appendFrame((*bp)[:0], m)
	if err != nil {
		return err
	}
	*bp = frame[:0]
	if _, err := w.Write(frame); err != nil {
		return fmt.Errorf("deploy: write frame: %w", err)
	}
	return nil
}

// appendFrame appends m's frame to dst. The body comes from the fast codec
// when m has the shape it covers (see codec.go) and from encoding/json
// otherwise; the bytes are the same either way.
func appendFrame(dst []byte, m *Message) ([]byte, error) {
	start := len(dst)
	dst = append(dst, 0, 0, 0, 0)
	frame, ok := appendMessage(dst, m)
	if !ok {
		body, err := json.Marshal(m)
		if err != nil {
			return nil, fmt.Errorf("deploy: marshal: %w", err)
		}
		frame = append(dst, body...)
	}
	n := len(frame) - start - headerLen
	if n > maxFrame {
		return nil, protocolErrorf("frame of %d bytes exceeds limit", n)
	}
	binary.BigEndian.PutUint32(frame[start:], uint32(n))
	return frame, nil
}

// ReadMessage reads one framed message and never reads past it. Failures
// follow the error taxonomy in errors.go: truncated reads are transient I/O
// errors (the connection died, possibly mid-frame — a resume can heal it),
// while an impossible frame length, undecodable JSON, or an unknown message
// type is a fatal *ProtocolError (the peer is broken; retrying cannot help).
//
// It is the stateless form, for a caller that reads one frame off a stream
// it does not own. A connection's owner reads through a wireConn instead.
func ReadMessage(r io.Reader) (*Message, error) {
	bp := framePool.Get().(*[]byte)
	defer framePool.Put(bp)
	fr := &frameReader{r: r, exact: true, buf: (*bp)[:cap(*bp)]}
	m, err := fr.next()
	*bp = fr.buf[:0]
	return m, err
}

// Frame-buffer growth: a reader's buffer starts at minFrameBuf and grows by
// at most growStep beyond the bytes that have actually arrived, so a hostile
// length prefix cannot make the reader allocate maxFrame up front.
const (
	minFrameBuf = 512
	growStep    = 1 << 20
)

// frameReader reads frames off one stream into a grow-only buffer and
// decodes them into its reusable targets: a message it returns is valid
// until its next call. Unless exact is set it reads ahead — whatever a Read
// returns, so a small frame takes one Read — which is why a connection has
// exactly one, used for every read on it.
type frameReader struct {
	r io.Reader
	// exact limits every Read to the frame in progress (ReadMessage's
	// contract).
	exact bool
	// buf[lo:hi] holds the bytes read but not yet consumed.
	buf    []byte
	lo, hi int
	t      decodeTargets
}

// next reads and decodes one frame.
func (fr *frameReader) next() (*Message, error) {
	if err := fr.fill(headerLen); err != nil {
		return nil, fmt.Errorf("deploy: read header: %w", err)
	}
	n := binary.BigEndian.Uint32(fr.buf[fr.lo:])
	if n > maxFrame {
		return nil, protocolErrorf("frame of %d bytes exceeds limit", n)
	}
	end := headerLen + int(n)
	if err := fr.fill(end); err != nil {
		return nil, fmt.Errorf("deploy: read body: %w", err)
	}
	body := fr.buf[fr.lo+headerLen : fr.lo+end]
	if fr.lo += end; fr.lo == fr.hi {
		fr.lo, fr.hi = 0, 0
	}
	return fr.t.decode(body)
}

// fill reads until need unconsumed bytes are buffered. A stream that ends
// first yields io.EOF on a frame boundary and io.ErrUnexpectedEOF inside a
// frame, as io.ReadFull would.
func (fr *frameReader) fill(need int) error {
	for fr.hi-fr.lo < need {
		have := fr.hi - fr.lo
		if fr.lo > 0 && fr.lo+need > len(fr.buf) {
			// Bytes read ahead sit too far in for the frame to fit behind
			// them: move them to the front.
			copy(fr.buf, fr.buf[fr.lo:fr.hi])
			fr.lo, fr.hi = 0, have
		}
		if fr.hi == len(fr.buf) {
			// Full (so lo is 0): grow towards the frame, but never by more
			// than growStep beyond what has arrived.
			grown := make([]byte, max(min(need, have+growStep), 2*len(fr.buf), minFrameBuf))
			copy(grown, fr.buf[:fr.hi])
			fr.buf = grown
		}
		limit := len(fr.buf)
		if fr.exact {
			limit = min(limit, fr.lo+need)
		}
		n, err := fr.r.Read(fr.buf[fr.hi:limit])
		fr.hi += n
		if err != nil && fr.hi-fr.lo < need {
			if err == io.EOF && fr.hi > fr.lo {
				err = io.ErrUnexpectedEOF
			}
			return err
		}
	}
	return nil
}

// decode turns a frame body into a Message: the fast codec for a
// canonical-form body of a covered shape, encoding/json — into a fresh
// Message, so nothing it returns aliases a recycled target — for everything
// else, including every malformed body, whose error is therefore json's.
func (t *decodeTargets) decode(body []byte) (*Message, error) {
	m := &t.msg
	if !t.decodeFast(body) {
		m = new(Message)
		if err := json.Unmarshal(body, m); err != nil {
			return nil, protocolErrorf("unmarshal: %v", err)
		}
	}
	if m.Type < MsgHello || m.Type > MsgShardAdopt {
		return nil, protocolErrorf("unknown message type %d", m.Type)
	}
	return m, nil
}

// wireConn is a connection together with the one frameReader that owns its
// read side. Whoever accepts or dials a connection wraps it once and hands
// the wrapper on, so bytes the reader took ahead of one frame are never lost
// between a handshake and the session that follows it. Writes go through
// WriteMessage on the embedded connection.
type wireConn struct {
	net.Conn
	rd frameReader
}

func newWireConn(conn net.Conn) *wireConn {
	w := &wireConn{Conn: conn}
	w.rd.r = conn
	return w
}

// readMessage reads the connection's next frame. The message is valid until
// the next readMessage on this connection.
func (w *wireConn) readMessage() (*Message, error) { return w.rd.next() }

// ValidateReport defensively checks a MsgReport before its numbers reach
// the engine's accounting: non-finite or negative losses, energies, and
// counts would silently poison the carbon ledger and the bandit state, so
// they are rejected as fatal protocol errors at the wire boundary.
func ValidateReport(m *Message) error {
	if m.Type != MsgReport {
		return protocolErrorf("expected Report, got type %d", m.Type)
	}
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"avgLoss", m.AvgLoss},
		{"energyKwh", m.EnergyKWh},
		{"compSeconds", m.CompSeconds},
	} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return protocolErrorf("report slot %d: %s is not finite (%v)", m.Slot, f.name, f.v)
		}
		if f.v < 0 {
			return protocolErrorf("report slot %d: negative %s (%v)", m.Slot, f.name, f.v)
		}
	}
	if m.Samples < 0 {
		return protocolErrorf("report slot %d: negative sample count %d", m.Slot, m.Samples)
	}
	if m.Correct < 0 || m.Correct > m.Samples {
		return protocolErrorf("report slot %d: %d correct of %d samples", m.Slot, m.Correct, m.Samples)
	}
	return nil
}

// ValidateDelta defensively checks a MsgShardDelta before its terms reach
// the root's accounting fold: the delta must cover exactly the shard's edge
// range for the expected slot, and every numeric term must be finite and
// non-negative, for the same reason ValidateReport polices edge reports —
// one poisoned term would silently corrupt the carbon ledger.
func ValidateDelta(m *Message, start, count, slot int) error {
	if m.Type != MsgShardDelta {
		return protocolErrorf("expected ShardDelta, got type %d", m.Type)
	}
	if m.Slot != slot {
		return protocolErrorf("shard delta for slot %d, want %d", m.Slot, slot)
	}
	if m.Delta == nil {
		return protocolErrorf("shard delta slot %d: missing delta", slot)
	}
	if m.Delta.Start != start || len(m.Delta.Edges) != count {
		return protocolErrorf("shard delta slot %d covers [%d,%d), want [%d,%d)",
			slot, m.Delta.Start, m.Delta.Start+len(m.Delta.Edges), start, start+count)
	}
	for j := range m.Delta.Edges {
		ed := &m.Delta.Edges[j]
		for _, f := range []struct {
			name string
			v    float64
		}{
			{"loss", ed.Loss},
			{"inferLoss", ed.InferLoss},
			{"compute", ed.Compute},
			{"inferKwh", ed.InferKWh},
			{"transferKwh", ed.TransferKWh},
		} {
			if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
				return protocolErrorf("shard delta slot %d edge %d: %s is not finite (%v)", slot, start+j, f.name, f.v)
			}
			if f.v < 0 {
				return protocolErrorf("shard delta slot %d edge %d: negative %s (%v)", slot, start+j, f.name, f.v)
			}
		}
		if ed.Samples < 0 {
			return protocolErrorf("shard delta slot %d edge %d: negative sample count %d", slot, start+j, ed.Samples)
		}
		if ed.Correct < 0 || ed.Correct > ed.Samples {
			return protocolErrorf("shard delta slot %d edge %d: %d correct of %d samples", slot, start+j, ed.Correct, ed.Samples)
		}
		if ed.Retries < 0 {
			return protocolErrorf("shard delta slot %d edge %d: negative retry count %d", slot, start+j, ed.Retries)
		}
	}
	return nil
}

// ValidateAdopt defensively checks a MsgShardAdopt before its checkpoint
// rebuilds shard state in the adopting coordinator: a malformed checkpoint is
// a fatal protocol error at the wire boundary, like any other bad frame.
// Everything the adopter sizes or loops by is bounded here by what the frame
// carried (the checkpoint's per-edge slices back its Count) or by the
// adopter's own session: the fold watermark by the run's horizon, and each
// edge's jitter position by what doneSlots slots of the adopter's retry
// budget (attempts per slot; coordinators of one deployment share it) can
// have drawn.
func ValidateAdopt(m *Message, horizon, attempts int) error {
	if m.Type != MsgShardAdopt {
		return protocolErrorf("expected ShardAdopt, got type %d", m.Type)
	}
	ck := m.Checkpoint
	if ck == nil {
		return protocolErrorf("shard adopt: missing checkpoint")
	}
	if err := ck.Validate(); err != nil {
		return protocolErrorf("shard adopt: %v", err)
	}
	if ck.DoneSlots > horizon {
		return protocolErrorf("shard adopt: fold watermark %d beyond the %d-slot horizon", ck.DoneSlots, horizon)
	}
	for i, n := range ck.JitterDraws {
		if n > ck.DoneSlots*attempts {
			return protocolErrorf("shard adopt: edge %d at jitter position %d after %d slots of %d retries",
				ck.Start+i, n, ck.DoneSlots, attempts)
		}
	}
	return nil
}
