package deploy

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"github.com/carbonedge/carbonedge/internal/engine"
	"github.com/carbonedge/carbonedge/internal/numeric"
)

// The wire codec's oracle is encoding/json: the fast encoder must produce
// json.Marshal's bytes, the fast decoder may accept only what json.Unmarshal
// decodes to the same Message, and whatever the fast path declines must come
// out exactly as the json path decides it. The helpers below state that once;
// the differential test and the two fuzz targets feed them.

// jsonDecode is the reference decode of a frame body: encoding/json plus the
// message-type range check, with ReadMessage's error wording.
func jsonDecode(body []byte) (*Message, error) {
	m := new(Message)
	if err := json.Unmarshal(body, m); err != nil {
		return nil, protocolErrorf("unmarshal: %v", err)
	}
	if m.Type < MsgHello || m.Type > MsgShardAdopt {
		return nil, protocolErrorf("unknown message type %d", m.Type)
	}
	return m, nil
}

// jsonRead is the reference read of a framed stream. Unlike the reader it
// checks, it looks at the bytes it was given before allocating anything.
func jsonRead(stream []byte) (*Message, error) {
	if len(stream) < headerLen {
		return nil, io.ErrUnexpectedEOF
	}
	n := binary.BigEndian.Uint32(stream)
	if n > maxFrame {
		return nil, protocolErrorf("frame of %d bytes exceeds limit", n)
	}
	if uint64(len(stream)-headerLen) < uint64(n) {
		return nil, io.ErrUnexpectedEOF
	}
	return jsonDecode(stream[headerLen : headerLen+int(n)])
}

// sameOutcome fails unless (got, gotErr) is the json path's (want, wantErr):
// equal messages, or errors of the same class — a *ProtocolError with the
// same reason, or both transient.
func sameOutcome(t testing.TB, what string, got *Message, gotErr error, want *Message, wantErr error) {
	t.Helper()
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("%s: err = %v, json path: %v", what, gotErr, wantErr)
	}
	if gotErr == nil {
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: decoded\n  %+v\njson path:\n  %+v", what, got, want)
		}
		return
	}
	var gp, wp *ProtocolError
	if errors.As(gotErr, &gp) != errors.As(wantErr, &wp) || Transient(gotErr) != Transient(wantErr) {
		t.Fatalf("%s: err = %v, json path: %v (different class)", what, gotErr, wantErr)
	}
	if gp != nil && gp.Reason != wp.Reason {
		t.Fatalf("%s: err = %v, json path: %v", what, gotErr, wantErr)
	}
}

// busyTargets returns decode targets that have just decoded a frame using
// every recycled slice, so stale state shows up in whatever is decoded next.
func busyTargets(t testing.TB) *decodeTargets {
	t.Helper()
	busy := &Message{
		Type: MsgShardDelta, EdgeID: 9, Slot: 77, Resume: true, Switch: true, Degrade: true, Seed: -5,
		Weights: []byte("stale weights"), AvgLoss: 0.5, Arms: []int{7, 8, 9}, Downloads: []bool{true, false, true},
		Delta: &engine.SlotDelta{Start: 4, Edges: []engine.EdgeDelta{{Loss: 1, Served: true}, {Retries: 2, WentDown: true}, {}}},
	}
	body, ok := appendMessage(nil, busy)
	if !ok {
		t.Fatal("the busy frame left the fast path")
	}
	tg := new(decodeTargets)
	if !tg.decodeFast(body) {
		t.Fatal("the busy frame did not decode on the fast path")
	}
	return tg
}

// checkDecode holds one frame body to the decoder's contract.
func checkDecode(t testing.TB, body []byte) {
	t.Helper()
	want, wantErr := jsonDecode(body)

	var fresh decodeTargets
	if fresh.decodeFast(body) {
		var viaJSON Message
		if err := json.Unmarshal(body, &viaJSON); err != nil {
			t.Fatalf("fast path accepted %q, json rejects it: %v", body, err)
		}
		if !reflect.DeepEqual(&fresh.msg, &viaJSON) {
			t.Fatalf("fast path decoded %q to\n  %+v\njson:\n  %+v", body, &fresh.msg, &viaJSON)
		}
	}
	got, err := new(decodeTargets).decode(body)
	sameOutcome(t, fmt.Sprintf("decode %q", body), got, err, want, wantErr)
	got, err = busyTargets(t).decode(body)
	sameOutcome(t, fmt.Sprintf("decode into recycled targets %q", body), got, err, want, wantErr)
}

// checkEncode holds one message to the encoder's contract and returns its
// frame body (nil when the message cannot be marshalled at all).
func checkEncode(t testing.TB, m *Message) []byte {
	t.Helper()
	want, wantErr := json.Marshal(m)
	got, ok := appendMessage(nil, m)
	if ok {
		if wantErr != nil {
			t.Fatalf("fast path encoded %+v, json refuses it: %v", m, wantErr)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("fast path encoded %+v as\n  %s\njson:\n  %s", m, got, want)
		}
	}
	// Appending must not disturb what is already in the buffer, and a
	// declined message must leave nothing behind.
	prefix := []byte("prefix")
	if out, ok2 := appendMessage(prefix, m); ok2 != ok || !bytes.HasPrefix(out, prefix) ||
		(ok && !bytes.Equal(out[len(prefix):], want)) || (!ok && len(out) != len(prefix)) {
		t.Fatalf("appendMessage onto a prefix: ok=%v out=%q", ok2, out)
	}
	var frame bytes.Buffer
	err := WriteMessage(&frame, m)
	if (err == nil) != (wantErr == nil) {
		t.Fatalf("WriteMessage(%+v) = %v, json.Marshal: %v", m, err, wantErr)
	}
	if err != nil {
		return nil
	}
	if b := frame.Bytes(); binary.BigEndian.Uint32(b) != uint32(len(want)) || !bytes.Equal(b[headerLen:], want) {
		t.Fatalf("WriteMessage(%+v) framed\n  %q\nwant body\n  %s", m, b, want)
	}
	return want
}

// edgeFloats are the float64 values whose formatting has a corner: the %e
// cutoffs, the e-09 clean-up, signed zero, denormals, the extremes and the
// values neither codec may encode.
var edgeFloats = []float64{
	0, math.Copysign(0, -1), 1e-7, 1e-6, 9.999999e-7, 1e-9, 4.2e-10, 1e20, 1e21, 1.5e300,
	5e-324, 2.2250738585072014e-308, math.MaxFloat64, -math.MaxFloat64, 0.1, 1.0 / 3, 123456789.125,
	math.NaN(), math.Inf(1), math.Inf(-1),
}

func genFloat(r *rand.Rand) float64 {
	switch r.Intn(8) {
	case 0:
		return edgeFloats[r.Intn(len(edgeFloats))]
	case 1:
		return math.Float64frombits(r.Uint64())
	case 2:
		return r.NormFloat64() * math.Pow(10, float64(r.Intn(60)-30))
	case 3:
		return 0
	}
	return r.Float64()
}

func genInt(r *rand.Rand) int {
	switch r.Intn(8) {
	case 0:
		return []int{math.MaxInt64, math.MinInt64, -1, 1 << 53, 999999999999999999, 1000000000000000000}[r.Intn(6)]
	case 1:
		return -r.Intn(1000)
	case 2, 3:
		return 0
	}
	return r.Intn(100000)
}

func genString(r *rand.Rand) string {
	return []string{"boom", "", "tok-\"quoted\"", "<html>&", "é ", "edge 3: deploy: protocol: bad"}[r.Intn(6)]
}

func genEdgeDelta(r *rand.Rand, stringy bool) engine.EdgeDelta {
	if r.Intn(6) == 0 {
		return engine.EdgeDelta{} // a down edge: {}
	}
	ed := engine.EdgeDelta{
		Loss: genFloat(r), InferLoss: genFloat(r), Compute: genFloat(r), Correct: genInt(r), Samples: genInt(r),
		InferKWh: genFloat(r), Served: r.Intn(4) > 0,
	}
	if r.Intn(3) == 0 {
		ed.TransferKWh = genFloat(r)
	}
	if r.Intn(5) == 0 {
		ed.Retries, ed.WentDown = genInt(r), r.Intn(2) == 0
	}
	if stringy && r.Intn(3) == 0 {
		ed.DownError = genString(r)
	}
	return ed
}

// genMessage draws a message: mostly the four hot shapes with their corner
// values, sometimes a message the fast path must hand to encoding/json, and
// sometimes every field at once.
func genMessage(r *rand.Rand) *Message {
	m := &Message{Type: MsgType(1 + r.Intn(int(MsgShardAdopt)))}
	stringy := r.Intn(8) == 0
	switch r.Intn(6) {
	case 0: // Assign
		m.Type, m.Slot, m.ModelID, m.Switch = MsgAssign, genInt(r), genInt(r), r.Intn(2) == 0
		if m.Switch {
			m.Weights = make([]byte, r.Intn(200))
			r.Read(m.Weights)
		}
	case 1: // Report
		m.Type, m.Slot, m.EdgeID, m.ModelID = MsgReport, genInt(r), genInt(r), genInt(r)
		m.AvgLoss, m.Correct, m.Samples, m.EnergyKWh, m.CompSeconds = genFloat(r), genInt(r), genInt(r), genFloat(r), genFloat(r)
	case 2: // ShardAssign
		m.Type, m.Slot, m.Start, m.Count = MsgShardAssign, genInt(r), genInt(r), genInt(r)
		n := r.Intn(6)
		m.Arms, m.Downloads = make([]int, n), make([]bool, n)
		for j := range m.Arms {
			m.Arms[j], m.Downloads[j] = genInt(r), r.Intn(2) == 0
		}
		if n == 0 && r.Intn(2) == 0 {
			m.Arms, m.Downloads = nil, nil
		}
	case 3: // ShardDelta
		m.Type, m.Slot = MsgShardDelta, genInt(r)
		m.Delta = &engine.SlotDelta{Start: genInt(r)}
		if r.Intn(8) > 0 {
			m.Delta.Edges = make([]engine.EdgeDelta, r.Intn(5))
			for j := range m.Delta.Edges {
				m.Delta.Edges[j] = genEdgeDelta(r, stringy)
			}
		}
	case 4: // handshake and control frames
		m.EdgeID, m.RegionID, m.NumModels, m.Horizon = genInt(r), genInt(r), genInt(r), genInt(r)
		m.Resume, m.Degrade, m.DoneSlots, m.Seed = r.Intn(2) == 0, r.Intn(2) == 0, genInt(r), int64(genInt(r))
	default: // everything
		m.Type = MsgType(genInt(r))
		m.EdgeID, m.NumModels, m.DoneSlots, m.Slot, m.ModelID = genInt(r), genInt(r), genInt(r), genInt(r), genInt(r)
		m.Resume, m.Switch, m.Degrade = r.Intn(2) == 0, r.Intn(2) == 0, r.Intn(2) == 0
		m.Weights = []byte{0xff, 0xfe, 0x00}[:r.Intn(4)]
		m.AvgLoss, m.EnergyKWh, m.CompSeconds = genFloat(r), genFloat(r), genFloat(r)
		m.Correct, m.Samples, m.RegionID, m.Start, m.Count, m.Horizon = genInt(r), genInt(r), genInt(r), genInt(r), genInt(r), genInt(r)
		m.Arms, m.Downloads = []int{genInt(r)}, []bool{true, false}
		m.Delta = &engine.SlotDelta{Start: genInt(r), Edges: []engine.EdgeDelta{genEdgeDelta(r, stringy), genEdgeDelta(r, stringy)}}
		m.Seed = int64(genInt(r))
	}
	if stringy {
		switch r.Intn(4) {
		case 0:
			m.Reason = genString(r)
		case 1:
			m.ResumeToken = genString(r)
		case 2:
			m.Models = []ModelMeta{{Name: genString(r), PhiKWh: genFloat(r), SizeBytes: int64(genInt(r))}}
		case 3:
			m.Checkpoint = &engine.ShardCheckpoint{Start: genInt(r), Count: 2, Down: []bool{true, false}, DownErrors: []string{genString(r), ""}}
		}
	}
	return m
}

// mutate returns body with one small edit: a flipped, replaced, inserted or
// deleted byte, a truncation, or a doubled member.
func mutate(r *rand.Rand, body []byte) []byte {
	out := append([]byte(nil), body...)
	if len(out) == 0 {
		return out
	}
	i := r.Intn(len(out))
	switch r.Intn(6) {
	case 0:
		out[i] ^= 0xff // what faultCorrupt does
	case 1:
		out[i] = ` "{}[],:.-+eE0123456789tfn\`[r.Intn(27)]
	case 2:
		out = append(out[:i], append([]byte{" \n0,\"e"[r.Intn(6)]}, out[i:]...)...)
	case 3:
		out = append(out[:i], out[i+1:]...)
	case 4:
		out = out[:i] // what faultTruncate leaves of the body
	case 5:
		out = append(out[:len(out)-1], `,"slot":3}`...)
	}
	return out
}

// TestWireCodecMatchesJSON is the differential test: 20 000 random messages
// through both encoders, their bodies and a mutation of each through both
// decoders.
func TestWireCodecMatchesJSON(t *testing.T) {
	r := numeric.SplitRNG(12, "wire-codec-differential")
	fast := 0
	for k := 0; k < 20000; k++ {
		m := genMessage(r)
		if _, ok := appendMessage(nil, m); ok {
			fast++
		}
		body := checkEncode(t, m)
		if body == nil {
			continue
		}
		checkDecode(t, body)
		checkDecode(t, mutate(r, body))
	}
	// The generator is weighted towards the hot shapes; if most of its
	// messages left the fast path the test would be comparing json to json.
	if fast < 12000 {
		t.Fatalf("only %d of 20000 generated messages took the fast path", fast)
	}
}

// TestWireCodecCanonicalCorners pins the hand-picked cases the random
// generator may not hit: each is checked against json in both directions.
func TestWireCodecCanonicalCorners(t *testing.T) {
	for _, f := range edgeFloats {
		checkEncode(t, &Message{Type: MsgReport, AvgLoss: f, EnergyKWh: 1e-7, CompSeconds: 0.05})
		checkEncode(t, &Message{Type: MsgShardDelta, Delta: &engine.SlotDelta{Edges: []engine.EdgeDelta{{Loss: f}, {TransferKWh: f}}}})
	}
	for _, m := range []*Message{
		{},
		{Type: MsgDone},
		{Type: MsgAssign, Weights: []byte{}},
		{Type: MsgShardAssign, Arms: []int{}, Downloads: []bool{}},
		{Type: MsgShardDelta, Delta: &engine.SlotDelta{}},
		{Type: MsgShardDelta, Delta: &engine.SlotDelta{Edges: []engine.EdgeDelta{}}},
		{Type: MsgShardDelta, Delta: &engine.SlotDelta{Start: 3, Edges: []engine.EdgeDelta{{}, {WentDown: true, DownError: "gone"}}}},
		{Type: MsgError, Reason: "boom"},
	} {
		if body := checkEncode(t, m); body != nil {
			checkDecode(t, body)
		}
	}
	for _, body := range []string{
		``, `{}`, `null`, `{"type":3}`, `{"type":3} `, ` {"type":3}`, `{"type":3}{"type":3}`, `{"type":03}`, `{"type":3.0}`,
		`{"type":-0}`, `{"type":99}`, `{"type":3,"slot":0}`, `{"type":3,"slot":null}`, `{"type":3,"Slot":5}`,
		`{"type":3,"slot":5,"slot":6}`, `{"slot":5,"type":3}`, `{"type":3,"switch":false}`, `{"type":3,"switch":1}`,
		`{"type":3,"slot":99999999999999999999}`, `{"type":3,"slot":1e3}`, `{"type":3,"slot":-7}`,
		`{"type":4,"avgLoss":1E5}`, `{"type":4,"avgLoss":-0}`, `{"type":4,"avgLoss":1e999}`, `{"type":4,"avgLoss":.5}`,
		`{"type":4,"avgLoss":5.}`, `{"type":4,"avgLoss":+5}`, `{"type":4,"avgLoss":0x10}`, `{"type":4,"avgLoss":1e-400}`,
		`{"type":4,"avgLoss":Infinity}`, `{"type":4,"avgLoss":"0.5"}`, `{"type":4,"avgLoss":0.1000000000000000055511151231257827021181583404541015625}`,
		`{"type":3,"weights":""}`, `{"type":3,"weights":"AQID"}`, `{"type":3,"weights":"AQI="}`, `{"type":3,"weights":"AQI"}`,
		`{"type":3,"weights":"AQ\nID"}`, `{"type":3,"weights":"AQID"}`, `{"type":3,"weights":"A*ID"}`, `{"type":3,"weights":"AR=="}`,
		`{"type":3,"weights":"AQ\"ID"}`, `{"type":3,"weights":"AQ\u0049D"}`, `{"type":3,"weights":"AQID`, `{"type":3,"weights":"AQID\"}`,
		"{\"type\":3,\"weights\":\"AQ\rID\"}", "{\"type\":3,\"weights\":\"AQ\nID\"}", "{\"type\":3,\"weights\":\"AQ\tID\"}", "{\"type\":3,\"weights\":\"AQID\r\n\"}",
		`{"type":9,"arms":[]}`, `{"type":9,"arms":[1,]}`, `{"type":9,"arms":[1 ,2]}`, `{"type":9,"arms":[1,2],"downloads":[true,false]}`,
		`{"type":9,"arms":null}`, `{"type":9,"downloads":[1]}`, `{"type":9,"arms":[1.5]}`,
		`{"type":10,"delta":{"start":0,"edges":[]}}`, `{"type":10,"delta":{"start":0,"edges":null}}`, `{"type":10,"delta":null}`,
		`{"type":10,"delta":{"edges":[],"start":0}}`, `{"type":10,"delta":{"start":0}}`, `{"type":10,"delta":{"start":0,"edges":[{}]}}`,
		`{"type":10,"delta":{"start":0,"edges":[{},{"served":true}]}}`, `{"type":10,"delta":{"start":0,"edges":[{,"served":true}]}}`,
		`{"type":10,"delta":{"start":0,"edges":[{"served":true,"loss":1}]}}`, `{"type":10,"delta":{"start":0,"edges":[{"downError":"x"}]}}`,
		`{"type":10,"delta":{"start":0,"edges":[{}],"extra":1}}`, `{"type":10,"delta":{"start":0,"edges":[{}]},"seed":-9}`,
		`{"type":6,"reason":"boom"}`, `{"type":1,"edgeId":3,"resume":true,"resumeToken":"t","doneSlots":4}`,
	} {
		checkDecode(t, []byte(body))
	}
}

// hotFrames returns one real frame of each hot message type, checkpoint
// Assign included, for a shard of the given size with a checkpoint of 4 bytes
// per edge: the fuzz seeds (small, so the fuzzer can minimize them) and the
// codec benchmarks (the region-fleet workload's 1 000-edge shards) share them.
func hotFrames(shard int) map[string]*Message {
	r := numeric.SplitRNG(5, "hot-frames")
	weights := make([]byte, 4*shard)
	r.Read(weights)
	assign := &Message{Type: MsgShardAssign, Slot: 41, Start: shard, Count: shard, Arms: make([]int, shard), Downloads: make([]bool, shard)}
	delta := &engine.SlotDelta{Start: shard, Edges: make([]engine.EdgeDelta, shard)}
	for j := 0; j < shard; j++ {
		assign.Arms[j], assign.Downloads[j] = r.Intn(6), r.Intn(10) == 0
		loss, comp := 0.1+r.Float64(), 0.01+0.05*r.Float64()
		delta.Edges[j] = engine.EdgeDelta{
			Loss: loss + comp, InferLoss: loss, Compute: comp, Correct: r.Intn(5), Samples: 4 + r.Intn(5),
			InferKWh: 7e-8 * float64(4+r.Intn(5)), Served: true,
		}
		if assign.Downloads[j] {
			delta.Edges[j].TransferKWh = 1.2e-6 * r.Float64()
		}
	}
	return map[string]*Message{
		"Assign":      {Type: MsgAssign, Slot: 41, ModelID: 3},
		"AssignCkpt":  {Type: MsgAssign, Slot: 41, ModelID: 3, Switch: true, Weights: weights},
		"Report":      {Type: MsgReport, Slot: 41, EdgeID: 1207, ModelID: 3, AvgLoss: 0.4371028, Correct: 5, Samples: 7, EnergyKWh: 4.9e-7, CompSeconds: 0.0312},
		"ShardAssign": assign,
		"ShardDelta":  {Type: MsgShardDelta, Slot: 41, Delta: delta},
	}
}

// hotFrameNames fixes the iteration order over hotFrames.
var hotFrameNames = []string{"Assign", "AssignCkpt", "Report", "ShardAssign", "ShardDelta"}

// The session the adopt frames below are judged against: an 8-slot run whose
// coordinators retry twice per slot.
const adoptHorizon, adoptAttempts = 8, 2

// hostileCheckpoints are checkpoints that claim more than their frame
// carried or their session can have produced; each would have the adopter
// allocate or spin on a number alone. TestRegionSessionRejectsHostileAdopt
// puts them on a coordinator's upstream link, and they seed FuzzReadMessage
// here and FuzzShardCheckpoint in internal/engine.
var hostileCheckpoints = map[string]string{
	"slice-less oversized count": `{"start":0,"count":1099511627776,"fleetSeed":7}`,
	"overflowing start+count":    `{"start":9223372036854775807,"count":1,"fleetSeed":7,"down":[false],"downErrors":[""],"jitterDraws":[0]}`,
	"doneSlots past the horizon": `{"start":0,"count":1,"doneSlots":9,"fleetSeed":7,"down":[false],"downErrors":[""],"jitterDraws":[0]}`,
	"jitterDraws of 2^62":        `{"start":0,"count":1,"doneSlots":4,"fleetSeed":7,"down":[false],"downErrors":[""],"jitterDraws":[4611686018427387904]}`,
}

// adoptFrame frames a ShardAdopt carrying the checkpoint's JSON as written.
func adoptFrame(checkpoint string) []byte {
	body := fmt.Sprintf(`{"type":%d,"checkpoint":%s}`, MsgShardAdopt, checkpoint)
	return append(binary.BigEndian.AppendUint32(nil, uint32(len(body))), body...)
}

// checkValidators runs a decoded message through its type's validator. None
// may panic on anything the decoder lets through; a Report or ShardDelta that
// passes holds only finite non-negative terms, and a ShardAdopt that passes
// is no larger than the bytes that carried it and the session's bounds.
func checkValidators(t testing.TB, m *Message, frameLen int) {
	t.Helper()
	ok := func(what string, vs ...float64) {
		for _, v := range vs {
			if !(0 <= v && v < math.Inf(1)) {
				t.Fatalf("validated %s carries the term %v: %+v", what, v, m)
			}
		}
	}
	switch m.Type {
	case MsgReport:
		if ValidateReport(m) == nil {
			ok("report", m.AvgLoss, m.EnergyKWh, m.CompSeconds, float64(m.Samples), float64(m.Correct))
		}
	case MsgShardDelta:
		start, count := 0, 0
		if m.Delta != nil {
			start, count = m.Delta.Start, len(m.Delta.Edges)
		}
		if ValidateDelta(m, start, count, m.Slot) == nil {
			for _, ed := range m.Delta.Edges {
				ok("shard delta", ed.Loss, ed.InferLoss, ed.Compute, ed.InferKWh, ed.TransferKWh,
					float64(ed.Samples), float64(ed.Correct), float64(ed.Retries))
			}
		}
	case MsgShardAdopt:
		if ValidateAdopt(m, adoptHorizon, adoptAttempts) == nil {
			ck := m.Checkpoint
			if ck.Count > frameLen || ck.DoneSlots > adoptHorizon {
				t.Fatalf("validated a %d-byte adopt of %d edges at slot %d", frameLen, ck.Count, ck.DoneSlots)
			}
			for _, n := range ck.JitterDraws {
				if n > adoptHorizon*adoptAttempts {
					t.Fatalf("validated an adopt that replays %d jitter draws", n)
				}
			}
		}
	}
}

// FuzzReadMessage feeds arbitrary streams to ReadMessage: it never panics,
// whatever the fast path accepts equals json's decoding, and whatever it
// declines comes out exactly as the json path decides — the same message, or
// the same *ProtocolError, or a transient truncated read. A message that
// decodes then meets its validator (checkValidators).
func FuzzReadMessage(f *testing.F) {
	r := numeric.SplitRNG(3, "fuzz-read-seeds")
	for _, name := range hotFrameNames {
		b := frameOf(f, hotFrames(6)[name])
		f.Add(b)
		// What the chaos suites put on the wire: faultTruncate's strict
		// body prefix and faultCorrupt's flipped body byte.
		f.Add(b[:headerLen+1+r.Intn(len(b)-headerLen-1)])
		flipped := append([]byte(nil), b...)
		flipped[headerLen+r.Intn(len(b)-headerLen)] ^= 0xff
		f.Add(flipped)
	}
	f.Add([]byte{0x3f, 0xff, 0xff, 0xff, '{', '"', 't', 'y', 'p', 'e', '"', ':', '3', '}'})
	f.Add([]byte{0, 0, 0, 2, '{', '}'})
	f.Add([]byte{0, 0})
	for _, ck := range hostileCheckpoints {
		f.Add(adoptFrame(ck))
	}
	f.Fuzz(func(t *testing.T, stream []byte) {
		want, wantErr := jsonRead(stream)
		got, err := ReadMessage(bytes.NewReader(stream))
		sameOutcome(t, "ReadMessage", got, err, want, wantErr)
		if err == nil {
			checkValidators(t, got, len(stream))
		}
		// The connection reader takes the same stream in read-ahead mode.
		got, err = (&frameReader{r: bytes.NewReader(stream)}).next()
		sameOutcome(t, "frameReader.next", got, err, want, wantErr)
		if len(stream) >= headerLen {
			if n := binary.BigEndian.Uint32(stream); uint64(n) <= uint64(len(stream)-headerLen) {
				checkDecode(t, stream[headerLen:headerLen+int(n)])
			}
		}
	})
}

// FuzzMessageEncode generates messages — the seed picks the shape, the fuzzed
// floats, integer and bytes land in its hot fields — and holds the fast
// encoder to json.Marshal's bytes, NaN and Inf refused by both; every frame
// it writes is then read back through both decoders.
func FuzzMessageEncode(f *testing.F) {
	for seed, x := range edgeFloats {
		f.Add(int64(seed), x, edgeFloats[(seed+7)%len(edgeFloats)], seed*1000, []byte{1, 2, 3})
	}
	f.Add(int64(99), 0.25, 1e-7, math.MinInt64, []byte(nil))
	f.Fuzz(func(t *testing.T, seed int64, x, y float64, n int, weights []byte) {
		m := genMessage(rand.New(rand.NewSource(seed)))
		switch m.Type {
		case MsgAssign:
			m.Slot, m.Weights = n, weights
		case MsgReport:
			m.AvgLoss, m.EnergyKWh, m.Samples = x, y, n
		case MsgShardAssign:
			m.Arms, m.Downloads = append(m.Arms, n), append(m.Downloads, n%2 == 0)
		case MsgShardDelta:
			if m.Delta != nil && len(m.Delta.Edges) > 0 {
				ed := &m.Delta.Edges[0]
				ed.Loss, ed.InferKWh, ed.Retries = x, y, n
			}
		default:
			m.CompSeconds, m.Seed = x, int64(n)
		}
		if body := checkEncode(t, m); body != nil {
			checkDecode(t, body)
		}
	})
}
