package deploy

import (
	"bytes"
	"encoding/base64"
	"math"
	"strconv"

	"github.com/carbonedge/carbonedge/internal/engine"
)

// The fast wire codec: an append-style encoder and a strict decoder for the
// canonical JSON form of a Message — the exact bytes encoding/json produces
// for it (struct field order, omitempty, ES6-style floats, std base64 for
// Weights) — written without reflection and without per-frame garbage.
//
// The shape rule. The fast path covers what a slot's frames and an edge's
// first Hello carry: type, edgeId, slot, modelId, switch, Weights, the report
// terms, start, Arms, Downloads and a Delta whose edges carry no DownError.
// A message with any other member set — a string or a nested struct (Reason,
// ResumeToken, Models, Checkpoint, a non-empty DownError, a Delta with nil
// Edges), a non-finite float, or a member only handshake and rebalancing
// frames use (numModels, resume, regionId, degrade, seed) — is not encoded
// here, and a body that is anything but the canonical form of a covered
// message is not decoded here: both fall through to encoding/json in
// protocol.go, which stays the authority for every such frame and for every
// error. The decoder therefore accepts only input
// encoding/json decodes to the same Message; fuzz_test.go holds it to that.

// appendMessage appends m's canonical JSON to dst. ok is false — with dst
// returned at its original length — when m is outside the fast path's shape.
func appendMessage(dst []byte, m *Message) (out []byte, ok bool) {
	if len(m.Models) > 0 || m.ResumeToken != "" || m.Reason != "" || m.Checkpoint != nil ||
		m.NumModels != 0 || m.Resume || m.RegionID != 0 || m.Degrade || m.Seed != 0 ||
		!finite(m.AvgLoss) || !finite(m.EnergyKWh) || !finite(m.CompSeconds) ||
		(m.Delta != nil && m.Delta.Edges == nil) {
		return dst, false
	}
	b := append(dst, `{"type":`...)
	b = strconv.AppendInt(b, int64(m.Type), 10)
	b = appendInt(b, `,"edgeId":`, m.EdgeID)
	b = appendInt(b, `,"slot":`, m.Slot)
	b = appendInt(b, `,"modelId":`, m.ModelID)
	b = appendTrue(b, `,"switch":true`, m.Switch)
	if len(m.Weights) > 0 {
		b = append(b, `,"weights":"`...)
		b = base64.StdEncoding.AppendEncode(b, m.Weights)
		b = append(b, '"')
	}
	b = appendFloat(b, `,"avgLoss":`, m.AvgLoss)
	b = appendInt(b, `,"correct":`, m.Correct)
	b = appendInt(b, `,"samples":`, m.Samples)
	b = appendFloat(b, `,"energyKwh":`, m.EnergyKWh)
	b = appendFloat(b, `,"compSeconds":`, m.CompSeconds)
	b = appendInt(b, `,"start":`, m.Start)
	if len(m.Arms) > 0 {
		b = append(b, `,"arms":[`...)
		for j, a := range m.Arms {
			if j > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendInt(b, int64(a), 10)
		}
		b = append(b, ']')
	}
	if len(m.Downloads) > 0 {
		b = append(b, `,"downloads":[`...)
		for j, d := range m.Downloads {
			if j > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendBool(b, d)
		}
		b = append(b, ']')
	}
	if m.Delta != nil {
		b = append(b, `,"delta":{"start":`...)
		b = strconv.AppendInt(b, int64(m.Delta.Start), 10)
		b = append(b, `,"edges":[`...)
		for j := range m.Delta.Edges {
			if j > 0 {
				b = append(b, ',')
			}
			if b, ok = appendEdgeDelta(b, &m.Delta.Edges[j]); !ok {
				return dst, false
			}
		}
		b = append(b, `]}`...)
	}
	return append(b, '}'), true
}

// appendEdgeDelta appends one edge's delta object. Every member is
// omitempty, so the member separator depends on what came before: each key
// literal carries a leading comma and the first one written has it replaced
// by the opening brace.
func appendEdgeDelta(b []byte, ed *engine.EdgeDelta) ([]byte, bool) {
	if ed.DownError != "" || !finite(ed.Loss) || !finite(ed.InferLoss) || !finite(ed.Compute) ||
		!finite(ed.InferKWh) || !finite(ed.TransferKWh) {
		return b, false
	}
	open := len(b)
	b = appendFloat(b, `,"loss":`, ed.Loss)
	b = appendFloat(b, `,"inferLoss":`, ed.InferLoss)
	b = appendFloat(b, `,"compute":`, ed.Compute)
	b = appendInt(b, `,"correct":`, ed.Correct)
	b = appendInt(b, `,"samples":`, ed.Samples)
	b = appendFloat(b, `,"inferKwh":`, ed.InferKWh)
	b = appendFloat(b, `,"transferKwh":`, ed.TransferKWh)
	b = appendInt(b, `,"retries":`, ed.Retries)
	b = appendTrue(b, `,"served":true`, ed.Served)
	b = appendTrue(b, `,"wentDown":true`, ed.WentDown)
	if len(b) == open {
		return append(b, `{}`...), true
	}
	b[open] = '{'
	return append(b, '}'), true
}

func finite(f float64) bool { return !math.IsNaN(f) && !math.IsInf(f, 0) }

// appendInt appends an omitempty integer member.
func appendInt(b []byte, key string, v int) []byte {
	if v == 0 {
		return b
	}
	return strconv.AppendInt(append(b, key...), int64(v), 10)
}

// appendTrue appends an omitempty boolean member; member is the whole
// `,"key":true` literal, since false is never written.
func appendTrue(b []byte, member string, v bool) []byte {
	if !v {
		return b
	}
	return append(b, member...)
}

// appendFloat appends an omitempty float member in encoding/json's number
// format: the shortest round-tripping digits, %e outside [1e-6, 1e21) with
// the exponent's leading zero dropped (e-09 → e-9). Negative zero is empty,
// as it is for encoding/json.
func appendFloat(b []byte, key string, f float64) []byte {
	if f == 0 {
		return b
	}
	b = append(b, key...)
	format := byte('f')
	if abs := math.Abs(f); abs < 1e-6 || abs >= 1e21 {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

// decodeTargets are the reusable decode targets of one frame reader: the
// Message the fast path fills and the backing arrays of its slices, recycled
// from frame to frame. A decoded message is valid until the reader's next
// frame.
type decodeTargets struct {
	msg       Message
	delta     engine.SlotDelta
	arms      []int
	downloads []bool
	edges     []engine.EdgeDelta
	weights   []byte
}

// decodeFast decodes a canonical-form body into t.msg. It reports false, with
// t.msg in an unspecified state, for anything else: the caller then asks
// encoding/json.
func (t *decodeTargets) decodeFast(body []byte) bool {
	m := &t.msg
	*m = Message{}
	s := scanner{b: body}
	s.lit(`{"type":`)
	m.Type = MsgType(s.int())
	if s.member(`"edgeId":`) {
		m.EdgeID = s.int()
	}
	if s.member(`"slot":`) {
		m.Slot = s.int()
	}
	if s.member(`"modelId":`) {
		m.ModelID = s.int()
	}
	if s.member(`"switch":`) {
		m.Switch = s.bool()
	}
	if s.member(`"weights":`) {
		t.weights = s.base64(t.weights[:0])
		m.Weights = t.weights
	}
	if s.member(`"avgLoss":`) {
		m.AvgLoss = s.float()
	}
	if s.member(`"correct":`) {
		m.Correct = s.int()
	}
	if s.member(`"samples":`) {
		m.Samples = s.int()
	}
	if s.member(`"energyKwh":`) {
		m.EnergyKWh = s.float()
	}
	if s.member(`"compSeconds":`) {
		m.CompSeconds = s.float()
	}
	if s.member(`"start":`) {
		m.Start = s.int()
	}
	if s.member(`"arms":`) {
		t.arms = t.arms[:0]
		for s.elem(len(t.arms) == 0) {
			t.arms = append(t.arms, s.int())
		}
		m.Arms = t.arms
	}
	if s.member(`"downloads":`) {
		t.downloads = t.downloads[:0]
		for s.elem(len(t.downloads) == 0) {
			t.downloads = append(t.downloads, s.bool())
		}
		m.Downloads = t.downloads
	}
	if s.member(`"delta":`) {
		s.lit(`{"start":`)
		t.delta.Start = s.int()
		s.lit(`,"edges":[`)
		if t.edges == nil {
			t.edges = []engine.EdgeDelta{} // "edges":[] decodes non-nil
		}
		t.edges = t.edges[:0]
		for !s.bad && !s.peek(']') {
			if len(t.edges) > 0 {
				s.lit(`,`)
			}
			t.edges = append(t.edges, engine.EdgeDelta{})
			s.edgeDelta(&t.edges[len(t.edges)-1])
		}
		s.lit(`]}`)
		t.delta.Edges = t.edges
		m.Delta = &t.delta
	}
	s.lit(`}`)
	return !s.bad && s.i == len(body)
}

// scanner walks one canonical-form body. Every method is a no-op once bad
// is set, so a decoder reads as straight-line code and checks bad once.
type scanner struct {
	b   []byte
	i   int
	bad bool
	// open is set between an object's opening brace and its first member,
	// where a member key takes no separating comma.
	open bool
}

// lit consumes the literal s.
func (s *scanner) lit(lit string) {
	if s.bad || len(s.b)-s.i < len(lit) || string(s.b[s.i:s.i+len(lit)]) != lit {
		s.bad = true
		return
	}
	s.i += len(lit)
}

// peek reports whether c is the next byte.
func (s *scanner) peek(c byte) bool { return s.i < len(s.b) && s.b[s.i] == c }

// member consumes the member key (`"name":`, with the comma that separates
// it from the previous member) if it is next.
func (s *scanner) member(key string) bool {
	if s.bad {
		return false
	}
	i := s.i
	if !s.open {
		if !s.peek(',') {
			return false
		}
		i++
	}
	if len(s.b)-i < len(key) || string(s.b[i:i+len(key)]) != key {
		return false
	}
	s.i = i + len(key)
	s.open = false
	return true
}

// elem steps through a non-empty array: it consumes the opening bracket
// before the first element, the comma before each later one, and the closing
// bracket — reporting false — after the last. The canonical form never holds
// an empty array (omitempty drops it), so `[]` is refused.
func (s *scanner) elem(first bool) bool {
	switch {
	case s.bad:
		return false
	case first:
		s.lit(`[`)
		if s.peek(']') {
			s.bad = true
		}
	case s.peek(']'):
		s.i++
		return false
	default:
		s.lit(`,`)
	}
	return !s.bad
}

// edgeDelta decodes one edge's delta object.
func (s *scanner) edgeDelta(ed *engine.EdgeDelta) {
	s.lit(`{`)
	s.open = true
	if s.member(`"loss":`) {
		ed.Loss = s.float()
	}
	if s.member(`"inferLoss":`) {
		ed.InferLoss = s.float()
	}
	if s.member(`"compute":`) {
		ed.Compute = s.float()
	}
	if s.member(`"correct":`) {
		ed.Correct = s.int()
	}
	if s.member(`"samples":`) {
		ed.Samples = s.int()
	}
	if s.member(`"inferKwh":`) {
		ed.InferKWh = s.float()
	}
	if s.member(`"transferKwh":`) {
		ed.TransferKWh = s.float()
	}
	if s.member(`"retries":`) {
		ed.Retries = s.int()
	}
	if s.member(`"served":`) {
		ed.Served = s.bool()
	}
	if s.member(`"wentDown":`) {
		ed.WentDown = s.bool()
	}
	s.lit(`}`)
	s.open = false
}

// bool consumes true or false.
func (s *scanner) bool() bool {
	if s.peek('t') {
		s.lit(`true`)
		return !s.bad
	}
	s.lit(`false`)
	return false
}

// int consumes a JSON integer that fits an int: -?(0|[1-9][0-9]*) of at most
// 18 digits (so it cannot overflow an int64), not continued by a fraction or
// an exponent.
func (s *scanner) int() int {
	if s.bad {
		return 0
	}
	i := s.i
	neg := s.peek('-')
	if neg {
		i++
	}
	start := i
	var v int64
	for ; i < len(s.b) && s.b[i] >= '0' && s.b[i] <= '9'; i++ {
		v = v*10 + int64(s.b[i]-'0')
	}
	if neg {
		v = -v
	}
	digits := i - start
	if digits == 0 || digits > 18 || (digits > 1 && s.b[start] == '0') || int64(int(v)) != v ||
		(i < len(s.b) && (s.b[i] == '.' || s.b[i] == 'e' || s.b[i] == 'E')) {
		s.bad = true
		return 0
	}
	s.i = i
	return int(v)
}

// float consumes a JSON number and parses it as encoding/json does, with
// strconv.ParseFloat; a literal out of float64's range is refused.
func (s *scanner) float() float64 {
	if s.bad {
		return 0
	}
	i := s.i
	if s.peek('-') {
		i++
	}
	end := skipDigits(s.b, i)
	if end == i || (end-i > 1 && s.b[i] == '0') {
		s.bad = true
		return 0
	}
	i = end
	if i < len(s.b) && s.b[i] == '.' {
		if end = skipDigits(s.b, i+1); end == i+1 {
			s.bad = true
			return 0
		}
		i = end
	}
	if i < len(s.b) && (s.b[i] == 'e' || s.b[i] == 'E') {
		i++
		if i < len(s.b) && (s.b[i] == '+' || s.b[i] == '-') {
			i++
		}
		if end = skipDigits(s.b, i); end == i {
			s.bad = true
			return 0
		}
		i = end
	}
	f, err := strconv.ParseFloat(string(s.b[s.i:i]), 64)
	if err != nil {
		s.bad = true
		return 0
	}
	s.i = i
	return f
}

// skipDigits returns the index of the first non-digit of b at or after i.
func skipDigits(b []byte, i int) int {
	for i < len(b) && b[i] >= '0' && b[i] <= '9' {
		i++
	}
	return i
}

// base64 consumes a non-empty, escape-free std-base64 string and appends its
// decoding to dst.
func (s *scanner) base64(dst []byte) []byte {
	s.lit(`"`)
	if s.bad {
		return dst
	}
	// The closing quote is the first one: an escaped quote leaves a backslash
	// in the body, and the decoder refuses it with every other byte outside
	// the alphabet. The CR and LF it would skip instead are not canonical.
	n := bytes.IndexByte(s.b[s.i:], '"')
	if n <= 0 {
		s.bad = true
		return dst
	}
	end := s.i + n
	if body := s.b[s.i:end]; bytes.IndexByte(body, '\r') >= 0 || bytes.IndexByte(body, '\n') >= 0 {
		s.bad = true
		return dst
	}
	dst, err := base64.StdEncoding.AppendDecode(dst, s.b[s.i:end])
	if err != nil {
		s.bad = true
		return dst
	}
	s.i = end + 1
	return dst
}
