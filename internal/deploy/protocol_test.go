package deploy

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/carbonedge/carbonedge/internal/numeric"
)

func TestMessageRoundTrip(t *testing.T) {
	tests := []struct {
		name string
		msg  Message
	}{
		{"hello", Message{Type: MsgHello, EdgeID: 3}},
		{"welcome", Message{Type: MsgWelcome, NumModels: 2, Models: []ModelMeta{
			{Name: "a", PhiKWh: 7e-8, SizeBytes: 100},
			{Name: "b", PhiKWh: 9e-8, SizeBytes: 200},
		}}},
		{"assign with weights", Message{Type: MsgAssign, Slot: 5, ModelID: 1, Switch: true, Weights: []byte{1, 2, 3}}},
		{"report", Message{Type: MsgReport, Slot: 5, EdgeID: 2, AvgLoss: 0.4, Correct: 30, Samples: 50, EnergyKWh: 1e-6, CompSeconds: 0.05}},
		{"done", Message{Type: MsgDone}},
		{"error", Message{Type: MsgError, Reason: "boom"}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := WriteMessage(&buf, &tt.msg); err != nil {
				t.Fatalf("WriteMessage: %v", err)
			}
			got, err := ReadMessage(&buf)
			if err != nil {
				t.Fatalf("ReadMessage: %v", err)
			}
			if got.Type != tt.msg.Type || got.EdgeID != tt.msg.EdgeID ||
				got.Slot != tt.msg.Slot || got.ModelID != tt.msg.ModelID ||
				got.Switch != tt.msg.Switch || got.Reason != tt.msg.Reason {
				t.Errorf("round trip mismatch: %+v vs %+v", got, tt.msg)
			}
			if !bytes.Equal(got.Weights, tt.msg.Weights) {
				t.Error("weights mismatch")
			}
			if len(tt.msg.Models) != len(got.Models) {
				t.Error("models mismatch")
			}
		})
	}
}

func TestReadMessageErrors(t *testing.T) {
	// Truncated header.
	if _, err := ReadMessage(strings.NewReader("ab")); err == nil {
		t.Error("expected error for short header")
	}
	// Oversized frame.
	var buf bytes.Buffer
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(maxFrame+1))
	buf.Write(hdr[:])
	if _, err := ReadMessage(&buf); err == nil {
		t.Error("expected error for oversized frame")
	}
	// Truncated body.
	buf.Reset()
	binary.BigEndian.PutUint32(hdr[:], 100)
	buf.Write(hdr[:])
	buf.WriteString("{}")
	if _, err := ReadMessage(&buf); err == nil {
		t.Error("expected error for short body")
	}
	// Invalid JSON.
	buf.Reset()
	binary.BigEndian.PutUint32(hdr[:], 3)
	buf.Write(hdr[:])
	buf.WriteString("{{{")
	if _, err := ReadMessage(&buf); err == nil {
		t.Error("expected error for bad json")
	}
	// Unknown type.
	buf.Reset()
	body := []byte(`{"type":99}`)
	binary.BigEndian.PutUint32(hdr[:], uint32(len(body)))
	buf.Write(hdr[:])
	buf.Write(body)
	if _, err := ReadMessage(&buf); err == nil {
		t.Error("expected error for unknown type")
	}
}

func TestResumeFieldsRoundTrip(t *testing.T) {
	msg := Message{Type: MsgHello, EdgeID: 2, Resume: true, ResumeToken: "tok-2", DoneSlots: 17}
	var buf bytes.Buffer
	if err := WriteMessage(&buf, &msg); err != nil {
		t.Fatal(err)
	}
	got, err := ReadMessage(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Resume || got.ResumeToken != "tok-2" || got.DoneSlots != 17 {
		t.Errorf("resume fields lost in transit: %+v", got)
	}
	// A plain hello keeps the resume fields off the wire entirely.
	buf.Reset()
	if err := WriteMessage(&buf, &Message{Type: MsgHello, EdgeID: 1}); err != nil {
		t.Fatal(err)
	}
	if s := buf.String(); strings.Contains(s, "resume") {
		t.Errorf("non-resume hello leaks resume fields: %s", s)
	}
}

func TestValidateReport(t *testing.T) {
	ok := Message{Type: MsgReport, Slot: 3, AvgLoss: 0.4, Correct: 3, Samples: 5, EnergyKWh: 1e-6, CompSeconds: 0.02}
	tests := []struct {
		name   string
		mutate func(*Message)
		valid  bool
	}{
		{"valid", func(*Message) {}, true},
		{"zero samples", func(m *Message) { m.Samples, m.Correct = 0, 0 }, true},
		{"wrong type", func(m *Message) { m.Type = MsgDone }, false},
		{"nan loss", func(m *Message) { m.AvgLoss = math.NaN() }, false},
		{"inf loss", func(m *Message) { m.AvgLoss = math.Inf(1) }, false},
		{"negative loss", func(m *Message) { m.AvgLoss = -0.1 }, false},
		{"nan energy", func(m *Message) { m.EnergyKWh = math.NaN() }, false},
		{"negative energy", func(m *Message) { m.EnergyKWh = -1e-9 }, false},
		{"negative compute", func(m *Message) { m.CompSeconds = -0.01 }, false},
		{"nan compute", func(m *Message) { m.CompSeconds = math.NaN() }, false},
		{"negative samples", func(m *Message) { m.Samples = -1 }, false},
		{"negative correct", func(m *Message) { m.Correct = -1 }, false},
		{"correct exceeds samples", func(m *Message) { m.Correct = 6 }, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			m := ok
			tt.mutate(&m)
			err := ValidateReport(&m)
			if tt.valid {
				if err != nil {
					t.Fatalf("ValidateReport: %v", err)
				}
				return
			}
			if err == nil {
				t.Fatal("expected rejection")
			}
			// Invalid physics is a peer bug: fatal, never retried.
			var pe *ProtocolError
			if !errors.As(err, &pe) {
				t.Errorf("err = %v, want *ProtocolError", err)
			}
			if Transient(err) {
				t.Error("validation failures must not be transient")
			}
		})
	}
}

func TestTransientTaxonomy(t *testing.T) {
	timeoutErr := &net.OpError{Op: "read", Err: &timeoutError{}}
	tests := []struct {
		name      string
		err       error
		transient bool
	}{
		{"nil", nil, false},
		{"eof", io.EOF, true},
		{"mid-frame eof", io.ErrUnexpectedEOF, true},
		{"wrapped eof", fmt.Errorf("deploy: read body: %w", io.ErrUnexpectedEOF), true},
		{"closed conn", net.ErrClosed, true},
		{"net timeout", timeoutErr, true},
		{"protocol error", protocolErrorf("bad frame"), false},
		{"wrapped protocol error", fmt.Errorf("edge 1: %w", protocolErrorf("bad frame")), false},
		{"edge error", &EdgeError{EdgeID: 2, Reason: "oom"}, false},
		{"unknown error", errors.New("mystery"), false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := Transient(tt.err); got != tt.transient {
				t.Errorf("Transient(%v) = %v, want %v", tt.err, got, tt.transient)
			}
		})
	}
}

// timeoutError is a minimal net.Error with Timeout() == true.
type timeoutError struct{}

func (timeoutError) Error() string   { return "i/o timeout" }
func (timeoutError) Timeout() bool   { return true }
func (timeoutError) Temporary() bool { return true }

// TestReadMessageErrorTaxonomy pins which wire failures are worth a retry: a
// connection that died mid-frame is transient; a peer that frames garbage is
// not.
func TestReadMessageErrorTaxonomy(t *testing.T) {
	// Truncated body: transient (the peer may resume and resend).
	var buf bytes.Buffer
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], 100)
	buf.Write(hdr[:])
	buf.WriteString("{}")
	_, err := ReadMessage(&buf)
	if err == nil || !Transient(err) {
		t.Errorf("truncated body: err = %v, want transient", err)
	}
	// Undecodable frame: fatal protocol error.
	buf.Reset()
	binary.BigEndian.PutUint32(hdr[:], 3)
	buf.Write(hdr[:])
	buf.WriteString("{{{")
	_, err = ReadMessage(&buf)
	var pe *ProtocolError
	if err == nil || !errors.As(err, &pe) || Transient(err) {
		t.Errorf("bad json: err = %v, want fatal *ProtocolError", err)
	}
	// Impossible frame length: fatal protocol error.
	buf.Reset()
	binary.BigEndian.PutUint32(hdr[:], uint32(maxFrame+1))
	buf.Write(hdr[:])
	_, err = ReadMessage(&buf)
	if err == nil || !errors.As(err, &pe) || Transient(err) {
		t.Errorf("oversized frame: err = %v, want fatal *ProtocolError", err)
	}
}

func TestBackoffDelayDeterministicAndCapped(t *testing.T) {
	cfg := RetryConfig{Attempts: 5}.withDefaults()
	seq := func() []time.Duration {
		rng := numeric.SplitRNG(3, "backoff-test")
		var out []time.Duration
		for k := 1; k <= 8; k++ {
			out = append(out, backoffDelay(cfg, k, rng))
		}
		return out
	}
	first := seq()
	if !reflect.DeepEqual(first, seq()) {
		t.Error("backoff sequence not deterministic for a fixed stream")
	}
	for k, d := range first {
		if d < cfg.baseDelay/2 || d > cfg.maxDelay {
			t.Errorf("attempt %d delay %v outside [base/2, max]", k+1, d)
		}
	}
	// Late attempts saturate at the cap's jitter window [max/2, max].
	if last := first[len(first)-1]; last < cfg.maxDelay/2 {
		t.Errorf("saturated delay %v below half the cap", last)
	}
}
