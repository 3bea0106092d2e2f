package faults

import (
	"bytes"
	"errors"
	"io"
	"net"
	"reflect"
	"testing"
	"time"

	"github.com/carbonedge/carbonedge/internal/numeric"
)

func noSleep(time.Duration) {}

func newPair(t *testing.T, sched Schedule, label string) (*Conn, net.Conn, *[]time.Duration) {
	t.Helper()
	a, b := net.Pipe()
	t.Cleanup(func() { a.Close(); b.Close() })
	slept := &[]time.Duration{}
	fc, err := New(a, sched, numeric.SplitRNG(1, label), func(d time.Duration) { *slept = append(*slept, d) })
	if err != nil {
		t.Fatal(err)
	}
	return fc, b, slept
}

// readAll drains n bytes from conn into a fresh buffer on a goroutine.
func readN(conn net.Conn, n int) chan []byte {
	out := make(chan []byte, 1)
	go func() {
		buf := make([]byte, n)
		if _, err := io.ReadFull(conn, buf); err != nil {
			out <- nil
			return
		}
		out <- buf
	}()
	return out
}

func TestNewValidation(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	rng := numeric.SplitRNG(1, "faults-valid")
	if _, err := New(nil, nil, rng, nil); err == nil {
		t.Error("expected error for nil conn")
	}
	if _, err := New(a, nil, nil, nil); err == nil {
		t.Error("expected error for nil rng")
	}
	if _, err := New(a, Schedule{{Slot: 0, Kind: Kind(99)}}, rng, nil); err == nil {
		t.Error("expected error for unknown kind")
	}
	if _, err := New(a, Schedule{{Slot: -1, Kind: Latency}}, rng, nil); err == nil {
		t.Error("expected error for negative slot")
	}
	if _, err := New(a, Schedule{{Slot: 0, Kind: Latency, Delay: -time.Second}}, rng, nil); err == nil {
		t.Error("expected error for negative delay")
	}
}

func TestEventsWaitForTheirSlot(t *testing.T) {
	fc, peer, _ := newPair(t, Schedule{{Slot: 2, Kind: CutWrite}}, "faults-slot")
	// Slot 0: the slot-2 event must not fire.
	fc.SetSlot(0)
	got := readN(peer, 2)
	if _, err := fc.Write([]byte("ok")); err != nil {
		t.Fatalf("write before the event's slot: %v", err)
	}
	if b := <-got; !bytes.Equal(b, []byte("ok")) {
		t.Fatalf("peer read %q", b)
	}
	// Slot 2: armed; the next write is suppressed and the conn is cut.
	fc.SetSlot(2)
	_, err := fc.Write([]byte("xx"))
	var inj *ErrInjected
	if !errors.As(err, &inj) || inj.Event.Kind != CutWrite {
		t.Fatalf("err = %v, want injected cut-write", err)
	}
	if _, err := fc.Write([]byte("yy")); err == nil {
		t.Fatal("writes after a cut must keep failing")
	}
	if fc.Pending() != 0 {
		t.Fatalf("pending = %d, want 0", fc.Pending())
	}
}

func TestSetSlotIsMonotonic(t *testing.T) {
	fc, peer, _ := newPair(t, Schedule{{Slot: 1, Kind: CutWrite}}, "faults-mono")
	fc.SetSlot(3)
	fc.SetSlot(0) // must not rewind below 3
	got := readN(peer, 1)
	if _, err := fc.Write([]byte("a")); err == nil {
		t.Fatal("slot-1 event should still be armed at slot 3")
	}
	<-got
}

func TestCutReadOnlyFiresOnReads(t *testing.T) {
	fc, peer, _ := newPair(t, Schedule{{Slot: 0, Kind: CutRead}}, "faults-cutread")
	fc.SetSlot(0)
	// A write passes through: the event is read-targeted.
	got := readN(peer, 2)
	if _, err := fc.Write([]byte("ok")); err != nil {
		t.Fatalf("write: %v", err)
	}
	<-got
	// The read is suppressed, and classified as a non-timeout net.Error.
	_, err := fc.Read(make([]byte, 1))
	var ne net.Error
	if !errors.As(err, &ne) || ne.Timeout() {
		t.Fatalf("err = %v, want a non-timeout net.Error", err)
	}
	// The inner conn was closed: the peer sees EOF.
	if _, err := peer.Read(make([]byte, 1)); err == nil {
		t.Fatal("peer should see the cut")
	}
}

func TestLatencyDelegatesToSleeper(t *testing.T) {
	const d = 123 * time.Millisecond
	fc, peer, slept := newPair(t, Schedule{{Slot: 0, Kind: Latency, Delay: d}}, "faults-latency")
	fc.SetSlot(0)
	got := readN(peer, 2)
	if _, err := fc.Write([]byte("ok")); err != nil {
		t.Fatalf("write: %v", err)
	}
	if b := <-got; !bytes.Equal(b, []byte("ok")) {
		t.Fatalf("peer read %q", b)
	}
	if !reflect.DeepEqual(*slept, []time.Duration{d}) {
		t.Fatalf("slept %v, want [%v]", *slept, d)
	}
}

// frame builds one deploy-style frame: the 4-byte length prefix and the body,
// as deploy.WriteMessage hands them to a single Write.
func frame(body []byte) []byte {
	return append([]byte{0, 0, 0, byte(len(body))}, body...)
}

func TestTruncateWritesStrictPrefixOfBody(t *testing.T) {
	// Frame discipline: one Write carries header and body. The truncation
	// must deliver the whole header and stop strictly inside the body.
	body := bytes.Repeat([]byte("b"), 16)
	runOnce := func() []byte {
		fc, peer, _ := newPair(t, Schedule{{Slot: 0, Kind: Truncate}}, "faults-trunc")
		fc.SetSlot(0)
		received := make(chan []byte, 1)
		go func() {
			var buf bytes.Buffer
			io.Copy(&buf, peer) //nolint:errcheck // drained until the cut
			received <- buf.Bytes()
		}()
		n, err := fc.Write(frame(body))
		var inj *ErrInjected
		if !errors.As(err, &inj) || inj.Event.Kind != Truncate {
			t.Fatalf("err = %v, want injected truncate", err)
		}
		if n <= headerLen || n >= headerLen+len(body) {
			t.Fatalf("wrote %d of %d bytes, want the header plus a strict non-empty body prefix", n, headerLen+len(body))
		}
		got := <-received
		if len(got) != n || !bytes.Equal(got, frame(body)[:n]) {
			t.Fatalf("peer got %d bytes %q, want the frame's first %d", len(got), got, n)
		}
		if _, err := fc.Write(frame(body)); err == nil {
			t.Fatal("writes after a truncation must keep failing")
		}
		return got
	}
	first := runOnce()
	// Identical (seed, schedule) must replay the identical truncation point.
	if second := runOnce(); !bytes.Equal(first, second) {
		t.Errorf("truncation not deterministic: %d vs %d bytes", len(first), len(second))
	}
	// Every draw of the cut point stays inside the body.
	for trial := 0; trial < 64; trial++ {
		a, b := net.Pipe()
		fc, err := New(a, Schedule{{Slot: 0, Kind: Truncate}}, numeric.SplitRNG(int64(trial), "faults-trunc-sweep"), noSleep)
		if err != nil {
			t.Fatal(err)
		}
		fc.SetSlot(0)
		go io.Copy(io.Discard, b) //nolint:errcheck // drained until the cut
		if n, _ := fc.Write(frame(body[:2])); n != headerLen+1 {
			t.Fatalf("trial %d: a 2-byte body was cut at %d, want %d", trial, n, headerLen+1)
		}
		a.Close()
		b.Close()
	}
}

func TestCorruptFlipsExactlyOneBodyByte(t *testing.T) {
	body := []byte("12345678")
	for trial := 0; trial < 64; trial++ {
		a, peer := net.Pipe()
		fc, err := New(a, Schedule{{Slot: 0, Kind: Corrupt}}, numeric.SplitRNG(int64(trial), "faults-corrupt"), noSleep)
		if err != nil {
			t.Fatal(err)
		}
		fc.SetSlot(0)
		sent := frame(body)
		got := readN(peer, len(sent))
		if _, err := fc.Write(sent); err != nil {
			t.Fatalf("frame write: %v", err)
		}
		recv := <-got
		if !bytes.Equal(recv[:headerLen], sent[:headerLen]) {
			t.Fatalf("trial %d: header corrupted: %v", trial, recv[:headerLen])
		}
		diff := 0
		for i := range sent {
			if recv[i] != sent[i] {
				diff++
			}
		}
		if diff != 1 {
			t.Fatalf("trial %d: %d bytes differ, want exactly 1 (got %q)", trial, diff, recv)
		}
		// The caller's buffer must be untouched.
		if !bytes.Equal(sent, frame(body)) {
			t.Error("corrupt mutated the caller's buffer")
		}
		a.Close()
		peer.Close()
	}
}

func TestSameSlotEventsFireInScheduleOrder(t *testing.T) {
	fc, peer, slept := newPair(t, Schedule{
		{Slot: 0, Kind: Latency, Delay: time.Millisecond},
		{Slot: 0, Kind: CutWrite},
	}, "faults-order")
	fc.SetSlot(0)
	got := readN(peer, 1)
	if _, err := fc.Write([]byte("a")); err != nil {
		t.Fatalf("latency write: %v", err)
	}
	<-got
	if len(*slept) != 1 {
		t.Fatalf("slept %v, want one delay", *slept)
	}
	if _, err := fc.Write([]byte("b")); err == nil {
		t.Fatal("second write should hit the cut")
	}
}

func TestErrInjectedTaxonomy(t *testing.T) {
	e := &ErrInjected{Event{Slot: 3, Kind: CutRead}}
	if e.Timeout() {
		t.Error("injected faults are not timeouts")
	}
	var ne net.Error = e
	_ = ne
	for _, k := range []Kind{Latency, CutWrite, CutRead, Truncate, Corrupt, Kind(42)} {
		if k.String() == "" {
			t.Errorf("kind %d has empty name", int(k))
		}
	}
}
