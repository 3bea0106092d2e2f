package deploy

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	"github.com/carbonedge/carbonedge/internal/numeric"
)

// The chaos suites' fault injector: a faultConn wraps a real connection and
// perturbs its I/O according to a slot-indexed faultSchedule — added
// latency, connection cuts before a read or a write, frames truncated
// mid-body, and corrupted frame bytes. Every random choice (which byte to
// flip, where to truncate) is drawn from an injected *rand.Rand, normally a
// numeric.SplitRNG stream, so a chaos run replays bit-for-bit from (seed,
// schedule); sleeping is delegated to an injectable function.
//
// WriteMessage sends each frame — the headerLen-byte length prefix, then the
// body — with one Write, so faultConn treats every Write as one frame and
// lands faultCorrupt and faultTruncate behind the header, on the frame body,
// where they surface at the peer as fatal protocol errors and transient
// mid-frame connection losses respectively; the length prefix stays honest.
//
// Slot indexing is cooperative: the harness driving the connection calls
// SetSlot when a slot begins (an edge agent knows it from the Assign frame),
// and each scheduled event fires on the next matching I/O operation at or
// after its slot.

// faultKind enumerates injectable fault kinds.
type faultKind int

const (
	// faultLatency sleeps the event's Delay before the next write.
	faultLatency faultKind = iota + 1
	// faultReadLatency sleeps the event's Delay before the next read: a
	// frame arriving meanwhile is held back for that long.
	faultReadLatency
	// faultCutWrite closes the underlying connection instead of performing
	// the next write: the peer loses the frame and sees a connection error.
	faultCutWrite
	// faultCutRead closes the underlying connection instead of performing
	// the next read: anything the peer sends next is lost.
	faultCutRead
	// faultTruncate writes the next frame's header and a random strict,
	// non-empty prefix of its body, then closes the connection: the peer
	// observes a mid-frame EOF.
	faultTruncate
	// faultCorrupt flips one random byte of the next frame's body: the peer
	// observes a fatal protocol error.
	faultCorrupt
)

func (k faultKind) String() string {
	switch k {
	case faultLatency:
		return "latency"
	case faultReadLatency:
		return "read-latency"
	case faultCutWrite:
		return "cut-write"
	case faultCutRead:
		return "cut-read"
	case faultTruncate:
		return "truncate"
	case faultCorrupt:
		return "corrupt"
	}
	return fmt.Sprintf("faultKind(%d)", int(k))
}

// readSide reports whether the kind fires on reads rather than writes.
func (k faultKind) readSide() bool { return k == faultCutRead || k == faultReadLatency }

// faultEvent is one scheduled fault: at slot Slot (set via SetSlot), the
// next matching I/O operation is perturbed.
type faultEvent struct {
	Slot  int
	Kind  faultKind
	Delay time.Duration // faultLatency and faultReadLatency only
}

// faultSchedule is a fault script for one connection, any order; the
// injector sorts it by slot (stable, preserving same-slot order).
type faultSchedule []faultEvent

// faultKillAt is the canonical link-kill schedule (edge or region): the
// connection is cut on the first read at or after slot, so the link dies
// between slots and the peer's next frame is lost in flight.
func faultKillAt(slot int) faultSchedule { return faultSchedule{{Slot: slot, Kind: faultCutRead}} }

// faultTruncateAt is the canonical torn-frame schedule: the first frame
// written at or after slot is cut mid-body, so the peer observes a
// mid-frame EOF on a frame whose sender believes it failed.
func faultTruncateAt(slot int) faultSchedule {
	return faultSchedule{{Slot: slot, Kind: faultTruncate}}
}

// faultInjected is returned for I/O the injector suppressed; it implements
// net.Error as a non-timeout error so the error taxonomy classifies it as a
// transient connection failure.
type faultInjected struct{ Event faultEvent }

func (e *faultInjected) Error() string {
	return fmt.Sprintf("faults: injected %s at slot %d", e.Event.Kind, e.Event.Slot)
}

func (e *faultInjected) Timeout() bool   { return false }
func (e *faultInjected) Temporary() bool { return true }

// faultConn wraps a net.Conn with scheduled fault injection. It is safe for
// the usual net.Conn discipline (one reader, one writer, SetSlot from
// either).
type faultConn struct {
	net.Conn
	sleep func(time.Duration)

	mu      sync.Mutex
	rng     *rand.Rand
	pending faultSchedule // sorted by slot; consumed front-first once armed
	slot    int
	cut     bool
}

// newFaultConn wraps conn. The rng drives every random choice the injector
// makes and must not be shared with other consumers (use a dedicated
// SplitRNG stream). sleep implements the latency kinds; nil defaults to
// time.Sleep.
func newFaultConn(conn net.Conn, sched faultSchedule, rng *rand.Rand, sleep func(time.Duration)) (*faultConn, error) {
	if conn == nil {
		return nil, fmt.Errorf("faults: nil conn")
	}
	if rng == nil {
		return nil, fmt.Errorf("faults: nil rng (derive one via numeric.SplitRNG)")
	}
	for _, ev := range sched {
		if ev.Kind < faultLatency || ev.Kind > faultCorrupt {
			return nil, fmt.Errorf("faults: unknown kind %d", int(ev.Kind))
		}
		if ev.Slot < 0 {
			return nil, fmt.Errorf("faults: negative slot %d", ev.Slot)
		}
		if ev.Delay < 0 {
			return nil, fmt.Errorf("faults: negative delay %v", ev.Delay)
		}
	}
	if sleep == nil {
		sleep = time.Sleep
	}
	pending := append(faultSchedule(nil), sched...)
	sort.SliceStable(pending, func(i, j int) bool { return pending[i].Slot < pending[j].Slot })
	return &faultConn{Conn: conn, sleep: sleep, rng: rng, pending: pending, slot: -1}, nil
}

// SetSlot arms events scheduled for slots <= slot: each fires on the next
// matching I/O operation. Harnesses call it when the slot begins.
func (c *faultConn) SetSlot(slot int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if slot > c.slot {
		c.slot = slot
	}
}

// next pops the front pending event if it is armed and fires on this side.
// Must hold mu.
func (c *faultConn) next(read bool) (faultEvent, bool) {
	if len(c.pending) == 0 || c.pending[0].Slot > c.slot || c.pending[0].Kind.readSide() != read {
		return faultEvent{}, false
	}
	ev := c.pending[0]
	c.pending = c.pending[1:]
	return ev, true
}

func (c *faultConn) Read(b []byte) (int, error) {
	c.mu.Lock()
	if c.cut {
		c.mu.Unlock()
		return 0, &faultInjected{faultEvent{Slot: c.slot, Kind: faultCutRead}}
	}
	ev, ok := c.next(true)
	if !ok {
		c.mu.Unlock()
		return c.Conn.Read(b)
	}
	if ev.Kind == faultReadLatency {
		c.mu.Unlock()
		c.sleep(ev.Delay)
		return c.Conn.Read(b)
	}
	c.cut = true
	c.mu.Unlock()
	c.Conn.Close()
	return 0, &faultInjected{ev}
}

func (c *faultConn) Write(b []byte) (int, error) {
	c.mu.Lock()
	if c.cut {
		c.mu.Unlock()
		return 0, &faultInjected{faultEvent{Slot: c.slot, Kind: faultCutWrite}}
	}
	ev, ok := c.next(false)
	if !ok {
		c.mu.Unlock()
		return c.Conn.Write(b)
	}
	switch ev.Kind {
	case faultLatency:
		c.mu.Unlock()
		c.sleep(ev.Delay)
		return c.Conn.Write(b)
	case faultCutWrite:
		c.cut = true
		c.mu.Unlock()
		c.Conn.Close()
		return 0, &faultInjected{ev}
	case faultTruncate:
		c.cut = true
		n := 0
		if body := len(b) - headerLen; body > 1 {
			n = headerLen + 1 + c.rng.Intn(body-1) // header plus a strict, non-empty body prefix
		}
		c.mu.Unlock()
		if n > 0 {
			c.Conn.Write(b[:n]) //nolint:errcheck // the cut error below dominates
		}
		c.Conn.Close()
		return n, &faultInjected{ev}
	default: // faultCorrupt
		mangled := append([]byte(nil), b...)
		if body := len(mangled) - headerLen; body > 0 {
			mangled[headerLen+c.rng.Intn(body)] ^= 0xff
		}
		c.mu.Unlock()
		return c.Conn.Write(mangled)
	}
}

// Pending returns how many scheduled events have not fired yet.
func (c *faultConn) Pending() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.pending)
}

func faultPipe(t *testing.T, sched faultSchedule, label string) (*faultConn, net.Conn, *[]time.Duration) {
	t.Helper()
	a, b := net.Pipe()
	t.Cleanup(func() { a.Close(); b.Close() })
	slept := &[]time.Duration{}
	fc, err := newFaultConn(a, sched, numeric.SplitRNG(1, label), func(d time.Duration) { *slept = append(*slept, d) })
	if err != nil {
		t.Fatal(err)
	}
	return fc, b, slept
}

// faultReadN drains n bytes from conn into a fresh buffer on a goroutine.
func faultReadN(conn net.Conn, n int) chan []byte {
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

// faultFrame builds one frame as WriteMessage hands it to a single Write:
// the length prefix and the body.
func faultFrame(body []byte) []byte {
	return append([]byte{0, 0, 0, byte(len(body))}, body...)
}

func TestChaosInjectorValidation(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	rng := numeric.SplitRNG(1, "faults-valid")
	if _, err := newFaultConn(nil, nil, rng, nil); err == nil {
		t.Error("expected error for nil conn")
	}
	if _, err := newFaultConn(a, nil, nil, nil); err == nil {
		t.Error("expected error for nil rng")
	}
	if _, err := newFaultConn(a, faultSchedule{{Slot: 0, Kind: faultKind(99)}}, rng, nil); err == nil {
		t.Error("expected error for unknown kind")
	}
	if _, err := newFaultConn(a, faultSchedule{{Slot: -1, Kind: faultLatency}}, rng, nil); err == nil {
		t.Error("expected error for negative slot")
	}
	if _, err := newFaultConn(a, faultSchedule{{Slot: 0, Kind: faultLatency, Delay: -time.Second}}, rng, nil); err == nil {
		t.Error("expected error for negative delay")
	}
}

func TestChaosInjectorEventsWaitForTheirSlot(t *testing.T) {
	fc, peer, _ := faultPipe(t, faultSchedule{{Slot: 2, Kind: faultCutWrite}}, "faults-slot")
	// Slot 0: the slot-2 event must not fire.
	fc.SetSlot(0)
	got := faultReadN(peer, 2)
	if _, err := fc.Write([]byte("ok")); err != nil {
		t.Fatalf("write before the event's slot: %v", err)
	}
	if b := <-got; !bytes.Equal(b, []byte("ok")) {
		t.Fatalf("peer read %q", b)
	}
	// Slot 2: armed; the next write is suppressed and the conn is cut.
	fc.SetSlot(2)
	_, err := fc.Write([]byte("xx"))
	var inj *faultInjected
	if !errors.As(err, &inj) || inj.Event.Kind != faultCutWrite {
		t.Fatalf("err = %v, want injected cut-write", err)
	}
	if _, err := fc.Write([]byte("yy")); err == nil {
		t.Fatal("writes after a cut must keep failing")
	}
	if fc.Pending() != 0 {
		t.Fatalf("pending = %d, want 0", fc.Pending())
	}
}

func TestChaosInjectorSetSlotIsMonotonic(t *testing.T) {
	fc, peer, _ := faultPipe(t, faultSchedule{{Slot: 1, Kind: faultCutWrite}}, "faults-mono")
	fc.SetSlot(3)
	fc.SetSlot(0) // must not rewind below 3
	got := faultReadN(peer, 1)
	if _, err := fc.Write([]byte("a")); err == nil {
		t.Fatal("slot-1 event should still be armed at slot 3")
	}
	<-got
}

func TestChaosInjectorCutReadOnlyFiresOnReads(t *testing.T) {
	fc, peer, _ := faultPipe(t, faultSchedule{{Slot: 0, Kind: faultCutRead}}, "faults-cutread")
	fc.SetSlot(0)
	// A write passes through: the event is read-targeted.
	got := faultReadN(peer, 2)
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

func TestChaosInjectorLatencyDelegatesToSleeper(t *testing.T) {
	const d, rd = 123 * time.Millisecond, 45 * time.Millisecond
	fc, peer, slept := faultPipe(t, faultSchedule{
		{Slot: 0, Kind: faultLatency, Delay: d},
		{Slot: 0, Kind: faultReadLatency, Delay: rd},
	}, "faults-latency")
	fc.SetSlot(0)
	got := faultReadN(peer, 2)
	if _, err := fc.Write([]byte("ok")); err != nil {
		t.Fatalf("write: %v", err)
	}
	if b := <-got; !bytes.Equal(b, []byte("ok")) {
		t.Fatalf("peer read %q", b)
	}
	if !reflect.DeepEqual(*slept, []time.Duration{d}) {
		t.Fatalf("slept %v, want [%v]", *slept, d)
	}
	// The read-side delay waits before the read, which then proceeds.
	go peer.Write([]byte("in")) //nolint:errcheck // the read below checks delivery
	buf := make([]byte, 2)
	if _, err := io.ReadFull(fc, buf); err != nil || !bytes.Equal(buf, []byte("in")) {
		t.Fatalf("read %q, %v", buf, err)
	}
	if !reflect.DeepEqual(*slept, []time.Duration{d, rd}) {
		t.Fatalf("slept %v, want [%v %v]", *slept, d, rd)
	}
}

func TestChaosInjectorTruncateWritesStrictPrefixOfBody(t *testing.T) {
	// Frame discipline: one Write carries header and body. The truncation
	// must deliver the whole header and stop strictly inside the body.
	body := bytes.Repeat([]byte("b"), 16)
	runOnce := func() []byte {
		fc, peer, _ := faultPipe(t, faultSchedule{{Slot: 0, Kind: faultTruncate}}, "faults-trunc")
		fc.SetSlot(0)
		received := make(chan []byte, 1)
		go func() {
			var buf bytes.Buffer
			io.Copy(&buf, peer) //nolint:errcheck // drained until the cut
			received <- buf.Bytes()
		}()
		n, err := fc.Write(faultFrame(body))
		var inj *faultInjected
		if !errors.As(err, &inj) || inj.Event.Kind != faultTruncate {
			t.Fatalf("err = %v, want injected truncate", err)
		}
		if n <= headerLen || n >= headerLen+len(body) {
			t.Fatalf("wrote %d of %d bytes, want the header plus a strict non-empty body prefix", n, headerLen+len(body))
		}
		got := <-received
		if len(got) != n || !bytes.Equal(got, faultFrame(body)[:n]) {
			t.Fatalf("peer got %d bytes %q, want the frame's first %d", len(got), got, n)
		}
		if _, err := fc.Write(faultFrame(body)); err == nil {
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
		fc, err := newFaultConn(a, faultSchedule{{Slot: 0, Kind: faultTruncate}}, numeric.SplitRNG(int64(trial), "faults-trunc-sweep"), nil)
		if err != nil {
			t.Fatal(err)
		}
		fc.SetSlot(0)
		go io.Copy(io.Discard, b) //nolint:errcheck // drained until the cut
		if n, _ := fc.Write(faultFrame(body[:2])); n != headerLen+1 {
			t.Fatalf("trial %d: a 2-byte body was cut at %d, want %d", trial, n, headerLen+1)
		}
		a.Close()
		b.Close()
	}
}

func TestChaosInjectorCorruptFlipsExactlyOneBodyByte(t *testing.T) {
	body := []byte("12345678")
	for trial := 0; trial < 64; trial++ {
		a, peer := net.Pipe()
		fc, err := newFaultConn(a, faultSchedule{{Slot: 0, Kind: faultCorrupt}}, numeric.SplitRNG(int64(trial), "faults-corrupt"), nil)
		if err != nil {
			t.Fatal(err)
		}
		fc.SetSlot(0)
		sent := faultFrame(body)
		got := faultReadN(peer, len(sent))
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
		if !bytes.Equal(sent, faultFrame(body)) {
			t.Error("corrupt mutated the caller's buffer")
		}
		a.Close()
		peer.Close()
	}
}

func TestChaosInjectorSameSlotEventsFireInScheduleOrder(t *testing.T) {
	fc, peer, slept := faultPipe(t, faultSchedule{
		{Slot: 0, Kind: faultLatency, Delay: time.Millisecond},
		{Slot: 0, Kind: faultCutWrite},
	}, "faults-order")
	fc.SetSlot(0)
	got := faultReadN(peer, 1)
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

func TestChaosInjectorErrInjectedTaxonomy(t *testing.T) {
	e := &faultInjected{faultEvent{Slot: 3, Kind: faultCutRead}}
	if e.Timeout() {
		t.Error("injected faults are not timeouts")
	}
	var _ net.Error = e
	if !Transient(e) {
		t.Error("injected faults must classify as transient")
	}
	for _, k := range []faultKind{faultLatency, faultReadLatency, faultCutWrite, faultCutRead, faultTruncate, faultCorrupt, faultKind(42)} {
		if k.String() == "" {
			t.Errorf("kind %d has empty name", int(k))
		}
	}
}
