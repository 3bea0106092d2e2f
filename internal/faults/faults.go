// Package faults is a deterministic fault injector for the deployment's
// net.Conn links: a Conn wraps a real connection and perturbs its I/O
// according to a slot-indexed Schedule — added latency, connection cuts
// before a read or a write, frames truncated mid-body, and corrupted frame
// bytes. Every random choice (which byte to flip, where to truncate) is
// drawn from an injected *rand.Rand, normally a numeric.SplitRNG stream, so
// a chaos run replays bit-for-bit from (seed, schedule) and satisfies
// carbonlint's nodeterm rules: the package never reads the wall clock, and
// sleeping is delegated to an injectable Sleep function.
//
// The wrapper understands just enough of the deploy framing to aim faults:
// deploy.WriteMessage sends each frame — a 4-byte length header, then the
// body — with one Write, so Conn treats every Write as one frame and lands
// Corrupt and Truncate faults behind the header, on the frame body, where
// they surface at the peer as fatal protocol errors (bad JSON) and transient
// mid-frame connection losses respectively; the length prefix stays honest.
//
// Slot indexing is cooperative: the harness driving the connection calls
// SetSlot when a slot begins (an edge agent knows it from the Assign frame),
// and each scheduled Event fires on the next matching I/O operation at or
// after its slot.
package faults

import (
	"fmt"
	"math/rand"
	"net"
	"sort"
	"sync"
	"time"
)

// Kind enumerates injectable fault kinds.
type Kind int

const (
	// Latency sleeps Event.Delay before the next write, then proceeds.
	Latency Kind = iota + 1
	// CutWrite closes the underlying connection instead of performing the
	// next write: the peer loses the frame and sees a connection error.
	CutWrite
	// CutRead closes the underlying connection instead of performing the
	// next read: anything the peer sends next is lost.
	CutRead
	// Truncate writes the next frame's header and a random strict, non-empty
	// prefix of its body, then closes the connection: the peer observes a
	// mid-frame EOF.
	Truncate
	// Corrupt flips one random byte of the next frame's body: the peer
	// observes a fatal protocol (JSON) error.
	Corrupt
)

// String names the kind for diagnostics.
func (k Kind) String() string {
	switch k {
	case Latency:
		return "latency"
	case CutWrite:
		return "cut-write"
	case CutRead:
		return "cut-read"
	case Truncate:
		return "truncate"
	case Corrupt:
		return "corrupt"
	}
	return fmt.Sprintf("faults.Kind(%d)", int(k))
}

// Event is one scheduled fault: at slot Slot (set via Conn.SetSlot), the
// next matching I/O operation is perturbed.
type Event struct {
	Slot  int
	Kind  Kind
	Delay time.Duration // Latency only
}

// Schedule is a fault script for one connection, any order; Conn sorts it
// by slot (stable, preserving same-slot order).
type Schedule []Event

// KillAt is the canonical link-kill schedule (edge or region): the
// connection is cut on the first read at or after slot, so the link dies
// between slots and the peer's next frame is lost in flight.
func KillAt(slot int) Schedule { return Schedule{{Slot: slot, Kind: CutRead}} }

// TruncateAt is the canonical torn-frame schedule: the first frame written
// at or after slot is cut mid-body, so the peer observes a mid-frame EOF on
// a frame whose sender believes it failed.
func TruncateAt(slot int) Schedule { return Schedule{{Slot: slot, Kind: Truncate}} }

// ErrInjected is returned by Conn for I/O the injector suppressed; it
// implements net.Error as a non-timeout error so the deployment's error
// taxonomy classifies it as a transient connection failure.
type ErrInjected struct{ Event Event }

// Error implements error.
func (e *ErrInjected) Error() string {
	return fmt.Sprintf("faults: injected %s at slot %d", e.Event.Kind, e.Event.Slot)
}

// Timeout implements net.Error.
func (e *ErrInjected) Timeout() bool { return false }

// Temporary implements net.Error (deprecated in net, kept for taxonomy).
func (e *ErrInjected) Temporary() bool { return true }

// Conn wraps a net.Conn with scheduled fault injection. It is safe for the
// usual net.Conn discipline (one reader, one writer, SetSlot from either).
type Conn struct {
	inner net.Conn
	sleep func(time.Duration)

	mu      sync.Mutex
	rng     *rand.Rand
	pending []Event // sorted by slot; consumed front-first once armed
	slot    int
	cut     bool
}

// headerLen is the deploy framing's length prefix: body-targeted faults
// (Truncate, Corrupt) land behind it.
const headerLen = 4

var _ net.Conn = (*Conn)(nil)

// New wraps conn. The rng drives every random choice the injector makes and
// must not be shared with other consumers (use a dedicated SplitRNG stream).
// sleep implements Latency events; nil defaults to time.Sleep.
func New(conn net.Conn, sched Schedule, rng *rand.Rand, sleep func(time.Duration)) (*Conn, error) {
	if conn == nil {
		return nil, fmt.Errorf("faults: nil conn")
	}
	if rng == nil {
		return nil, fmt.Errorf("faults: nil rng (derive one via numeric.SplitRNG)")
	}
	for _, ev := range sched {
		if ev.Kind < Latency || ev.Kind > Corrupt {
			return nil, fmt.Errorf("faults: unknown kind %d", int(ev.Kind))
		}
		if ev.Slot < 0 {
			return nil, fmt.Errorf("faults: negative slot %d", ev.Slot)
		}
		if ev.Kind == Latency && ev.Delay < 0 {
			return nil, fmt.Errorf("faults: negative delay %v", ev.Delay)
		}
	}
	if sleep == nil {
		//lint:allow nodeterm Latency faults really wait by default; tests inject a recording sleep
		sleep = time.Sleep
	}
	pending := make(Schedule, len(sched))
	copy(pending, sched)
	sort.SliceStable(pending, func(i, j int) bool { return pending[i].Slot < pending[j].Slot })
	return &Conn{inner: conn, sleep: sleep, rng: rng, pending: pending, slot: -1}, nil
}

// SetSlot arms events scheduled for slots <= slot: each fires on the next
// matching I/O operation. Harnesses call it when the slot begins.
func (c *Conn) SetSlot(slot int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if slot > c.slot {
		c.slot = slot
	}
}

// next pops the front pending event if it is armed and matches want;
// Latency is write-targeted. Must hold mu.
func (c *Conn) next(read bool) (Event, bool) {
	if len(c.pending) == 0 || c.pending[0].Slot > c.slot {
		return Event{}, false
	}
	ev := c.pending[0]
	if read != (ev.Kind == CutRead) {
		return Event{}, false
	}
	c.pending = c.pending[1:]
	return ev, true
}

// Read implements net.Conn.
func (c *Conn) Read(b []byte) (int, error) {
	c.mu.Lock()
	if c.cut {
		c.mu.Unlock()
		return 0, &ErrInjected{Event{Slot: c.slot, Kind: CutRead}}
	}
	ev, ok := c.next(true)
	if ok {
		c.cut = true
		c.mu.Unlock()
		c.inner.Close()
		return 0, &ErrInjected{ev}
	}
	c.mu.Unlock()
	return c.inner.Read(b)
}

// Write implements net.Conn.
func (c *Conn) Write(b []byte) (int, error) {
	c.mu.Lock()
	if c.cut {
		c.mu.Unlock()
		return 0, &ErrInjected{Event{Slot: c.slot, Kind: CutWrite}}
	}
	ev, ok := c.next(false)
	if !ok {
		c.mu.Unlock()
		return c.inner.Write(b)
	}
	switch ev.Kind {
	case Latency:
		d := ev.Delay
		c.mu.Unlock()
		c.sleep(d)
		return c.inner.Write(b)
	case CutWrite:
		c.cut = true
		c.mu.Unlock()
		c.inner.Close()
		return 0, &ErrInjected{ev}
	case Truncate:
		c.cut = true
		n := 0
		if body := len(b) - headerLen; body > 1 {
			n = headerLen + 1 + c.rng.Intn(body-1) // header plus a strict, non-empty body prefix
		}
		c.mu.Unlock()
		if n > 0 {
			c.inner.Write(b[:n]) //nolint:errcheck // the cut error below dominates
		}
		c.inner.Close()
		return n, &ErrInjected{ev}
	case Corrupt:
		mangled := make([]byte, len(b))
		copy(mangled, b)
		if body := len(mangled) - headerLen; body > 0 {
			mangled[headerLen+c.rng.Intn(body)] ^= 0xff
		}
		c.mu.Unlock()
		n, err := c.inner.Write(mangled)
		return n, err
	}
	c.mu.Unlock()
	return c.inner.Write(b)
}

// Close implements net.Conn.
func (c *Conn) Close() error { return c.inner.Close() }

// LocalAddr implements net.Conn.
func (c *Conn) LocalAddr() net.Addr { return c.inner.LocalAddr() }

// RemoteAddr implements net.Conn.
func (c *Conn) RemoteAddr() net.Addr { return c.inner.RemoteAddr() }

// SetDeadline implements net.Conn.
func (c *Conn) SetDeadline(t time.Time) error { return c.inner.SetDeadline(t) }

// SetReadDeadline implements net.Conn.
func (c *Conn) SetReadDeadline(t time.Time) error { return c.inner.SetReadDeadline(t) }

// SetWriteDeadline implements net.Conn.
func (c *Conn) SetWriteDeadline(t time.Time) error { return c.inner.SetWriteDeadline(t) }

// Pending returns how many scheduled events have not fired yet.
func (c *Conn) Pending() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.pending)
}
