package main

import (
	"net"
	"sync"
	"sync/atomic"
	"time"

	"github.com/carbonedge/carbonedge/internal/deploy"
)

// linkMeter totals the traffic of one tier of links (edge links or root
// links). Every link is wrapped at exactly one end, so bytes read plus bytes
// written there are all the bytes the link carried.
type linkMeter struct {
	bytes  atomic.Int64
	frames atomic.Int64
}

// meteredConn counts a link's bytes and frames. With wait set it also times
// how long Read blocks (the agent waiting for its next frame); with tee set
// it copies whole frames out for the codec replay.
type meteredConn struct {
	net.Conn
	meter  *linkMeter
	rd, wr frameScanner
	wait   *atomic.Int64 // nanoseconds blocked in Read
	tee    *frameTee
}

func (c *meteredConn) Read(p []byte) (int, error) {
	var t0 time.Duration
	if c.wait != nil {
		t0 = sinceStart()
	}
	n, err := c.Conn.Read(p)
	if c.wait != nil {
		c.wait.Add(int64(sinceStart() - t0))
	}
	c.meter.bytes.Add(int64(n))
	c.meter.frames.Add(int64(c.rd.feed(p[:n], c.tee)))
	return n, err
}

func (c *meteredConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.meter.bytes.Add(int64(n))
	c.meter.frames.Add(int64(c.wr.feed(p[:n], c.tee)))
	return n, err
}

// frameScanner follows the wire framing (4-byte big-endian length, then the
// body) through an arbitrarily chunked byte stream and counts completed
// frames. It is not safe for concurrent use; a link has one reader and one
// writer, each with its own scanner.
type frameScanner struct {
	hdr    [4]byte
	have   int    // header bytes collected so far
	remain int    // body bytes still to come
	body   []byte // body collected so far, only while teeing
}

// feed advances the scanner over p and returns how many frames completed.
// With a tee, completed bodies are handed to it.
func (s *frameScanner) feed(p []byte, tee *frameTee) (frames int) {
	for len(p) > 0 {
		if s.remain == 0 {
			n := copy(s.hdr[s.have:], p)
			s.have += n
			p = p[n:]
			if s.have < len(s.hdr) {
				return frames
			}
			s.have = 0
			s.remain = int(s.hdr[0])<<24 | int(s.hdr[1])<<16 | int(s.hdr[2])<<8 | int(s.hdr[3])
			if s.remain == 0 {
				frames++
			}
			continue
		}
		n := min(s.remain, len(p))
		if tee != nil {
			s.body = append(s.body, p[:n]...)
		}
		s.remain -= n
		p = p[n:]
		if s.remain == 0 {
			frames++
			if tee != nil {
				tee.add(s.body)
				s.body = nil
			}
		}
	}
	return frames
}

// frameTee keeps, per message type, the smallest and the largest frame body
// a link carried — real frames of the traced run, replayed through
// WriteMessage/ReadMessage afterwards to price the codec. For Assign the two
// differ by a checkpoint.
type frameTee struct {
	mu                sync.Mutex
	smallest, largest map[deploy.MsgType][]byte
}

func newFrameTee() *frameTee {
	return &frameTee{
		smallest: make(map[deploy.MsgType][]byte),
		largest:  make(map[deploy.MsgType][]byte),
	}
}

// add records a completed frame body.
func (t *frameTee) add(body []byte) {
	typ := frameType(body)
	t.mu.Lock()
	if len(body) > len(t.largest[typ]) {
		t.largest[typ] = body
	}
	if old, ok := t.smallest[typ]; !ok || len(body) < len(old) {
		t.smallest[typ] = body
	}
	t.mu.Unlock()
}

// frames returns the smallest and largest body seen of the given message
// type (nil when the link carried none).
func (t *frameTee) frames(typ deploy.MsgType) (smallest, largest []byte) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.smallest[typ], t.largest[typ]
}

// frameType reads the message type off a frame body without decoding it:
// deploy.Message marshals its Type field first, as {"type":N,...}. Anything
// else reports 0. TestFrameTypeMatchesWriteMessage pins the assumption.
func frameType(body []byte) deploy.MsgType {
	const prefix = `{"type":`
	if len(body) <= len(prefix) || string(body[:len(prefix)]) != prefix {
		return 0
	}
	n := 0
	for _, c := range body[len(prefix):] {
		if c < '0' || c > '9' {
			break
		}
		n = n*10 + int(c-'0')
	}
	return deploy.MsgType(n)
}

// chanListener serves pre-created in-memory connections: Accept drains the
// queue, then blocks until Close. It is how a 2 000-edge fleet rides net.Pipe
// links instead of 2 000 sockets.
type chanListener struct {
	conns chan net.Conn
	done  chan struct{}
	once  sync.Once
}

// newChanListener sizes the queue to the number of links it will serve.
func newChanListener(links int) *chanListener {
	return &chanListener{conns: make(chan net.Conn, links), done: make(chan struct{})}
}

func (l *chanListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

func (l *chanListener) Close() error {
	l.once.Do(func() { close(l.done) })
	return nil
}

func (l *chanListener) Addr() net.Addr { return &net.IPAddr{} }
