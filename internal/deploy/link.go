package deploy

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// link is the serving-side connection slot of one served unit — an edge of a
// fleet, or a regional coordinator of the root; both tiers run on this one
// type and the one acceptor below. The acceptor delivers handshaken connections
// (initial and resumed) into incoming, and whoever exchanges with the unit
// consumes them. A dropped unit leaves its link empty until a resume arrives;
// a departed coordinator's link is marked dead and its shards move elsewhere
// (an edge link never dies: a failed edge is the engine's to mark down).
type link struct {
	id       int // global edge id, or region id
	token    string
	incoming chan *wireConn

	// xmu serializes assign/delta round trips on a region link: after an
	// adoption, several shards may share one coordinator, and each exchange
	// must own the connection for its full write+read. An edge link has one
	// stepper and never takes it.
	xmu sync.Mutex

	mu   sync.Mutex
	conn *wireConn // current connection; nil while the unit is down
	linkState
}

// linkState is a link's admission bookkeeping, guarded by the link's mu.
type linkState struct {
	claimed bool  // initial connection admitted (true from birth on adopted links)
	dead    bool  // departed for good: out of the rebalancing election
	seed    int64 // the Seed the claiming Hello announced (a coordinator's fleet seed)
	resumes int   // accepted session resumes
}

// state snapshots the link's bookkeeping.
func (l *link) state() linkState {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.linkState
}

// newLink builds an unclaimed link. Resume tokens are deterministic from the
// seed of tokenRNG's owner: they bind a redialing connection to the session
// it claims (mis-binding protection inside a trusted deployment), not an
// authentication secret — which is also what lets an adopting coordinator
// reconstruct an orphaned range's tokens from the original fleet seed instead
// of having them shipped.
func newLink(id int, tokenRNG *rand.Rand, index int) *link {
	return &link{
		id:       id,
		token:    fmt.Sprintf("%016x-%02d", tokenRNG.Uint64(), index),
		incoming: make(chan *wireConn, 1),
	}
}

// deliver hands a fresh connection to the link, replacing any stale one that
// was never consumed (latest connection wins).
func (l *link) deliver(conn *wireConn) {
	for {
		select {
		case l.incoming <- conn:
			return
		case stale := <-l.incoming:
			stale.Close()
		}
	}
}

// claim marks the link's initial admission and records the seed the unit
// announced (for a coordinator, what a future ShardCheckpoint derives the
// shard's edge tokens from). It reports false when the link was already
// claimed.
func (l *link) claim(seed int64) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.claimed {
		return false
	}
	l.claimed = true
	l.seed = seed
	return true
}

// unclaim rolls a failed admission back.
func (l *link) unclaim() {
	l.mu.Lock()
	l.claimed = false
	l.mu.Unlock()
}

// resumeReject validates a resume attempt, returning the rejection reason
// ("" to accept). The token alone is not enough: a unit left over from an
// earlier run of the same seed holds a valid one for a link nobody claimed.
func (l *link) resumeReject(noun, token string) string {
	l.mu.Lock()
	defer l.mu.Unlock()
	switch {
	case token != l.token:
		return "bad resume token"
	case !l.claimed:
		return fmt.Sprintf("%s id %d never joined", noun, l.id)
	case l.dead:
		return fmt.Sprintf("%s id %d retired", noun, l.id)
	}
	return ""
}

func (l *link) markResumed() {
	l.mu.Lock()
	l.resumes++
	l.mu.Unlock()
}

// acquire returns the link's live connection: the current one while it
// lasts, otherwise the next delivered resume, waiting up to wait for the
// unit to redial. The current connection is deliberately used until an
// exchange fails on it — switching to a fresher delivery eagerly would make
// the retry accounting depend on how quickly the unit redialed. On a region
// link, called with xmu held.
func (l *link) acquire(wait time.Duration) *wireConn {
	l.mu.Lock()
	conn := l.conn
	l.mu.Unlock()
	if conn != nil {
		return conn
	}
	select {
	case conn = <-l.incoming:
		return l.install(conn)
	default:
	}
	t := time.NewTimer(wait)
	defer t.Stop()
	select {
	case conn = <-l.incoming:
		return l.install(conn)
	case <-t.C:
		return nil
	}
}

// install makes a delivered connection the link's current one, closing the
// one it replaces, and returns the current connection. A dead link keeps
// what it has and closes the newcomer.
func (l *link) install(conn *wireConn) *wireConn {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.dead {
		conn.Close()
		return l.conn
	}
	if l.conn != nil {
		l.conn.Close()
	}
	l.conn = conn
	return l.conn
}

// drop discards a connection whose exchange failed; the next acquire waits
// for a resumed one.
func (l *link) drop() {
	l.mu.Lock()
	if l.conn != nil {
		l.conn.Close()
		l.conn = nil
	}
	l.mu.Unlock()
}

// live returns the link's current connection, consuming a freshly resumed
// one if the acceptor delivered it after the last exchange. Callers must not
// race an exchange (the engine has returned, or never started).
func (l *link) live() *wireConn {
	select {
	case conn := <-l.incoming:
		return l.install(conn)
	default:
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.conn
}

// markDead takes the link out of the rebalancing election without closing
// its connection: a departing coordinator releases its edges only once the
// root closes the link (see retire), so the edges cannot redial the adopter
// before the adopt frame installs their range.
func (l *link) markDead() {
	l.mu.Lock()
	l.dead = true
	l.mu.Unlock()
}

// retire marks the link dead and closes everything it holds. Safe to call
// repeatedly.
func (l *link) retire() {
	l.markDead()
	l.drop()
	for {
		select {
		case c := <-l.incoming:
			c.Close()
		default:
			return
		}
	}
}

// finish notifies every still-connected unit that the run is over. The loop
// is best-effort by design: one dead unit must not leave the others hanging
// until their read deadlines, so every link is attempted and the failures
// are reported joined (callers ignore them under Degrade).
func finish(links []*link, noun string) error {
	var errs []error
	for _, l := range links {
		if l.state().dead {
			continue // departed mid-run; nobody to notify
		}
		conn := l.live()
		if conn == nil {
			continue // unit is down; nobody to notify
		}
		if err := WriteMessage(conn, &Message{Type: MsgDone}); err != nil {
			errs = append(errs, fmt.Errorf("deploy: send done to %s %d: %w", noun, l.id, err))
		}
	}
	return errors.Join(errs...)
}

// abort tells every still-connected unit the run failed and returns the
// error. Like finish, it attempts every link before returning.
func abort(links []*link, err error) error {
	msg := &Message{Type: MsgError, Reason: err.Error()}
	for _, l := range links {
		if conn := l.live(); conn != nil {
			_ = WriteMessage(conn, msg) // best effort; we are already failing
		}
	}
	return err
}

// tier is all an acceptor's owner supplies: which link a Hello addresses and
// which Welcome admits it.
type tier interface {
	// resolve returns the link hello addresses; a nil link rejects the
	// connection with the reason, unless later is non-nil: the tier may
	// serve hello's id once later is closed, and the acceptor holds the
	// Hello until then (closing it without a verdict at the handshake
	// deadline or when the run stops).
	resolve(hello *Message) (l *link, reject string, later <-chan struct{})
	// welcome builds the reply admitting hello (initial or resume) onto l;
	// initial reports whether awaitInitial waits for this admission.
	welcome(hello *Message, l *link) (w *Message, initial bool)
}

// acceptor admits a tier's connections for a whole run: initial handshakes
// first, session resumes (and, at the root, standby joins) once the run is
// underway.
type acceptor struct {
	tier tier
	// hello is the tier's Hello type; helloName and noun word the
	// peer-visible reject reasons.
	hello           MsgType
	helloName, noun string
	// horizon bounds the resume-position plausibility check; handshake is
	// the owner's HandshakeTimeout; want initial admissions are awaited.
	horizon, want int
	handshake     time.Duration

	// initial and acceptErr carry initial-admission progress from the
	// accept loop to awaitInitial.
	initial   chan struct{}
	acceptErr chan error
	// done flips once the run is over: the acceptor stops admitting, and
	// stopped is closed.
	done    atomic.Bool
	stopped chan struct{}
}

func newAcceptor(t tier, hello MsgType, helloName, noun string, horizon, want int, handshake time.Duration) *acceptor {
	return &acceptor{
		tier: t, hello: hello, helloName: helloName, noun: noun,
		horizon: horizon, handshake: handshake, want: want,
		initial:   make(chan struct{}, want+1),
		acceptErr: make(chan error, 1),
		stopped:   make(chan struct{}),
	}
}

// start launches the accept loop on ln for the whole run. The returned stop
// function halts admission and unblocks a blocked Accept without closing the
// caller's listener. Call stop when the run is over.
func (a *acceptor) start(ln net.Listener) (stop func()) {
	go a.acceptLoop(ln)
	return func() {
		if a.done.Swap(true) {
			return
		}
		close(a.stopped)
		// Unblock a blocked Accept without closing the caller's listener: a
		// deadline in the distant past forces an immediate timeout.
		if d, ok := ln.(interface{ SetDeadline(time.Time) error }); ok {
			d.SetDeadline(time.Unix(1, 0)) //nolint:errcheck // best-effort unblock
		}
	}
}

// awaitInitial blocks until all want initial sessions are admitted
// (immediately for a standby fleet). The accept loop keeps running so
// dropped units can redial and resume mid-run.
func (a *acceptor) awaitInitial() error {
	connected := 0
	for connected < a.want {
		select {
		case <-a.initial:
			connected++
		case err := <-a.acceptErr:
			// The accept loop is gone; count admissions that completed before
			// it died, then fail if the membership is still short.
			if connected += len(a.initial); connected < a.want {
				return fmt.Errorf("deploy: accept: %w", err)
			}
		}
	}
	return nil
}

// acceptLoop admits connections for the whole run. Admissions run
// concurrently so one slow (or silent) client cannot wedge the tier.
func (a *acceptor) acceptLoop(ln net.Listener) {
	var wg sync.WaitGroup
	for {
		conn, err := ln.Accept()
		if err != nil {
			wg.Wait() // let in-flight admissions finish before reporting
			if !a.done.Load() {
				a.acceptErr <- err // buffered, and this is its one send
			}
			return
		}
		if a.done.Load() {
			conn.Close()
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			a.admit(conn)
		}()
	}
}

// admit performs one connection's handshake under the handshake deadline and
// delivers the connection to its unit's link. Bad clients are rejected and
// closed without disturbing the run. The connection is wrapped here, once:
// the frame reader that took the Hello is the one the unit's exchanges read
// replies through.
func (a *acceptor) admit(raw net.Conn) {
	conn := newWireConn(raw)
	admitted := false
	defer func() {
		if !admitted {
			conn.Close()
		}
	}()
	timeout := a.handshake
	if timeout == 0 {
		timeout = DefaultHandshakeTimeout
	}
	var expired <-chan time.Time
	if timeout > 0 {
		//lint:allow nodeterm real I/O deadline on a live connection; wall time is the only clock the kernel honors
		if err := conn.SetDeadline(time.Now().Add(timeout)); err != nil {
			return
		}
		t := time.NewTimer(timeout)
		defer t.Stop()
		expired = t.C
	}
	m, err := conn.readMessage()
	if err != nil {
		return
	}
	if m.Type != a.hello {
		_ = WriteMessage(conn, &Message{Type: MsgError, Reason: "expected " + a.helloName})
		return
	}
	l, reject, later := a.tier.resolve(m)
	for later != nil {
		select {
		case <-later:
		case <-expired:
			return
		case <-a.stopped:
			return
		}
		l, reject, later = a.tier.resolve(m)
	}
	if l != nil {
		if m.Resume {
			reject = l.resumeReject(a.noun, m.ResumeToken)
			if reject == "" && (m.DoneSlots < 0 || m.DoneSlots > a.horizon) {
				reject = fmt.Sprintf("implausible resume position %d", m.DoneSlots)
			}
		} else if !l.claim(m.Seed) {
			reject = fmt.Sprintf("duplicate %s id %d", a.noun, l.id)
		}
	}
	if reject != "" {
		_ = WriteMessage(conn, &Message{Type: MsgError, Reason: reject})
	}
	if l == nil || reject != "" {
		return
	}
	// m lives in the connection's recycled decode target: once the link is
	// delivered, the unit's exchanger owns the reader and m with it.
	resume := m.Resume
	welcome, initial := a.tier.welcome(m, l)
	if err := WriteMessage(conn, welcome); err != nil {
		if !resume {
			l.unclaim()
		}
		return
	}
	if timeout > 0 {
		conn.SetDeadline(time.Time{}) //nolint:errcheck // best-effort reset
	}
	if resume {
		l.markResumed()
	}
	l.deliver(conn)
	if initial {
		a.initial <- struct{}{}
	}
	admitted = true
}
