package deploy

import (
	"errors"
	"fmt"
	"net"
	"reflect"
	"strings"
	"sync"
	"testing"

	"github.com/carbonedge/carbonedge/internal/engine"
)

// The dial-side session is one loop for both tiers: an edge and a regional
// coordinator differ in what they set up, serve and hold, never in how they
// handshake, replay, classify a failure or answer the peer.

// peerEvent is one frame a scripted peer sends, named by what it means on
// either tier.
type peerEvent int

const (
	evWelcome peerEvent = iota
	evResumeWelcome
	evAssign0
	evAssign1
	evDone
	evAbort
	evBogus // a frame type neither tier serves
)

// peerConn is one scripted connection: the frames it delivers, then EOF, and
// the 1-based write it tears mid-frame (0: none).
type peerConn struct {
	events      []peerEvent
	failWriteAt int
}

// ending is how one Run over a peerConn ended, and the frames the peer got,
// by meaning.
type ending struct {
	done, transient bool
	frames          []string
}

// sessionTier adapts one tier to the scripted peer.
type sessionTier struct {
	name string
	// frame builds the tier's Welcome, resume Welcome or assign.
	frame func(ev peerEvent) *Message
	// start builds a fresh session; stop ends whatever it still holds.
	start func(t *testing.T) (run func(net.Conn) (bool, error), stop func())
}

func sessionTiers() []sessionTier {
	w := newParityWorld(17)
	return []sessionTier{{
		name: "edge",
		frame: func(ev peerEvent) *Message {
			switch ev {
			case evWelcome:
				return &Message{Type: MsgWelcome, Models: []ModelMeta{{Name: "m"}}, ResumeToken: "tok"}
			case evResumeWelcome:
				return &Message{Type: MsgWelcome}
			case evAssign0, evAssign1:
				return &Message{Type: MsgAssign, Slot: int(ev - evAssign0)}
			}
			return nil
		},
		start: func(t *testing.T) (func(net.Conn) (bool, error), func()) {
			s, err := NewEdgeSession(0, &slotLog{})
			if err != nil {
				t.Fatal(err)
			}
			return s.Run, func() {}
		},
	}, {
		name: "region",
		frame: func(ev peerEvent) *Message {
			switch ev {
			case evWelcome:
				return &Message{Type: MsgRegionWelcome, NumModels: len(w.metas), ResumeToken: "tok",
					Checkpoint: &engine.ShardCheckpoint{FleetSeed: 17, Down: []bool{false}}}
			case evResumeWelcome:
				return &Message{Type: MsgRegionWelcome}
			case evAssign0, evAssign1:
				k := int(ev - evAssign0)
				return &Message{Type: MsgShardAssign, Slot: k, Arms: []int{k}, Downloads: []bool{false}}
			}
			return nil
		},
		start: func(t *testing.T) (func(net.Conn) (bool, error), func()) {
			regionSide, edgeSide := net.Pipe()
			ln := newChanListener(regionSide)
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				_ = RunEdge(edgeSide, 0, &parityRuntime{w: w, edge: 0, rng: w.edgeRNG(0)})
			}()
			s, err := NewRegionSession(ln, RegionConfig{RegionID: 0, Source: &paritySource{w: w}, Seed: 17})
			if err != nil {
				t.Fatal(err)
			}
			return s.Run, func() {
				s.release()
				ln.Close()
				regionSide.Close()
				edgeSide.Close()
				wg.Wait()
			}
		},
	}}
}

// play runs one session over the scripted connections and reports how each
// Run ended.
func (tier sessionTier) play(t *testing.T, conns []peerConn) []ending {
	run, stop := tier.start(t)
	defer stop()
	var out []ending
	for _, pc := range conns {
		conn := &scriptConn{failWriteAt: pc.failWriteAt}
		for _, ev := range pc.events {
			var m *Message
			switch ev {
			case evDone:
				m = &Message{Type: MsgDone}
			case evAbort:
				m = &Message{Type: MsgError, Reason: "stop"}
			case evBogus:
				m = &Message{Type: MsgReport}
			default:
				m = tier.frame(ev)
			}
			conn.segments = append(conn.segments, frameOf(t, m))
		}
		done, err := run(conn)
		e := ending{done: done, transient: Transient(err)}
		for _, m := range conn.sent(t) {
			switch m.Type {
			case MsgHello, MsgRegionHello:
				e.frames = append(e.frames, fmt.Sprintf("hello resume=%v token=%q", m.Resume, m.ResumeToken))
			case MsgReport, MsgShardDelta:
				e.frames = append(e.frames, fmt.Sprintf("reply %d", m.Slot))
			default:
				e.frames = append(e.frames, fmt.Sprintf("type %d", m.Type))
			}
		}
		out = append(out, e)
	}
	return out
}

// TestRegionSessionEndsLikeEdgeSession drives an EdgeSession and a
// RegionSession through the same peer events: both must end every
// connection the same way — over or resumable — and send the peer the same
// frames.
func TestRegionSessionEndsLikeEdgeSession(t *testing.T) {
	hello := `hello resume=false token=""`
	errFrame := fmt.Sprintf("type %d", MsgError)
	cases := []struct {
		name  string
		conns []peerConn
		want  []ending
	}{
		{"cut before the welcome", []peerConn{{}},
			[]ending{{false, true, []string{hello}}}},
		{"cut mid-run", []peerConn{{events: []peerEvent{evWelcome, evAssign0}}},
			[]ending{{false, true, []string{hello, "reply 0"}}}},
		{"peer done", []peerConn{{events: []peerEvent{evWelcome, evAssign0, evDone}}},
			[]ending{{true, false, []string{hello, "reply 0"}}}},
		{"peer error", []peerConn{{events: []peerEvent{evWelcome, evAssign0, evAbort}}},
			[]ending{{true, false, []string{hello, "reply 0"}}}},
		{"unexpected frame type", []peerConn{{events: []peerEvent{evWelcome, evBogus}}},
			[]ending{{true, false, []string{hello, errFrame}}}},
		{"repeated assign after a resume", []peerConn{
			// Hello, reply 0, then reply 1 is torn.
			{events: []peerEvent{evWelcome, evAssign0, evAssign1}, failWriteAt: 3},
			{events: []peerEvent{evResumeWelcome, evAssign1, evDone}},
		}, []ending{
			{false, true, []string{hello, "reply 0"}},
			{true, false, []string{`hello resume=true token="tok"`, "reply 1"}},
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, tier := range sessionTiers() {
				if got := tier.play(t, tc.conns); !reflect.DeepEqual(got, tc.want) {
					t.Errorf("%s ended %+v, want %+v", tier.name, got, tc.want)
				}
			}
		})
	}
}

// TestEdgeSessionRedialReportsDialFailure: a run that never connected has
// nothing to resume, so a dial failure is reported as one — on the first
// dial, whatever the resume budget — on both tiers.
func TestEdgeSessionRedialReportsDialFailure(t *testing.T) {
	refused := errors.New("connection refused")
	for _, budget := range []int{0, 2} {
		for tier, start := range map[string]func(dial func() (net.Conn, error)) error{
			"edge": func(dial func() (net.Conn, error)) error {
				return RunEdgeResumable(dial, 3, &slotLog{}, budget)
			},
			"region": func(dial func() (net.Conn, error)) error {
				return RunRegionResumable(dial, nil, RegionConfig{RegionID: 3, Source: &paritySource{w: newParityWorld(3)}}, budget)
			},
		} {
			dials := 0
			err := start(func() (net.Conn, error) { dials++; return nil, refused })
			if !errors.Is(err, refused) || strings.Contains(err.Error(), "resume budget") || dials != 1 {
				t.Errorf("%s, budget %d: %d dials, err %v; want one dial reported as a dial failure", tier, budget, dials, err)
			}
		}
	}
}

// TestEdgeSessionSlotAllocsPinned holds one steady-state edge slot — an
// Assign without a switch, answered by a Report — over net.Pipe to zero
// allocations, counting both ends: the scripted cloud's write and read and
// the whole session loop.
func TestEdgeSessionSlotAllocsPinned(t *testing.T) {
	skipUnlessFramePoolHolds(t)
	cloudSide, edgeSide := net.Pipe()
	defer cloudSide.Close()
	done := make(chan error, 1)
	go func() { done <- RunEdge(edgeSide, 0, constRuntime{}) }()
	cloud := newWireConn(cloudSide)
	if m, err := cloud.readMessage(); err != nil || m.Type != MsgHello {
		t.Fatalf("hello: %+v, %v", m, err)
	}
	if err := WriteMessage(cloud, &Message{Type: MsgWelcome, Models: []ModelMeta{{Name: "m"}}, ResumeToken: "tok"}); err != nil {
		t.Fatal(err)
	}
	assign := &Message{Type: MsgAssign, Slot: -1}
	slot := func() {
		assign.Slot++
		if err := WriteMessage(cloud, assign); err != nil {
			t.Fatal(err)
		}
		if m, err := cloud.readMessage(); err != nil || m.Type != MsgReport || m.Slot != assign.Slot {
			t.Fatalf("slot %d: %+v, %v", assign.Slot, m, err)
		}
	}
	for i := 0; i < 8; i++ {
		slot()
	}
	if got := testing.AllocsPerRun(200, slot); got != 0 {
		t.Errorf("an edge slot allocates %v times in steady state, want 0", got)
	}
	if err := WriteMessage(cloud, &Message{Type: MsgDone}); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}
