package deploy

import (
	"bytes"
	"errors"
	"io"
	"net"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"testing/iotest"
	"time"

	"github.com/carbonedge/carbonedge/internal/engine"
)

// frameOf returns m's wire frame.
func frameOf(t testing.TB, m *Message) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteMessage(&buf, m); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestHostileHeaderAllocatesAsBytesArrive is the regression test for the
// 1 GiB hole: a frame header may claim up to maxFrame, but the body buffer
// grows only as bytes actually arrive. A header claiming 0x3FFFFFFF bytes
// followed by ten is a transient truncated read that cost under 2 MiB.
func TestHostileHeaderAllocatesAsBytesArrive(t *testing.T) {
	stream := append([]byte{0x3f, 0xff, 0xff, 0xff}, "0123456789"...)
	readers := map[string]func() (*Message, error){
		"ReadMessage": func() (*Message, error) { return ReadMessage(bytes.NewReader(stream)) },
		"wireConn":    func() (*Message, error) { return (&frameReader{r: bytes.NewReader(stream)}).next() },
		"wireConn, header alone": func() (*Message, error) {
			return (&frameReader{r: io.MultiReader(bytes.NewReader(stream[:4]), bytes.NewReader(stream[4:]))}).next()
		},
	}
	for name, read := range readers {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := read()
		runtime.ReadMemStats(&after)
		if err == nil || !Transient(err) || !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Errorf("%s: err = %v, want a transient truncated read", name, err)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew >= 2<<20 {
			t.Errorf("%s: allocated %d bytes for a 10-byte body, want < 2 MiB", name, grew)
		}
	}
}

// TestFrameReaderChunking feeds the connection reader a stream of frames of
// very different sizes one byte at a time, in halves, and whole: every frame
// comes out, in order, whatever the segmentation; the stateless ReadMessage
// takes exactly one frame and leaves the rest of the stream untouched.
func TestFrameReaderChunking(t *testing.T) {
	hot := hotFrames(300)
	var msgs []*Message
	var stream []byte
	for round := 0; round < 2; round++ {
		for _, name := range hotFrameNames {
			msgs = append(msgs, hot[name])
			stream = append(stream, frameOf(t, hot[name])...)
		}
		msgs = append(msgs, &Message{Type: MsgError, Reason: "fallback frame between fast ones"})
		stream = append(stream, frameOf(t, msgs[len(msgs)-1])...)
	}
	for name, r := range map[string]io.Reader{
		"whole":    bytes.NewReader(stream),
		"one-byte": iotest.OneByteReader(bytes.NewReader(stream)),
		"halves":   iotest.HalfReader(bytes.NewReader(stream)),
		"data+eof": iotest.DataErrReader(bytes.NewReader(stream)),
	} {
		fr := &frameReader{r: r}
		for k, want := range msgs {
			got, err := fr.next()
			if err != nil {
				t.Fatalf("%s: frame %d: %v", name, k, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: frame %d decoded to %+v, want %+v", name, k, got, want)
			}
		}
		if _, err := fr.next(); !errors.Is(err, io.EOF) {
			t.Errorf("%s: after the last frame err = %v, want io.EOF", name, err)
		}
	}
	rest := bytes.NewReader(stream)
	for k, want := range msgs {
		got, err := ReadMessage(rest)
		if err != nil {
			t.Fatalf("ReadMessage: frame %d: %v", k, err)
		}
		if !bytes.Equal(frameOf(t, got), frameOf(t, want)) {
			t.Fatalf("ReadMessage: frame %d re-encodes differently", k)
		}
	}
	if rest.Len() != 0 {
		t.Errorf("ReadMessage left %d bytes after the last frame", rest.Len())
	}
}

// scriptConn is a scripted peer: Read hands out the queued segments one per
// call (so a test decides exactly which frames share a segment), Write
// collects what the session under test sends.
type scriptConn struct {
	mu       sync.Mutex
	segments [][]byte
	written  bytes.Buffer
	// failWriteAt, when positive, makes that Write (1-based) deliver half
	// the frame and fail: a connection cut mid-frame.
	failWriteAt int
	writes      int
}

func (c *scriptConn) Read(p []byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.segments) == 0 {
		return 0, io.EOF
	}
	n := copy(p, c.segments[0])
	if c.segments[0] = c.segments[0][n:]; len(c.segments[0]) == 0 {
		c.segments = c.segments[1:]
	}
	return n, nil
}

func (c *scriptConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.writes++
	if c.writes == c.failWriteAt {
		c.written.Write(p[:len(p)/2])
		return len(p) / 2, net.ErrClosed
	}
	return c.written.Write(p)
}

// sent decodes the whole frames the session wrote.
func (c *scriptConn) sent(t *testing.T) []*Message {
	t.Helper()
	var out []*Message
	r := bytes.NewReader(c.written.Bytes())
	for r.Len() > 0 {
		m, err := ReadMessage(r)
		if err != nil {
			if Transient(err) {
				break // the torn frame at the end
			}
			t.Fatal(err)
		}
		out = append(out, m)
	}
	return out
}

func (c *scriptConn) Close() error                     { return nil }
func (c *scriptConn) LocalAddr() net.Addr              { return &net.IPAddr{} }
func (c *scriptConn) RemoteAddr() net.Addr             { return &net.IPAddr{} }
func (c *scriptConn) SetDeadline(time.Time) error      { return nil }
func (c *scriptConn) SetReadDeadline(time.Time) error  { return nil }
func (c *scriptConn) SetWriteDeadline(time.Time) error { return nil }

// slotLog is a Runtime that records the slots it served and the model it
// served each on.
type slotLog struct{ served, models []int }

func (r *slotLog) Welcome([]ModelMeta) error   { return nil }
func (r *slotLog) LoadModel(int, []byte) error { return nil }
func (r *slotLog) RunSlot(slot, modelID int) (SlotReport, error) {
	r.served, r.models = append(r.served, slot), append(r.models, modelID)
	return SlotReport{AvgLoss: 0.25 + float64(slot), Correct: 1, Samples: 2 + slot, EnergyKWh: 1e-7, CompSeconds: 0.01}, nil
}

func concat(frames ...[]byte) []byte { return bytes.Join(frames, nil) }

// TestEdgeSessionKeepsFramesReadAhead: the Welcome and the first Assign
// arrive in one segment, so the reader that took the Welcome already holds
// the Assign when the handshake hands over to the session loop — which must
// find it there.
func TestEdgeSessionKeepsFramesReadAhead(t *testing.T) {
	welcome := frameOf(t, &Message{Type: MsgWelcome, Models: []ModelMeta{{Name: "m"}}, ResumeToken: "tok"})
	conn := &scriptConn{segments: [][]byte{
		concat(welcome, frameOf(t, &Message{Type: MsgAssign, Slot: 0, ModelID: 0})),
		frameOf(t, &Message{Type: MsgDone}),
	}}
	rt := &slotLog{}
	if err := RunEdge(conn, 1, rt); err != nil {
		t.Fatalf("RunEdge: %v", err)
	}
	if !reflect.DeepEqual(rt.served, []int{0}) {
		t.Fatalf("served slots %v, want [0]: the Assign behind the Welcome was lost", rt.served)
	}
	sent := conn.sent(t)
	if len(sent) != 2 || sent[0].Type != MsgHello || sent[1].Type != MsgReport || sent[1].Slot != 0 {
		t.Fatalf("edge sent %+v, want Hello then the slot-0 Report", sent)
	}
}

// TestEdgeSessionSeesAbortBehindAssign: the cloud's abort frame sits right
// behind an Assign in the same segment. The session serves the slot, then
// reads the abort out of its buffer and ends with the cloud's reason.
func TestEdgeSessionSeesAbortBehindAssign(t *testing.T) {
	conn := &scriptConn{segments: [][]byte{
		frameOf(t, &Message{Type: MsgWelcome, Models: []ModelMeta{{Name: "m"}}, ResumeToken: "tok"}),
		concat(frameOf(t, &Message{Type: MsgAssign, Slot: 0}), frameOf(t, &Message{Type: MsgError, Reason: "edge 3 failed"})),
	}}
	rt := &slotLog{}
	err := RunEdge(conn, 0, rt)
	if err == nil || !strings.Contains(err.Error(), "cloud aborted: edge 3 failed") {
		t.Fatalf("RunEdge: err = %v, want the cloud's abort", err)
	}
	if !reflect.DeepEqual(rt.served, []int{0}) {
		t.Fatalf("served slots %v, want [0]", rt.served)
	}
}

// TestEdgeSessionSwitchWithoutWeights: an Assign switches the edge to a model
// it holds no copy of and carries no weights. The real runtime has nothing to
// install, so the edge must answer with an Error frame — never a Report
// scored on an uninitialised network.
func TestEdgeSessionSwitchWithoutWeights(t *testing.T) {
	conn := &scriptConn{segments: [][]byte{
		frameOf(t, &Message{Type: MsgWelcome, Models: []ModelMeta{{Name: "a"}, {Name: "b"}}, ResumeToken: "tok"}),
		frameOf(t, &Message{Type: MsgAssign, Slot: 0, ModelID: 1, Switch: true}),
	}}
	err := RunEdge(conn, 0, benchRuntime(t, false)) // holds model 0 only
	if err == nil || !strings.Contains(err.Error(), "load model 1") {
		t.Fatalf("RunEdge: err = %v, want the failed load of model 1", err)
	}
	sent := conn.sent(t)
	if len(sent) != 2 || sent[0].Type != MsgHello || sent[1].Type != MsgError || !strings.Contains(sent[1].Reason, "model 1") {
		t.Fatalf("edge sent %+v, want Hello then an Error naming model 1", sent)
	}
}

// TestEdgeSessionResumeReplaysCachedReport: a report write dies mid-frame,
// the edge redials, and the cloud re-assigns the slot. The answer must be the
// cached report — the slot is not served twice — and it must be intact: the
// resumed connection's reader recycles its decode targets for the resume
// Welcome and the duplicate Assign, and none of that may reach the cache.
func TestEdgeSessionResumeReplaysCachedReport(t *testing.T) {
	rt := &slotLog{}
	s, err := NewEdgeSession(4, rt)
	if err != nil {
		t.Fatal(err)
	}
	first := &scriptConn{
		failWriteAt: 3, // Hello, Report 0, then Report 1 is torn
		segments: [][]byte{
			frameOf(t, &Message{Type: MsgWelcome, Models: []ModelMeta{{Name: "m"}}, ResumeToken: "tok-4"}),
			frameOf(t, &Message{Type: MsgAssign, Slot: 0, ModelID: 2}),
			frameOf(t, &Message{Type: MsgAssign, Slot: 1, ModelID: 3}),
		},
	}
	done, err := s.Run(first)
	if done || err == nil || !Transient(err) {
		t.Fatalf("Run over the cut connection: done=%v err=%v, want a transient failure", done, err)
	}
	second := &scriptConn{segments: [][]byte{
		frameOf(t, &Message{Type: MsgWelcome}),
		// The duplicate carries different fields on purpose: only the slot
		// number may matter.
		frameOf(t, &Message{Type: MsgAssign, Slot: 1, ModelID: 9, Switch: true, Weights: []byte("recycled target filler")}),
		frameOf(t, &Message{Type: MsgAssign, Slot: 2, ModelID: 1}),
		frameOf(t, &Message{Type: MsgDone}),
	}}
	if done, err := s.Run(second); !done || err != nil {
		t.Fatalf("resumed Run: done=%v err=%v", done, err)
	}
	if !reflect.DeepEqual(rt.served, []int{0, 1, 2}) || !reflect.DeepEqual(rt.models, []int{2, 3, 1}) {
		t.Fatalf("served slots %v on models %v, want each of 0, 1, 2 exactly once, on models 2, 3, 1", rt.served, rt.models)
	}
	sent := second.sent(t)
	if len(sent) != 3 {
		t.Fatalf("resumed connection carried %d frames, want Hello + 2 reports", len(sent))
	}
	if h := sent[0]; !h.Resume || h.ResumeToken != "tok-4" {
		t.Errorf("resume Hello = %+v, want token tok-4", h)
	}
	want := &Message{Type: MsgReport, Slot: 1, AvgLoss: 1.25, Correct: 1, Samples: 3, EnergyKWh: 1e-7, CompSeconds: 0.01}
	if !reflect.DeepEqual(sent[1], want) {
		t.Errorf("replayed report = %+v\nwant the cached slot-1 report %+v", sent[1], want)
	}
	if sent[2].Slot != 2 {
		t.Errorf("report after the replay = %+v, want slot 2", sent[2])
	}
}

// TestRegionSessionResumeReplaysCachedDelta is the coordinator-side twin: a
// ShardDelta write dies mid-frame, the coordinator redials, the root
// re-assigns the slot, and the delta that comes back is the cached one, byte
// for byte what an undisturbed exchange carries — the edges are not stepped
// twice, and the resumed upstream reader's recycled targets (its Arms and
// Downloads now hold a different placement) never reach the cache.
func TestRegionSessionResumeReplaysCachedDelta(t *testing.T) {
	const edges, seed = 3, int64(33)
	// play runs one coordinator session with its three edges and lets script
	// play the root; it returns the slot-1 delta frame the script captured.
	play := func(t *testing.T, script func(s *RegionSession) (slot1 []byte)) []byte {
		w := newParityWorld(seed)
		var wg sync.WaitGroup
		links := make([]net.Conn, edges)
		for i := range links {
			regionSide, edgeSide := net.Pipe()
			links[i] = regionSide
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer edgeSide.Close()
				if err := RunEdge(edgeSide, i, &parityRuntime{w: w, edge: i, rng: w.edgeRNG(i)}); err != nil {
					t.Errorf("edge %d: %v", i, err)
				}
			}()
		}
		ln := newChanListener(links...)
		defer ln.Close()
		s, err := NewRegionSession(ln, RegionConfig{RegionID: 0, Source: &paritySource{w: w}, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		slot1 := script(s)
		wg.Wait()
		return slot1
	}

	arms := func(k int) []int { return []int{k % 4, (k + 1) % 4, (k + 2) % 4} }
	assign := func(slot int, a []int, dl bool) *Message {
		return &Message{Type: MsgShardAssign, Slot: slot, Start: 0, Arms: a, Downloads: []bool{dl, dl, dl}}
	}
	// serve runs s.Run over one upstream pipe while root plays the root's
	// side of it; it returns Run's outcome.
	serve := func(t *testing.T, s *RegionSession, root func(up net.Conn)) (bool, error) {
		rootSide, regionSide := net.Pipe()
		type outcome struct {
			done bool
			err  error
		}
		res := make(chan outcome, 1)
		go func() {
			done, err := s.Run(regionSide)
			regionSide.Close()
			res <- outcome{done, err}
		}()
		root(rootSide)
		rootSide.Close()
		o := <-res
		return o.done, o.err
	}
	exchange := func(t *testing.T, up net.Conn, m *Message) []byte {
		t.Helper()
		if err := WriteMessage(up, m); err != nil {
			t.Fatalf("root write: %v", err)
		}
		d, err := ReadMessage(up)
		if err != nil || d.Type != MsgShardDelta || d.Slot != m.Slot {
			t.Fatalf("root read for slot %d: %+v, %v", m.Slot, d, err)
		}
		return frameOf(t, d)
	}
	hello := func(t *testing.T, up net.Conn, welcome *Message) *Message {
		t.Helper()
		h, err := ReadMessage(up)
		if err != nil || h.Type != MsgRegionHello {
			t.Fatalf("root: hello = %+v, %v", h, err)
		}
		if err := WriteMessage(up, welcome); err != nil {
			t.Fatal(err)
		}
		return h
	}
	welcome := &Message{Type: MsgRegionWelcome, NumModels: 4, ResumeToken: "region-tok",
		Checkpoint: &engine.ShardCheckpoint{FleetSeed: seed, Down: make([]bool, edges)}}

	clean := play(t, func(s *RegionSession) (slot1 []byte) {
		done, err := serve(t, s, func(up net.Conn) {
			hello(t, up, welcome)
			exchange(t, up, assign(0, arms(0), true))
			slot1 = exchange(t, up, assign(1, arms(1), false))
			exchange(t, up, assign(2, arms(2), false))
			if err := WriteMessage(up, &Message{Type: MsgDone}); err != nil {
				t.Error(err)
			}
		})
		if !done || err != nil {
			t.Fatalf("clean run: done=%v err=%v", done, err)
		}
		return slot1
	})

	torn := play(t, func(s *RegionSession) (slot1 []byte) {
		done, err := serve(t, s, func(up net.Conn) {
			hello(t, up, welcome)
			exchange(t, up, assign(0, arms(0), true))
			if err := WriteMessage(up, assign(1, arms(1), false)); err != nil {
				t.Error(err)
			}
			// Take the header and a little of the body, then cut the link.
			if _, err := io.ReadFull(up, make([]byte, 20)); err != nil {
				t.Error(err)
			}
		})
		if done || err == nil {
			t.Fatalf("Run over the cut upstream: done=%v err=%v, want a resumable failure", done, err)
		}
		done, err = serve(t, s, func(up net.Conn) {
			h := hello(t, up, &Message{Type: MsgRegionWelcome})
			if !h.Resume || h.ResumeToken != "region-tok" {
				t.Errorf("resume hello = %+v, want token region-tok", h)
			}
			// A different placement than the one the slot was stepped with:
			// a replay from the cache ignores it, a re-step would not.
			slot1 = exchange(t, up, assign(1, arms(3), true))
			exchange(t, up, assign(2, arms(2), false))
			if err := WriteMessage(up, &Message{Type: MsgDone}); err != nil {
				t.Error(err)
			}
		})
		if !done || err != nil {
			t.Fatalf("resumed run: done=%v err=%v", done, err)
		}
		return slot1
	})

	if !bytes.Equal(torn, clean) {
		t.Errorf("replayed slot-1 delta differs from the undisturbed exchange:\n replayed %s\n clean    %s", torn[headerLen:], clean[headerLen:])
	}
	d, err := ReadMessage(bytes.NewReader(clean))
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateDelta(d, 0, edges, 1); err != nil {
		t.Errorf("slot-1 delta: %v", err)
	}
	for j, ed := range d.Delta.Edges {
		if !ed.Served || ed.Samples == 0 {
			t.Errorf("slot-1 delta edge %d = %+v, want a served edge", j, ed)
		}
	}

	// The delta on the wire is the shard's own, edge for edge: an in-process
	// engine.Shard over the same parity steppers and placements yields the
	// same terms. A region that rewrites its cache (moving one edge's term
	// onto another, say) can keep the root's totals and parity and still
	// fail here.
	w := newParityWorld(seed)
	steppers := make([]engine.EdgeStepper, edges)
	for i := range steppers {
		steppers[i] = &parityStepper{w: w, edge: i, rng: w.edgeRNG(i)}
	}
	sh, err := engine.NewShard(engine.ShardConfig{}, steppers)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sh.Step(0, arms(0), []bool{true, true, true}); err != nil {
		t.Fatal(err)
	}
	want, err := sh.Step(1, arms(1), []bool{false, false, false})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(d.Delta.Edges, want.Edges) {
		t.Errorf("slot-1 delta edges differ from an in-process shard's:\n wire     %+v\n in-proc  %+v", d.Delta.Edges, want.Edges)
	}
}
