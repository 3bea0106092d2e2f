package deploy

import (
	"errors"
	"fmt"
	"net"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/carbonedge/carbonedge/internal/engine"
	"github.com/carbonedge/carbonedge/internal/market"
	"github.com/carbonedge/carbonedge/internal/numeric"
)

// TestRegionalCloudParity is the regional tier's bit-identity pin: a root
// with two (and three) regional coordinators over loopback TCP must produce
// exactly the monolithic cloud's Summary — selections, trades, emissions,
// fit, accuracy, everything — because the shard deltas carry per-edge terms
// that the root folds in the canonical serial order.
func TestRegionalCloudParity(t *testing.T) {
	spec := fleetSpec{edges: 5, horizon: 20, seed: 33}
	mono := runFleet(t, spec)
	requireQuiet(t, mono)
	for _, regions := range []int{2, 3} {
		spec.regions = regions
		regional := runFleet(t, spec)
		requireQuiet(t, regional)
		if !reflect.DeepEqual(mono.sum, regional.sum) {
			t.Errorf("regions=%d: regional Summary diverged from monolithic:\n mono: %+v\n regn: %+v",
				regions, mono.sum, regional.sum)
		}
	}
}

// TestRootValidation covers the root's configuration checks.
func TestRootValidation(t *testing.T) {
	prices, err := market.GeneratePrices(market.DefaultPriceConfig(), 10, numeric.SplitRNG(1, "prices"))
	if err != nil {
		t.Fatal(err)
	}
	base := RootConfig{
		Edges: 4, Regions: 2, Horizon: 10,
		DownloadCosts: []float64{1, 1, 1, 1},
		InitialCap:    1, EmissionRate: 500,
		Prices: prices, Seed: 1, NumModels: 3,
	}
	if _, err := NewRoot(base); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	for name, mutate := range map[string]func(*RootConfig){
		"no edges":       func(c *RootConfig) { c.Edges = 0 },
		"no regions":     func(c *RootConfig) { c.Regions = 0 },
		"too many":       func(c *RootConfig) { c.Regions = 5 },
		"costs mismatch": func(c *RootConfig) { c.DownloadCosts = []float64{1} },
		"nil prices":     func(c *RootConfig) { c.Prices = nil },
		"no models":      func(c *RootConfig) { c.NumModels = 0 },
		"bad policy":     func(c *RootConfig) { c.Policy = engine.ErrorPolicy(7) },
		"bad rate":       func(c *RootConfig) { c.EmissionRate = -1 },
		"short prices":   func(c *RootConfig) { c.Horizon = 99 },
		"bad quorum":     func(c *RootConfig) { c.RegionQuorum = -1 },
	} {
		cfg := base
		mutate(&cfg)
		if _, err := NewRoot(cfg); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
	for name, retry := range badRetryConfigs {
		cfg := base
		cfg.Retry = retry
		if _, err := NewRoot(cfg); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

// TestRegionSessionValidation covers the coordinator's configuration checks.
func TestRegionSessionValidation(t *testing.T) {
	base := RegionConfig{RegionID: 1, Source: &paritySource{w: newParityWorld(1)}, Seed: 1}
	if _, err := NewRegionSession(nil, base); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bad := map[string]func(*RegionConfig){
		"nil source":     func(c *RegionConfig) { c.Source = nil },
		"negative id":    func(c *RegionConfig) { c.RegionID = -1 },
		"negative leave": func(c *RegionConfig) { c.LeaveBeforeSlot = -1 },
	}
	for name, retry := range badRetryConfigs {
		retry := retry
		bad[name] = func(c *RegionConfig) { c.Retry = retry }
	}
	for name, mutate := range bad {
		cfg := base
		mutate(&cfg)
		if _, err := NewRegionSession(nil, cfg); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

// scriptUpstream runs a fresh coordinator session (region 1, seed 7) over
// one upstream pipe whose root side answers the Hello with script's frames
// (given the zoo size) and then cuts the link. It returns the session, the
// frame the root read back (nil unless wantReply: a frame taken silently
// sends nothing), and how Run ended.
func scriptUpstream(t *testing.T, script func(numModels int) []byte, wantReply bool) (s *RegionSession, reply *Message, done bool, err error) {
	t.Helper()
	w := newParityWorld(7)
	ln := newChanListener()
	defer ln.Close()
	s, err = NewRegionSession(ln, RegionConfig{
		RegionID: 1, Source: &paritySource{w: w}, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
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
	if m, err := ReadMessage(rootSide); err != nil || m.Type != MsgRegionHello {
		t.Fatalf("hello: %+v, %v", m, err)
	}
	if _, err := rootSide.Write(script(len(w.metas))); err != nil {
		t.Fatal(err)
	}
	if wantReply {
		rootSide.SetReadDeadline(time.Now().Add(5 * time.Second)) //nolint:errcheck // net.Pipe honors deadlines
		if reply, err = ReadMessage(rootSide); err != nil {
			t.Fatalf("reading the coordinator's verdict: %v", err)
		}
	}
	rootSide.Close()
	o := <-res
	return s, reply, o.done, o.err
}

// requireRefused asserts that a session ended on a fatal *ProtocolError
// that it sent upstream as an Error frame.
func requireRefused(t *testing.T, reply *Message, done bool, err error) {
	t.Helper()
	var pe *ProtocolError
	if !done || !errors.As(err, &pe) || Transient(err) {
		t.Fatalf("Run = done %v, %v; want the session ended by a fatal *ProtocolError", done, err)
	}
	if reply.Type != MsgError || reply.Reason != err.Error() {
		t.Errorf("root read %+v, want an Error frame carrying %q", reply, err)
	}
}

// TestRegionSessionRejectsHostileAdopt puts each hostile checkpoint on a
// standby coordinator's upstream link. Every one is a fatal *ProtocolError
// that ends the session with an Error frame upstream, before edgeFleet.adopt
// builds a single link; wellFormedCheckpoint is adopted on the same session.
func TestRegionSessionRejectsHostileAdopt(t *testing.T) {
	adopt := func(checkpoint string) func(int) []byte {
		return func(numModels int) []byte {
			welcome := &Message{Type: MsgRegionWelcome, NumModels: numModels, ResumeToken: "tok"}
			return concat(frameOf(t, welcome), adoptFrame(checkpoint))
		}
	}
	for name, ck := range hostileCheckpoints {
		t.Run(name, func(t *testing.T) {
			s, reply, done, err := scriptUpstream(t, adopt(ck), true)
			requireRefused(t, reply, done, err)
			if n := len(s.fleet.links()); n != 0 || len(s.shards) != 0 {
				t.Errorf("rejected adopt left %d links and %d shards behind", n, len(s.shards))
			}
		})
	}

	s, _, done, err := scriptUpstream(t, adopt(wellFormedCheckpoint), false)
	if done || !Transient(err) {
		t.Fatalf("Run after a well-formed adopt and a cut link = done %v, %v; want a resumable failure", done, err)
	}
	start, count := 0, 0
	if len(s.shards) == 1 {
		start, count = s.shards[0].shard.Range()
	}
	if n := len(s.fleet.links()); n != 2 || len(s.shards) != 1 || start != 4 || count != 2 {
		t.Errorf("well-formed adopt installed %d links and %d shards, the first covering [%d,%d); want 2 links and one shard covering [4,6)",
			n, len(s.shards), start, start+count)
	}
	s.release()
}

// TestRegionSessionRejectsHostileWelcome puts each hostile checkpoint in the
// RegionWelcome that hands an initial coordinator its shard. The welcome's
// shard is checked as an adopted one is: every one is a fatal
// *ProtocolError that ends the session with an Error frame upstream, before
// the coordinator builds its fleet.
func TestRegionSessionRejectsHostileWelcome(t *testing.T) {
	for name, ck := range hostileCheckpoints {
		t.Run(name, func(t *testing.T) {
			s, reply, done, err := scriptUpstream(t, func(numModels int) []byte { return welcomeFrame(numModels, ck) }, true)
			requireRefused(t, reply, done, err)
			if s.fleet != nil || len(s.shards) != 0 {
				t.Errorf("rejected welcome built a fleet with %d shards", len(s.shards))
			}
		})
	}
}

// TestRunRegionRejectsZooMismatch pins the welcome validation: a region
// whose zoo size disagrees with the root's announcement must refuse to run,
// and tell the root why.
func TestRunRegionRejectsZooMismatch(t *testing.T) {
	w := newParityWorld(5)
	rootSide, regionSide := net.Pipe()
	defer rootSide.Close()
	done := make(chan error, 1)
	go func() {
		done <- RunRegion(regionSide, nil, RegionConfig{RegionID: 0, Source: &paritySource{w: w}, Seed: 5})
	}()
	if m, err := ReadMessage(rootSide); err != nil || m.Type != MsgRegionHello {
		t.Fatalf("hello: %v %v", m, err)
	}
	if err := WriteMessage(rootSide, &Message{
		Type: MsgRegionWelcome, NumModels: len(w.metas) + 1,
		Checkpoint: &engine.ShardCheckpoint{FleetSeed: 5, Down: make([]bool, 2)},
	}); err != nil {
		t.Fatal(err)
	}
	if m, err := ReadMessage(rootSide); err != nil || m.Type != MsgError || !strings.Contains(m.Reason, "models") {
		t.Errorf("root read %+v, %v; want an Error frame naming the zoo mismatch", m, err)
	}
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("expected zoo-mismatch error")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("region hung on zoo mismatch")
	}
}

// TestRegionalFailFastMatchesMonolithicError pins the error path: an edge
// that fails mid-run under FailFast aborts the regional run with the exact
// error string the engine reports, forwarded verbatim through the region.
func TestRegionalFailFastMatchesMonolithicError(t *testing.T) {
	const failEdge, failSlot = 2, 4
	run := runFleet(t, fleetSpec{edges: 4, regions: 2, horizon: 12, seed: 9,
		runtime: func(i int, rt Runtime) Runtime {
			if i == failEdge {
				rt = &failingRuntime{Runtime: rt, failSlot: failSlot}
			}
			return rt
		}})
	if run.serveErr == nil {
		t.Fatal("expected the failing edge to abort the run")
	}
	want := fmt.Sprintf("engine: edge %d slot %d:", failEdge, failSlot)
	if got := run.serveErr.Error(); !strings.HasPrefix(got, want) {
		t.Errorf("error %q does not carry the engine's FailFast prefix %q", got, want)
	}
}
