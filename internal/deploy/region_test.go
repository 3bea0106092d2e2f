package deploy

import (
	"errors"
	"fmt"
	"net"
	"reflect"
	"sync"
	"testing"
	"time"

	"github.com/carbonedge/carbonedge/internal/engine"
	"github.com/carbonedge/carbonedge/internal/market"
	"github.com/carbonedge/carbonedge/internal/numeric"
)

// runMonolithic serves the parity world through the single-process Cloud.
func runMonolithic(t *testing.T, w *parityWorld, cfg CloudConfig) *Summary {
	t.Helper()
	cloud, err := NewCloud(cfg, &paritySource{w: w})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	var wg sync.WaitGroup
	edgeErrs := make([]error, cfg.Edges)
	for i := 0; i < cfg.Edges; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			conn, err := net.Dial("tcp", ln.Addr().String())
			if err != nil {
				edgeErrs[i] = err
				return
			}
			defer conn.Close()
			edgeErrs[i] = RunEdge(conn, i, &parityRuntime{w: w, edge: i, rng: w.edgeRNG(i)})
		}(i)
	}
	sum, err := cloud.Serve(ln)
	if err != nil {
		t.Fatalf("cloud.Serve: %v", err)
	}
	wg.Wait()
	for i, err := range edgeErrs {
		if err != nil {
			t.Fatalf("edge %d: %v", i, err)
		}
	}
	return sum
}

// runRegional serves the same world through a root plus `regions` regional
// coordinators, each admitting its shard's edges on its own listener.
func runRegional(t *testing.T, w *parityWorld, cfg CloudConfig, regions int) *Summary {
	t.Helper()
	root, err := NewRoot(RootConfig{
		Edges:         cfg.Edges,
		Regions:       regions,
		Horizon:       cfg.Horizon,
		DownloadCosts: cfg.DownloadCosts,
		InitialCap:    cfg.InitialCap,
		EmissionRate:  cfg.EmissionRate,
		Prices:        cfg.Prices,
		EmissionScale: cfg.EmissionScale,
		Seed:          cfg.Seed,
		NumModels:     len(w.metas),
		Policy:        cfg.Policy,
	})
	if err != nil {
		t.Fatal(err)
	}
	rootLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer rootLn.Close()

	ranges := engine.PartitionEdges(cfg.Edges, regions)
	var wg sync.WaitGroup
	regionErrs := make([]error, regions)
	edgeErrs := make([]error, cfg.Edges)
	for r, rg := range ranges {
		edgeLn, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer edgeLn.Close()
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			upstream, err := net.Dial("tcp", rootLn.Addr().String())
			if err != nil {
				regionErrs[r] = err
				return
			}
			defer upstream.Close()
			regionErrs[r] = RunRegion(upstream, edgeLn, RegionConfig{
				RegionID: r,
				Source:   &paritySource{w: w},
				Seed:     cfg.Seed + int64(r),
			})
		}(r)
		for i := rg.Start; i < rg.Start+rg.Count; i++ {
			wg.Add(1)
			go func(i int, addr string) {
				defer wg.Done()
				conn, err := net.Dial("tcp", addr)
				if err != nil {
					edgeErrs[i] = err
					return
				}
				defer conn.Close()
				edgeErrs[i] = RunEdge(conn, i, &parityRuntime{w: w, edge: i, rng: w.edgeRNG(i)})
			}(i, edgeLn.Addr().String())
		}
	}
	sum, err := root.Serve(rootLn)
	if err != nil {
		t.Fatalf("root.Serve: %v", err)
	}
	wg.Wait()
	for r, err := range regionErrs {
		if err != nil {
			t.Fatalf("region %d: %v", r, err)
		}
	}
	for i, err := range edgeErrs {
		if err != nil {
			t.Fatalf("edge %d: %v", i, err)
		}
	}
	return sum
}

// TestRegionalCloudParity is the regional tier's bit-identity pin: a root
// with two (and three) regional coordinators over loopback TCP must produce
// exactly the monolithic cloud's Summary — selections, trades, emissions,
// fit, accuracy, everything — because the shard deltas carry per-edge terms
// that the root folds in the canonical serial order.
func TestRegionalCloudParity(t *testing.T) {
	const (
		edges   = 5
		horizon = 20
		seed    = int64(33)
	)
	w := newParityWorld(seed)
	prices, err := market.GeneratePrices(market.DefaultPriceConfig(), horizon, numeric.SplitRNG(seed, "parity-prices"))
	if err != nil {
		t.Fatal(err)
	}
	downloadCosts := make([]float64, edges)
	for i := range downloadCosts {
		downloadCosts[i] = 0.4 + 0.2*float64(i)
	}
	cfg := CloudConfig{
		Edges:         edges,
		Horizon:       horizon,
		DownloadCosts: downloadCosts,
		InitialCap:    0.01,
		EmissionRate:  500,
		Prices:        prices,
		EmissionScale: 1e-3,
		Seed:          seed,
	}

	mono := runMonolithic(t, w, cfg)
	for _, regions := range []int{2, 3} {
		regional := runRegional(t, w, cfg, regions)
		if !reflect.DeepEqual(mono, regional) {
			t.Errorf("regions=%d: regional Summary diverged from monolithic:\n mono: %+v\n regn: %+v",
				regions, mono, regional)
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

// TestRegionSessionRejectsHostileAdopt puts each hostile checkpoint on a
// standby coordinator's upstream link. Every one is a fatal *ProtocolError
// that ends the session with an Error frame upstream, before edgeFleet.adopt
// builds a single link (a bare count of 2^40 used to size a slice, a jitter
// position of 2^62 used to spin the retry stream); a checkpoint the root's
// regionStepper.checkpoint would send is adopted on the same session.
func TestRegionSessionRejectsHostileAdopt(t *testing.T) {
	// adopt welcomes a standby session, sends it one adopt frame and returns
	// the session, Run's outcome, and what the root read back (nil once the
	// frame was taken silently and the link cut).
	adopt := func(t *testing.T, frame []byte, wantReply bool) (s *RegionSession, reply *Message, done bool, err error) {
		w := newParityWorld(7)
		ln := newChanListener(0)
		defer ln.Close()
		s, err = NewRegionSession(ln, RegionConfig{
			RegionID: 1, Source: &paritySource{w: w}, Seed: 7, Retry: RetryConfig{Attempts: adoptAttempts},
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
		welcome := &Message{Type: MsgRegionWelcome, Horizon: adoptHorizon, NumModels: len(w.metas), ResumeToken: "tok"}
		if err := WriteMessage(rootSide, welcome); err != nil {
			t.Fatal(err)
		}
		if _, err := rootSide.Write(frame); err != nil {
			t.Fatal(err)
		}
		if wantReply {
			if reply, err = ReadMessage(rootSide); err != nil {
				t.Fatalf("reading the coordinator's verdict: %v", err)
			}
		}
		rootSide.Close()
		o := <-res
		return s, reply, o.done, o.err
	}

	for name, ck := range hostileCheckpoints {
		t.Run(name, func(t *testing.T) {
			s, reply, done, err := adopt(t, adoptFrame(ck), true)
			var pe *ProtocolError
			if !done || !errors.As(err, &pe) || Transient(err) {
				t.Fatalf("Run = done %v, %v; want the session ended by a fatal *ProtocolError", done, err)
			}
			if reply.Type != MsgError || reply.Reason != err.Error() {
				t.Errorf("root read %+v, want an Error frame carrying %q", reply, err)
			}
			if n := len(s.fleet.links()); n != 0 || len(s.shards) != 0 {
				t.Errorf("rejected adopt left %d links and %d shards behind", n, len(s.shards))
			}
		})
	}

	good := `{"start":4,"count":2,"doneSlots":4,"fleetSeed":7,"down":[false,true],"downErrors":["","gone"],"jitterDraws":[0,8]}`
	s, _, done, err := adopt(t, adoptFrame(good), false)
	if done || !Transient(err) {
		t.Fatalf("Run after a well-formed adopt and a cut link = done %v, %v; want a resumable failure", done, err)
	}
	if n := len(s.fleet.links()); n != 2 || len(s.shards) != 1 || s.shards[0].done != 4 {
		t.Errorf("well-formed adopt installed %d links, shards %+v; want 2 links and one shard at slot 4", n, s.shards)
	}
	s.release()
}

// TestRunRegionRejectsZooMismatch pins the welcome validation: a region
// whose zoo size disagrees with the root's announcement must refuse to run.
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
		Type: MsgRegionWelcome, Start: 0, Count: 2, Horizon: 5, NumModels: len(w.metas) + 1,
	}); err != nil {
		t.Fatal(err)
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
	const edges, horizon, seed = 4, 12, int64(9)
	w := newParityWorld(seed)
	prices, err := market.GeneratePrices(market.DefaultPriceConfig(), horizon, numeric.SplitRNG(seed, "parity-prices"))
	if err != nil {
		t.Fatal(err)
	}
	costs := make([]float64, edges)
	for i := range costs {
		costs[i] = 0.5
	}
	root, err := NewRoot(RootConfig{
		Edges: edges, Regions: 2, Horizon: horizon,
		DownloadCosts: costs, InitialCap: 0.01, EmissionRate: 500,
		Prices: prices, Seed: seed, NumModels: len(w.metas),
	})
	if err != nil {
		t.Fatal(err)
	}
	rootLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer rootLn.Close()

	const failEdge, failSlot = 2, 4
	ranges := engine.PartitionEdges(edges, 2)
	var wg sync.WaitGroup
	for r, rg := range ranges {
		edgeLn, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer edgeLn.Close()
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			upstream, err := net.Dial("tcp", rootLn.Addr().String())
			if err != nil {
				return
			}
			defer upstream.Close()
			_ = RunRegion(upstream, edgeLn, RegionConfig{RegionID: r, Source: &paritySource{w: w}, Seed: seed})
		}(r)
		for i := rg.Start; i < rg.Start+rg.Count; i++ {
			wg.Add(1)
			go func(i int, addr string) {
				defer wg.Done()
				conn, err := net.Dial("tcp", addr)
				if err != nil {
					return
				}
				defer conn.Close()
				var rt Runtime = &parityRuntime{w: w, edge: i, rng: w.edgeRNG(i)}
				if i == failEdge {
					rt = &failingRuntime{Runtime: rt, failSlot: failSlot}
				}
				_ = RunEdge(conn, i, rt)
			}(i, edgeLn.Addr().String())
		}
	}
	_, err = root.Serve(rootLn)
	wg.Wait()
	if err == nil {
		t.Fatal("expected the failing edge to abort the run")
	}
	want := fmt.Sprintf("engine: edge %d slot %d:", failEdge, failSlot)
	if got := err.Error(); len(got) < len(want) || got[:len(want)] != want {
		t.Errorf("error %q does not carry the engine's FailFast prefix %q", got, want)
	}
}
