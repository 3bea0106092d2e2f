package deploy

// The elastic-regional-tier scale experiment behind the EXPERIMENTS.md
// "Elastic regional tier at 100k edges" entry. It is not part of the tier-1
// suite: set CARBONEDGE_EXPERIMENT=1 to run it (and optionally
// CARBONEDGE_EXPERIMENT_EDGES to change the fleet size):
//
//	CARBONEDGE_EXPERIMENT=1 go test -run TestExperimentElasticRegionScale \
//	    -v -timeout 60m ./internal/deploy/
//
// The run drives the real root + regional coordinators over loopback TCP
// (root links) while the fleet's edge links are in-memory net.Pipe pairs —
// the host's fd ceiling (20k here) makes 100k real sockets impossible in
// one process, and the deploy layer only ever sees net.Conn either way.
// Mid-run, one coordinator's upstream link is cut; it redials, resumes from
// its shard watermark, and the final summary must equal the fault-free
// run's bytes once the elasticity counters are stripped.

import (
	"encoding/json"
	"fmt"
	"net"
	"os"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/carbonedge/carbonedge/internal/engine"
	"github.com/carbonedge/carbonedge/internal/market"
	"github.com/carbonedge/carbonedge/internal/numeric"
)

// chanListener serves pre-created in-memory connections: Accept drains the
// queue, then blocks until Close.
type chanListener struct {
	conns chan net.Conn
	done  chan struct{}
	once  sync.Once
}

func newChanListener(capacity int) *chanListener {
	return &chanListener{conns: make(chan net.Conn, capacity), done: make(chan struct{})}
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

// runElasticScale drives one root+regions run over the parity world and
// returns the summary and its wall time. killRegion < 0 runs fault-free;
// otherwise that coordinator's first upstream connection is cut at
// killSlot and it must redial and resume.
func runElasticScale(t *testing.T, edges, regions, horizon int, seed int64, killRegion, killSlot int) (*Summary, time.Duration) {
	t.Helper()
	w := newParityWorld(seed)
	prices, err := market.GeneratePrices(market.DefaultPriceConfig(), horizon, numeric.SplitRNG(seed, "scale-prices"))
	if err != nil {
		t.Fatal(err)
	}
	costs := make([]float64, edges)
	for i := range costs {
		costs[i] = 0.4 + 0.2*float64(i%16)
	}
	retry := defaultChaosRetry()
	root, err := NewRoot(RootConfig{
		Edges:         edges,
		Regions:       regions,
		Horizon:       horizon,
		DownloadCosts: costs,
		InitialCap:    0.01,
		EmissionRate:  500,
		Prices:        prices,
		EmissionScale: 1e-3,
		Seed:          seed,
		NumModels:     len(w.metas),
		Policy:        engine.Degrade,
		Retry:         retry,
	})
	if err != nil {
		t.Fatal(err)
	}
	root.retry.sleep = func(time.Duration) {}

	rootLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer rootLn.Close()

	start := time.Now()
	var wg sync.WaitGroup
	ranges := engine.PartitionEdges(edges, regions)
	regionErrs := make([]error, regions)
	edgeErrs := make([]error, edges)
	for r := range ranges {
		rg := ranges[r]
		ln := newChanListener(rg.Count)
		for i := rg.Start; i < rg.Start+rg.Count; i++ {
			regionSide, edgeSide := net.Pipe()
			ln.conns <- regionSide
			i := i
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer edgeSide.Close()
				edgeErrs[i] = RunEdge(edgeSide, i, &parityRuntime{w: w, edge: i, rng: w.edgeRNG(i)})
			}()
		}
		id := r
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer ln.Close()
			var fcMu sync.Mutex
			var fc *faultConn
			dials := 0
			dial := func() (net.Conn, error) {
				conn, err := net.Dial("tcp", rootLn.Addr().String())
				if err != nil {
					return nil, err
				}
				dials++
				if dials == 1 && id == killRegion {
					f, ferr := newFaultConn(conn, faultKillAt(killSlot), numeric.SplitRNG(seed, fmt.Sprintf("scale-fault-%d", id)), func(time.Duration) {})
					if ferr != nil {
						conn.Close()
						return nil, ferr
					}
					fcMu.Lock()
					fc = f
					fcMu.Unlock()
					return f, nil
				}
				fcMu.Lock()
				fc = nil // redials are clean
				fcMu.Unlock()
				return conn, nil
			}
			regionErrs[id] = RunRegionResumable(dial, ln, RegionConfig{
				RegionID: id,
				Source:   &paritySource{w: w},
				Seed:     seed + int64(id),
				Retry:    retry,
				OnSlot: func(slot int) {
					fcMu.Lock()
					if fc != nil {
						fc.SetSlot(slot)
					}
					fcMu.Unlock()
				},
			}, 3)
		}()
	}

	sum, err := root.Serve(rootLn)
	if err != nil {
		t.Fatalf("root.Serve: %v", err)
	}
	wg.Wait()
	elapsed := time.Since(start)
	for id, err := range regionErrs {
		if err != nil {
			t.Fatalf("region %d: %v", id, err)
		}
	}
	for i, err := range edgeErrs {
		if err != nil {
			t.Fatalf("edge %d: %v", i, err)
		}
	}
	return sum, elapsed
}

// peakRSSMiB reads the process high-water resident set from the kernel.
func peakRSSMiB(t *testing.T) float64 {
	t.Helper()
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		t.Logf("peak RSS unavailable: %v", err)
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			break
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			break
		}
		return kb / 1024
	}
	return 0
}

func TestExperimentElasticRegionScale(t *testing.T) {
	if os.Getenv("CARBONEDGE_EXPERIMENT") == "" {
		t.Skip("set CARBONEDGE_EXPERIMENT=1 to run the elastic-tier scale experiment")
	}
	edges := 100000
	if v := os.Getenv("CARBONEDGE_EXPERIMENT_EDGES"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n <= 0 {
			t.Fatalf("bad CARBONEDGE_EXPERIMENT_EDGES %q", v)
		}
		edges = n
	}
	const (
		regions = 8
		horizon = 8
		seed    = int64(71)
		killAt  = 4
		killed  = 3
	)

	clean, cleanTime := runElasticScale(t, edges, regions, horizon, seed, -1, 0)
	chaos, chaosTime := runElasticScale(t, edges, regions, horizon, seed, killed, killAt)

	if got := chaos.RegionResumes[killed]; got != 1 {
		t.Errorf("RegionResumes[%d] = %d, want 1", killed, got)
	}
	if !reflect.DeepEqual(stripElasticity(chaos), clean) {
		t.Error("recovered summary diverged from the fault-free run")
	}
	cleanJSON, err := json.Marshal(clean)
	if err != nil {
		t.Fatal(err)
	}
	chaosJSON, err := json.Marshal(stripElasticity(chaos))
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("edges=%d regions=%d horizon=%d", edges, regions, horizon)
	t.Logf("fault-free: %v   kill+resume: %v   peak RSS: %.0f MiB", cleanTime, chaosTime, peakRSSMiB(t))
	t.Logf("summary diff: %d bytes vs %d bytes, equal=%v", len(cleanJSON), len(chaosJSON), string(cleanJSON) == string(chaosJSON))
	total := 0.0
	for _, e := range clean.Emissions {
		total += e
	}
	t.Logf("loss=%.2f switches=%d emissions=%.4fg trade=%.4f fit=%.5fg",
		clean.ObservedLoss, clean.Switches, total, clean.TradingCost, clean.Fit)
}
