package deploy

// The elastic-regional-tier scale experiment behind the EXPERIMENTS.md
// "Elastic regional tier at 100k edges" entry. Every go test runs it at 64
// edges; CARBONEDGE_EXPERIMENT_EDGES sets the fleet size of the recorded run:
//
//	CARBONEDGE_EXPERIMENT_EDGES=100000 go test -run TestExperimentElasticRegionScale \
//	    -v -timeout 60m ./internal/deploy/
//
// The run drives the real root + regional coordinators over loopback TCP
// (root links) while the fleet's edge links are in-memory net.Pipe pairs —
// the host's fd ceiling (20k here) makes 100k real sockets impossible in
// one process, and the deploy layer only ever sees net.Conn either way.
// Mid-run, one coordinator's upstream link is cut; it redials, resumes its
// session, and the final summary must equal the fault-free
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

	rootLn := listen(t)

	start := time.Now()
	var wg sync.WaitGroup
	ranges := engine.PartitionEdges(edges, regions)
	regionErrs := make([]error, regions)
	edgeErrs := make([]error, edges)
	for r, rg := range ranges {
		links := make([]net.Conn, rg.Count)
		for i := rg.Start; i < rg.Start+rg.Count; i++ {
			regionSide, edgeSide := net.Pipe()
			links[i-rg.Start] = regionSide
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer edgeSide.Close()
				edgeErrs[i] = RunEdge(edgeSide, i, &parityRuntime{w: w, edge: i, rng: w.edgeRNG(i)})
			}()
		}
		ln, id := newChanListener(links...), r
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
	edges := 64
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
