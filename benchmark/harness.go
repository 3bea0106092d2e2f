package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// sizes fixes how much work one pass of each workload is. The fleets are the
// issue's; the horizons are what fits several passes into a twenty-second run on
// a two-core host.
type sizes struct {
	simEdges, simSlots       int
	regionEdges, regionSlots int
	// edge-serving: slots, per-edge pool, samples served per slot, and the
	// zoo's training set, test set and epochs.
	serveSlots, servePool, serveSamples int
	zooTrainN, zooTestN, zooEpochs      int
	// microIters is the iteration count of the isolated bandit and trading
	// cycles; forwardReps how many batches each per-layer forward timing
	// averages over.
	microIters, forwardReps int
	// probeALUIters, probeHandoffs and probeSweepStates size the host probe's
	// three kernels.
	probeALUIters, probeHandoffs, probeSweepStates int
}

var (
	fullSizes = sizes{
		simEdges: 10000, simSlots: 300,
		regionEdges: 2000, regionSlots: 150,
		serveSlots: 250, servePool: 300, serveSamples: 100,
		zooTrainN: 600, zooTestN: 600, zooEpochs: 2,
		microIters: 200000, forwardReps: 20,
		probeALUIters: 20_000_000, probeHandoffs: 100_000, probeSweepStates: 30_000,
	}
	smokeSizes = sizes{
		simEdges: 48, simSlots: 40,
		regionEdges: 48, regionSlots: 40,
		serveSlots: 40, servePool: 40, serveSamples: 8,
		zooTrainN: 48, zooTestN: 32, zooEpochs: 1,
		microIters: 2000, forwardReps: 2,
		probeALUIters: 200_000, probeHandoffs: 1_000, probeSweepStates: 300,
	}
)

// passResult is what one closed-loop pass of a workload measured.
type passResult struct {
	// setup runs from the start of the pass (zoo, scenario or world,
	// controller, listen, handshake) to the first slot start; wall from the
	// first slot start to the return of Run/Serve.
	setup, wall time.Duration
	// attempted and failed count edge-slots; failed = dropped + retried + resumed.
	attempted, failed int
	// slotGaps are the gaps between consecutive fleet-wide slot starts.
	slotGaps []time.Duration
	// allocBytes is the heap allocated between the first slot start and the
	// end of the pass.
	allocBytes uint64
	// digest is the SHA-256 of the pass's Result or Summary JSON.
	digest string
}

// rate is the pass's throughput in completed edge-slots per second.
func (p *passResult) rate() float64 { return float64(p.attempted-p.failed) / seconds(p.wall) }

// gapsMS returns the slot gaps in milliseconds.
func (p *passResult) gapsMS() []float64 {
	out := make([]float64, len(p.slotGaps))
	for i, g := range p.slotGaps {
		out[i] = millis(g)
	}
	return out
}

// slotMeter stamps fleet-wide slot starts. It is marked from one goroutine
// (the controller's, or edge 0's agent) and read after the run has returned.
type slotMeter struct {
	stamps []time.Duration
	alloc0 uint64
}

// mark records a slot start. The first mark also snapshots the allocation
// counter, before reading the clock, so the snapshot is not in any slot.
func (m *slotMeter) mark() {
	if len(m.stamps) == 0 {
		m.alloc0 = allocBytes()
	}
	m.stamps = append(m.stamps, sinceStart())
}

// gaps returns the differences between consecutive stamps.
func (m *slotMeter) gaps() []time.Duration {
	if len(m.stamps) < 2 {
		return nil
	}
	out := make([]time.Duration, len(m.stamps)-1)
	for i := range out {
		out[i] = m.stamps[i+1] - m.stamps[i]
	}
	return out
}

// allocBytes reads the runtime's cumulative heap allocation counter (the
// figure runtime.MemStats.TotalAlloc reports) without stopping the world.
func allocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

// digestOf hashes a Result or Summary. encoding/json prints float64 in the
// shortest form that round-trips, so equal digests mean equal bits.
func digestOf(v any) (string, error) {
	body, err := json.Marshal(v)
	if err != nil {
		return "", fmt.Errorf("digest: %w", err)
	}
	sum := sha256.Sum256(body)
	return hex.EncodeToString(sum[:]), nil
}

// cpuSeconds returns the process's user plus system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMiB reads the process's high-water resident set (VmHWM).
func peakRSSMiB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		if fields := strings.Fields(line); len(fields) >= 2 {
			if kb, err := strconv.ParseFloat(fields[1], 64); err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}
