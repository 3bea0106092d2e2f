package main

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// hostProbe measures how fast the host is right now, so that the end-to-end
// times can be reported in the seconds of a nominal host.
//
// Why it exists: the benchmark runs on shared two-core sandboxes whose speed
// changes by a third and more, sometimes by half, with what the neighbours
// are doing, in spells that last from seconds to a quarter of an hour. They
// hit every kind of code at once (a compute-bound, a memory-bound and a
// scheduler-bound workload slowed together), they leave no trace in the
// guest's steal time, and they are longer than a run, so measuring longer
// does not average them out: two sets of ten runs of one commit, twenty
// minutes apart, had medians 24–38 % apart on every workload, beyond any
// bound the benchmark may set. Measuring the host next to the workload does
// help. The probe is three fixed kernels that call nothing in the product,
// timed before every pass and after the last:
//
//   - alu: every core at once retires a fixed mix of independent integer and
//     floating-point chains with stores to a small ring. It is bound by issue
//     width, which is what a busy sibling thread takes away; a single
//     dependent chain (the first version of this probe) does not notice.
//   - handoff: two goroutines pass a token over unbuffered channels. It is
//     bound by wake-ups across cores, which on a virtual machine go through
//     the hypervisor and slow down with the host's load.
//   - sweep: one pass after another over 30 000 lagged-Fibonacci generator
//     states of 4.9 KB each (146 MB), four draws from each. It touches two
//     or three cache lines per state and nothing the prefetcher can guess,
//     which is how a fleet of per-edge policies and streams uses memory; it
//     is bound by cache and memory contention, which the other two do not
//     see (sim-fleet went from 2.1 s to 4.5 s a pass while they read 1.3 to
//     1.6).
//
// The geometric mean of the three slowdowns against fixed nominal times
// scales the reported times. README.md, "Host normalisation", has what this
// buys, measured, and what was tried beside it.
//
// What it cannot do: follow noise faster than a pass, or a change in the
// host that none of the three kernels feels. The raw times and the factor are
// printed on standard error, and harness.host_slowdown_x in the traced run,
// so nothing is hidden by the scaling.
type hostProbe struct {
	// aluIters and handoffs size the first two kernels; the nominal times
	// belong to the full sizes.
	aluIters, handoffs  int
	alu, handoff, sweep time.Duration
	samples             int
	// lfVec holds the sweep kernel's generator states, lfStride words apart;
	// lfFeed each state's feed position.
	lfVec  []int64
	lfFeed []int32
	sink   uint64 // keeps the kernels' results reachable
}

// Nominal kernel times: about what the kernels take on the host the first
// "Where a slot's time goes" table was measured on, in a calm moment. They
// only fix the unit; changing them rescales every time metric alike.
const (
	probeNominalALU     = 40 * time.Millisecond
	probeNominalHandoff = 40 * time.Millisecond
	probeNominalSweep   = 12 * time.Millisecond
)

// The sweep kernel's generator is the additive lagged-Fibonacci recurrence
// x[n] = x[n-607] + x[n-273], written out here so that no library change can
// alter what the probe does.
const (
	lfLen    = 607
	lfTap    = 273
	lfStride = 608
	// sweepRounds passes over all the states make one timing.
	sweepRounds = 6
)

// newHostProbe returns a probe that has run once already: the first
// measurement of a process pays for page faults and a cold clock.
func newHostProbe(sz sizes) *hostProbe {
	h := &hostProbe{
		aluIters: sz.probeALUIters,
		handoffs: sz.probeHandoffs,
		lfVec:    make([]int64, sz.probeSweepStates*lfStride),
		lfFeed:   make([]int32, sz.probeSweepStates),
	}
	x := uint64(1)
	for i := range h.lfVec {
		x = x*6364136223846793005 + 1442695040888963407
		h.lfVec[i] = int64(x)
	}
	for i := range h.lfFeed {
		h.lfFeed[i] = lfLen - lfTap
	}
	h.measure()
	h.alu, h.handoff, h.sweep, h.samples = 0, 0, 0, 0
	return h
}

// probeRounds is how often one measurement times each kernel: a single
// timing of 40 ms sees the host's second-to-second swings at full size, and
// they are the larger part of what separates two probes of one run.
const probeRounds = 3

// measure times the three kernels probeRounds times (about 0.3 s in all) and
// adds them to the probe's totals.
func (h *hostProbe) measure() {
	for r := 0; r < probeRounds; r++ {
		t0 := sinceStart()
		h.aluKernel()
		t1 := sinceStart()
		h.handoffKernel()
		t2 := sinceStart()
		h.sweepKernel()
		h.alu += t1 - t0
		h.handoff += t2 - t1
		h.sweep += sinceStart() - t2
		h.samples++
	}
}

// aluKernel runs the arithmetic mix on every core at once.
func (h *hostProbe) aluKernel() {
	var wg sync.WaitGroup
	var sum atomic.Uint64
	for g := 0; g < runtime.GOMAXPROCS(0); g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			iters := h.aluIters
			a, b := uint64(1), uint64(2)
			x, y := 1.0, 2.0
			var ring [64]uint64
			for i := 0; i < iters; i++ {
				a = a*6364136223846793005 + 1442695040888963407
				b = b*3935559000370003845 + 2691343689449507681
				x = x*1.0000001 + 0.5
				y = y*0.9999999 + 0.25
				ring[i&63] += a ^ b
			}
			sum.Add(a + b + uint64(x+y) + ring[7])
		}()
	}
	wg.Wait()
	h.sink += sum.Load()
}

// handoffKernel passes a token back and forth between two goroutines.
func (h *hostProbe) handoffKernel() {
	ping, pong := make(chan int32), make(chan int32)
	go func() {
		for v := range ping {
			pong <- v + 1
		}
		close(pong)
	}()
	count := int32(0)
	for i := 0; i < h.handoffs; i++ {
		ping <- count
		count = <-pong
	}
	close(ping)
	<-pong // the echo goroutine has exited
	h.sink += uint64(count)
}

// sweepKernel draws four numbers from every generator state, sweepRounds
// times over.
func (h *hostProbe) sweepKernel() {
	var sum uint64
	for r := 0; r < sweepRounds; r++ {
		for i := range h.lfFeed {
			v := h.lfVec[i*lfStride : i*lfStride+lfLen]
			feed := int(h.lfFeed[i])
			tap := feed - (lfLen - lfTap)
			if tap < 0 {
				tap += lfLen
			}
			for d := 0; d < 4; d++ {
				if tap--; tap < 0 {
					tap += lfLen
				}
				if feed--; feed < 0 {
					feed += lfLen
				}
				x := v[feed] + v[tap]
				v[feed] = x
				sum += uint64(x>>33) % 1000
			}
			h.lfFeed[i] = int32(feed)
		}
	}
	h.sink += sum
}

// slowdown returns how much slower than the nominal host the probes ran: the
// geometric mean of the three kernels' ratios (1 before any measurement).
func (h *hostProbe) slowdown() float64 {
	if h.samples == 0 {
		return 1
	}
	n := float64(h.samples)
	return math.Cbrt(float64(h.alu) / n / float64(probeNominalALU) *
		float64(h.handoff) / n / float64(probeNominalHandoff) *
		float64(h.sweep) / n / float64(probeNominalSweep))
}
