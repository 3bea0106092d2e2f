package main

import (
	"sync"
	"time"

	"github.com/carbonedge/carbonedge/internal/deploy"
)

// slotSpans hands out the per-slot parent span of a deployed traced run. The
// slot's span opens at the first event the harness sees for it (a region's
// OnSlot, or edge 0's RunSlot) and closes when the next slot's opens.
type slotSpans struct {
	tr  *tracer
	mu  sync.Mutex
	ids map[int]int
}

func newSlotSpans(tr *tracer) *slotSpans {
	if tr == nil {
		return nil
	}
	return &slotSpans{tr: tr, ids: make(map[int]int)}
}

// of returns the span of the given slot, opening it on first use.
func (s *slotSpans) of(slot int) int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if id, ok := s.ids[slot]; ok {
		return id
	}
	if prev, ok := s.ids[slot-1]; ok {
		s.tr.end(prev)
	}
	id := s.tr.begin("slot", 0, slot)
	s.ids[slot] = id
	return id
}

// finish closes the last slot's span.
func (s *slotSpans) finish(lastSlot int) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if id, ok := s.ids[lastSlot]; ok {
		s.tr.end(id)
	}
}

// edgeProbe wraps one edge agent's Runtime. Every probe belongs to one agent
// goroutine; the harness reads it after the agent has exited.
type edgeProbe struct {
	deploy.Runtime
	// meter is set on edge 0 only: its RunSlot is the hook that stamps the
	// fleet-wide slot start in the deployed workloads.
	meter *slotMeter
	// timed is set on traced runs: RunSlot and LoadModel are timed.
	timed             bool
	runBusy, loadBusy time.Duration
	loads             int
	// spans is set on edge 0 of a traced run: its calls become spans.
	tr    *tracer
	spans *slotSpans
}

func (p *edgeProbe) RunSlot(slot, modelID int) (deploy.SlotReport, error) {
	if p.meter != nil {
		p.meter.mark()
	}
	if !p.timed {
		return p.Runtime.RunSlot(slot, modelID)
	}
	sp := 0
	if p.spans != nil {
		sp = p.tr.begin("runtime.run_slot", p.spans.of(slot), slot)
	}
	t0 := sinceStart()
	rep, err := p.Runtime.RunSlot(slot, modelID)
	p.runBusy += sinceStart() - t0
	p.tr.end(sp)
	return rep, err
}

func (p *edgeProbe) LoadModel(modelID int, checkpoint []byte) error {
	if !p.timed {
		return p.Runtime.LoadModel(modelID, checkpoint)
	}
	// LoadModel precedes the slot's RunSlot, and the Runtime interface does
	// not say which slot it is for: the span hangs off the run, not a slot.
	sp := 0
	if p.spans != nil {
		sp = p.tr.begin("runtime.load_model", 0, -1)
	}
	t0 := sinceStart()
	err := p.Runtime.LoadModel(modelID, checkpoint)
	p.loadBusy += sinceStart() - t0
	p.loads++
	p.tr.end(sp)
	return err
}

// sourceProbe wraps the ModelSource of a traced run: every checkpoint the
// cloud fetches to ship becomes a span.
type sourceProbe struct {
	deploy.ModelSource
	tr *tracer
}

func (s *sourceProbe) Checkpoint(n int) ([]byte, error) {
	sp := s.tr.begin("source.checkpoint", 0, -1)
	b, err := s.ModelSource.Checkpoint(n)
	s.tr.end(sp)
	return b, err
}

// fleetBusy totals what the probes of a traced run measured.
type fleetBusy struct {
	run, load time.Duration // summed over edges
	loads     int
}

func sumProbes(probes []*edgeProbe) fleetBusy {
	var b fleetBusy
	for _, p := range probes {
		b.run += p.runBusy
		b.load += p.loadBusy
		b.loads += p.loads
	}
	return b
}
