package deploy

import (
	"fmt"
	"sync"

	"github.com/carbonedge/carbonedge/internal/energy"
	"github.com/carbonedge/carbonedge/internal/engine"
	"github.com/carbonedge/carbonedge/internal/numeric"
)

// fleetRange is one contiguous block of edge links the fleet serves: the
// initial range, plus one per adopted shard. Tokens and backoff jitter are
// derived from the range's own seed — for an adopted range that is the
// original owner's fleet seed, so the edges' existing resume tokens keep
// verifying and their retries back off as before.
type fleetRange struct {
	offset int
	seed   int64
	links  []*link
}

// edgeFleet is the TCP-facing machinery that admits contiguous ranges of edge
// sessions, carries their connections across drops, and exchanges per-slot
// assignments for reports: one link per edge (grouped into contiguous
// ranges), the acceptor that admits initial and resumed connections into the
// links (link.go; the fleet is its tier for Hello/Welcome), and the
// tcpSteppers that consume them. Both the monolithic Cloud (offset 0, the
// whole fleet) and a regional coordinator (offset = the region's shard start)
// drive identical admission, resume, retry, and exchange code through it.
type edgeFleet struct {
	source ModelSource
	acc    *acceptor
	// retry bounds each per-edge exchange (CloudConfig.Retry and
	// SlotTimeout).
	retry *retrier

	// mu guards ranges and grown: the acceptor reads them concurrently with
	// mid-run adoptions appending new ones. initial is ranges[0], fixed at
	// birth; adopt closes grown and replaces it after appending a range.
	mu      sync.RWMutex
	ranges  []*fleetRange
	grown   chan struct{}
	initial *fleetRange
}

// newEdgeFleet builds a fleet that initially admits cfg.Edges edges, global
// ids [offset, offset+cfg.Edges), with deterministic resume tokens; zero
// edges make a standby fleet that gains its ranges only through mid-run shard
// adoption. Of cfg it reads Seed (resume tokens, backoff jitter), the two
// timeouts and Retry. The caller validates the configuration (see NewCloud /
// RunRegion).
func newEdgeFleet(cfg CloudConfig, offset int, source ModelSource) *edgeFleet {
	f := &edgeFleet{source: source, retry: newRetrier(cfg.Retry, cfg.SlotTimeout, "deploy-retry")}
	f.acc = newAcceptor(f, MsgHello, "Hello", "edge", cfg.Edges, cfg.HandshakeTimeout)
	f.initial = newFleetRange(offset, cfg.Edges, cfg.Seed, false)
	f.ranges = []*fleetRange{f.initial}
	f.grown = make(chan struct{})
	return f
}

// newFleetRange derives a contiguous range's links from the range's seed.
func newFleetRange(offset, count int, seed int64, claimed bool) *fleetRange {
	base := numeric.SplitRNG(seed, "deploy-resume-token").Uint64()
	links := make([]*link, count)
	for i := range links {
		links[i] = newLink("edge", "", offset+i, base)
		links[i].claimed = claimed
	}
	return &fleetRange{offset: offset, seed: seed, links: links}
}

// linkFor resolves a global edge id to its link, or nil when the fleet does
// not (yet) serve it.
func (f *edgeFleet) linkFor(id int) *link {
	f.mu.RLock()
	defer f.mu.RUnlock()
	for _, rg := range f.ranges {
		if local := id - rg.offset; local >= 0 && local < len(rg.links) {
			return rg.links[local]
		}
	}
	return nil
}

// resolve implements tier. Edge ids on the wire are global; the fleet serves
// its ranges' ids (initial plus any adopted mid-run).
func (f *edgeFleet) resolve(hello *Message) (*link, string, <-chan struct{}) {
	f.mu.RLock()
	grown := f.grown // read before the lookup: an adopt in between closes it
	f.mu.RUnlock()
	if l := f.linkFor(hello.EdgeID); l != nil {
		return l, "", nil
	}
	if hello.Resume {
		// A resuming edge the fleet does not know (yet): during a shard
		// handoff the edge may redial the adopter before the adopt frame
		// installs its range. Hold the Hello until the next adopt and look
		// again; a rejection would kill its session mid-migration.
		return nil, "", grown
	}
	return nil, fmt.Sprintf("bad edge id %d", hello.EdgeID), nil
}

// welcome implements tier.
func (f *edgeFleet) welcome(hello *Message, l *link) (*Message, bool) {
	if hello.Resume {
		// The resume Welcome intentionally omits the zoo metadata: the edge
		// already holds it (and its loaded checkpoints) from the session.
		return &Message{Type: MsgWelcome}, false
	}
	metas := make([]ModelMeta, f.source.NumModels())
	for n := range metas {
		metas[n] = f.source.Meta(n)
	}
	return &Message{Type: MsgWelcome, Models: metas, ResumeToken: l.token}, true
}

// adopt installs an orphaned shard's range mid-run from its checkpoint: the
// links are rebuilt with the original fleet's tokens (derived from
// ck.FleetSeed) and pre-claimed, so the shard's edges are admitted through
// the resume path only — exactly the state they are in. ck has passed
// ValidateShard, which is what bounds the range allocated here.
func (f *edgeFleet) adopt(ck *engine.ShardCheckpoint) (*fleetRange, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, rg := range f.ranges {
		if ck.Start < rg.offset+len(rg.links) && rg.offset < ck.Start+len(ck.Down) {
			return nil, protocolErrorf("adopted range [%d,%d) overlaps fleet range [%d,%d)",
				ck.Start, ck.Start+len(ck.Down), rg.offset, rg.offset+len(rg.links))
		}
	}
	rg := newFleetRange(ck.Start, len(ck.Down), ck.FleetSeed, true)
	f.ranges = append(f.ranges, rg)
	close(f.grown) // wake the Hellos held for ids not served until now
	f.grown = make(chan struct{})
	return rg, nil
}

// shard builds the engine Shard serving a range: one tcpStepper per link,
// backing off on the range seed's jitter, and one worker per edge — a
// slot's exchanges wait on the network, not on a core.
func (f *edgeFleet) shard(rg *fleetRange, policy engine.ErrorPolicy) (*engine.Shard, error) {
	steppers := make([]engine.EdgeStepper, len(rg.links))
	for i, l := range rg.links {
		steppers[i] = &tcpStepper{fleet: f, link: l, seed: rg.seed}
	}
	return engine.NewShard(engine.ShardConfig{Start: rg.offset, Workers: len(steppers), Policy: policy}, steppers)
}

// links snapshots every link the fleet serves, in range order.
func (f *edgeFleet) links() []*link {
	f.mu.RLock()
	defer f.mu.RUnlock()
	var out []*link
	for _, rg := range f.ranges {
		out = append(out, rg.links...)
	}
	return out
}

// resumes snapshots the initial range's per-edge accepted-resume counts.
func (f *edgeFleet) resumes() []int {
	out := make([]int, len(f.initial.links))
	for i, l := range f.initial.links {
		out[i] = l.state().resumes
	}
	return out
}

// tcpStepper runs one edge's slot over its link's current connection: ship
// the assignment (plus checkpoint on a switch), wait for the report,
// translate it into the engine's observation. The reported average loss
// stands in for both the bandit feedback and the accounting term — the
// deployment has no posterior mean, only what the edge measured.
//
// Transient failures (resets, timeouts, mid-frame EOFs) consume the
// per-slot retry budget: each retry backs off on jitter derived from the
// range seed, the edge id, the slot and the attempt, and waits for the edge
// to redial and resume before re-running the exchange. Fatal failures
// (protocol violations, invalid report numbers, edge application errors)
// fail the slot immediately.
type tcpStepper struct {
	fleet *edgeFleet
	link  *link
	seed  int64 // the range seed backoff jitter derives from
	// assign is the outgoing Assign, rewritten every slot: one edge-slot
	// allocates no envelope.
	assign Message
}

// Step implements engine.EdgeStepper.
//
//lint:cold a TCP round trip per slot dominates any allocation; the alloc-free contract covers in-process steppers only
func (s *tcpStepper) Step(slot, arm int, download bool) (engine.Observation, error) {
	var obs engine.Observation
	retries, exhausted, err := s.link.roundTrip(s.fleet.retry, s.seed, s.link.id, slot, func(conn *wireConn) (err error) {
		obs, err = s.exchange(conn, slot, arm, download)
		return err
	})
	if exhausted {
		err = fmt.Errorf("edge %d slot %d: retry budget exhausted after %d retries: %w", s.link.id, slot, retries, err)
	}
	if err != nil {
		return engine.Observation{Retries: retries}, err
	}
	obs.Retries = retries
	return obs, nil
}

// exchange runs one assign/report round trip on conn.
func (s *tcpStepper) exchange(conn *wireConn, slot, arm int, download bool) (engine.Observation, error) {
	f, i := s.fleet, s.link.id
	assign := &s.assign
	*assign = Message{
		Type:    MsgAssign,
		Slot:    slot,
		ModelID: arm,
		Switch:  download,
	}
	if download {
		ckpt, err := f.source.Checkpoint(arm)
		if err != nil {
			return engine.Observation{}, fmt.Errorf("checkpoint model %d: %w", arm, err)
		}
		assign.Weights = ckpt
	}
	if err := WriteMessage(conn, assign); err != nil {
		return engine.Observation{}, fmt.Errorf("edge %d assign: %w", i, err)
	}
	rep, err := conn.readMessage()
	if err != nil {
		return engine.Observation{}, fmt.Errorf("edge %d report: %w", i, err)
	}
	if rep.Type == MsgError {
		return engine.Observation{}, &EdgeError{EdgeID: i, Reason: rep.Reason}
	}
	if err := ValidateReport(rep); err != nil {
		return engine.Observation{}, fmt.Errorf("edge %d: %w", i, err)
	}
	if rep.Slot != slot {
		return engine.Observation{}, protocolErrorf("edge %d: report for slot %d, want %d", i, rep.Slot, slot)
	}
	return engine.Observation{
		Loss:      rep.AvgLoss + rep.CompSeconds,
		InferLoss: rep.AvgLoss,
		Compute:   rep.CompSeconds,
		Correct:   rep.Correct,
		Samples:   rep.Samples,
		InferKWh:  rep.EnergyKWh,
		TransferKWh: energy.TransferEnergy(
			energy.TransferEnergyPerByte, f.source.Meta(arm).SizeBytes),
	}, nil
}
