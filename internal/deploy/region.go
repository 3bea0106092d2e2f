// The regional-aggregator tier: a root cloud process runs the controller
// and the global trade/ledger accounting, while regional coordinator
// processes each own one contiguous shard of the fleet — admitting their
// edges over TCP exactly as the monolithic cloud would — and stream per-slot
// SlotDeltas back to the root. Because deltas carry per-edge terms (never
// partial float sums) and encoding/json round-trips float64 exactly, the
// root's fold is bit-identical to a single-process run over the same fleet;
// the monolithic/regional parity test pins this.
//
// The tier is elastic: the root's listener stays open for the whole run, so
// a dropped coordinator can redial and resume its session from the root's
// per-shard fold watermark (on the link, acceptor, retry loop and session
// core the edge tier runs on — link.go, retry.go, edge.go — with replayed
// ShardDeltas deduped idempotently), a departing coordinator's
// shard is handed to a surviving or newly joined one via a serialized
// ShardCheckpoint (the shard decomposition itself never changes, so the fold
// still replays canonical edge-index order), and below a configurable region
// quorum the root degrades the orphaned shard instead of aborting. Every
// recovery path preserves the bit-identical-results contract: serving-
// preserving schedules reproduce the fault-free summary exactly, and
// degraded runs reproduce the equivalent in-process Degrade run exactly.
package deploy

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sort"
	"sync"
	"time"

	"github.com/carbonedge/carbonedge/internal/engine"
	"github.com/carbonedge/carbonedge/internal/market"
	"github.com/carbonedge/carbonedge/internal/numeric"
)

// errRegionLeft marks a region link that is gone for good — the coordinator
// announced departure, or its retry budget ran dry — as opposed to one that
// merely dropped a connection (which session resume heals in place). The
// root reacts by rebalancing the link's shards or degrading them, depending
// on policy and quorum.
var errRegionLeft = errors.New("deploy: region left")

// RootConfig parameterizes the root cloud of a regional deployment.
type RootConfig struct {
	// Edges is the total fleet size across all regions; Regions is the
	// number of coordinators that join initially. Edges are partitioned into
	// Regions contiguous shards with engine.PartitionEdges: region r owns
	// shard r at the start of the run. Additional coordinators with ids >=
	// Regions may join mid-run as standby capacity for rebalancing.
	Edges   int
	Regions int
	// Horizon is the number of slots to run.
	Horizon int
	// DownloadCosts holds u_i per global edge id; length must equal Edges.
	DownloadCosts []float64
	// InitialCap (grams) and EmissionRate (g/kWh) configure the carbon side.
	InitialCap   float64
	EmissionRate float64
	// Prices is the allowance price series (length >= Horizon).
	Prices *market.Prices
	// EmissionScale hints the expected per-slot emission for Algorithm 2's
	// step sizes (0 = 1).
	EmissionScale float64
	// Seed drives the controller's sampling, the region resume-token issue,
	// and the per-shard backoff jitter streams.
	Seed int64
	// NumModels is the zoo size N. The root never ships checkpoints — the
	// regions hold the zoo — so it only needs the count.
	NumModels int
	// Policy is the per-edge failure reaction the regions must apply
	// (engine.Degrade marks failed edges down shard-locally; the zero value
	// engine.FailFast aborts the run on the first edge failure). It also
	// selects the root's reaction to a lost region link: under FailFast the
	// run aborts (the historical behavior); under Degrade the root rebalances
	// the link's shards onto surviving coordinators, or — below RegionQuorum —
	// degrades them with the engine's down-slot semantics.
	Policy engine.ErrorPolicy
	// SlotTimeout bounds each per-region exchange (assign + delta). Zero
	// disables deadlines.
	SlotTimeout time.Duration
	// HandshakeTimeout bounds each connection's RegionHello/RegionWelcome
	// exchange. Zero selects DefaultHandshakeTimeout; negative disables the
	// deadline.
	HandshakeTimeout time.Duration
	// Retry is the per-slot transient-failure budget of each region link:
	// how many times a shard's exchange is retried (under the same
	// deterministic capped-exponential backoff the edge fleet uses) and how
	// long each try waits for a dropped coordinator to redial and resume.
	// The zero value disables retries, preserving the historical
	// one-strike-fatal link semantics under FailFast.
	Retry RetryConfig
	// RegionQuorum is the minimum number of live coordinators required to
	// rebalance a lost link's shards instead of degrading them (only
	// meaningful under engine.Degrade). 0 defaults to 1: rebalance onto any
	// survivor, degrade only when none remain.
	RegionQuorum int
}

// Root is the root cloud: the controller plus one regionStepper per shard,
// multiplexed over a membership of region links that can shrink and grow
// mid-run. It is the acceptor's tier for RegionHello/RegionWelcome.
type Root struct {
	cfg RootConfig
	*controller
	ranges []engine.Range
	acc    *acceptor
	retry  *retrier
	// rebalanceTarget, when set, picks the adopter for an orphaned shard: it
	// receives the shard index and the sorted ids of the live candidate
	// links and returns the chosen id. Nil (or an id not in the candidate
	// list) selects the lowest live id; only the region chaos suite sets it.
	rebalanceTarget func(shard int, live []int) int

	// mu guards links and tokenRNG: admission mutates membership
	// concurrently with stepper-side elections.
	mu       sync.Mutex
	links    map[int]*link
	tokenRNG *rand.Rand
}

// NewRoot validates the configuration and builds the controller.
func NewRoot(cfg RootConfig) (*Root, error) {
	if cfg.Regions <= 0 || cfg.Regions > cfg.Edges {
		return nil, fmt.Errorf("deploy: %d regions for %d edges", cfg.Regions, cfg.Edges)
	}
	if cfg.NumModels <= 0 {
		return nil, fmt.Errorf("deploy: NumModels must be positive, got %d", cfg.NumModels)
	}
	if cfg.RegionQuorum < 0 {
		return nil, fmt.Errorf("deploy: negative region quorum %d", cfg.RegionQuorum)
	}
	ctrl, err := newController(CloudConfig{
		Edges:         cfg.Edges,
		Horizon:       cfg.Horizon,
		DownloadCosts: cfg.DownloadCosts,
		InitialCap:    cfg.InitialCap,
		EmissionRate:  cfg.EmissionRate,
		Prices:        cfg.Prices,
		EmissionScale: cfg.EmissionScale,
		Seed:          cfg.Seed,
		Retry:         cfg.Retry,
		Policy:        cfg.Policy,
	}, cfg.NumModels)
	if err != nil {
		return nil, err
	}
	r := &Root{
		cfg:        cfg,
		controller: ctrl,
		ranges:     engine.PartitionEdges(cfg.Edges, cfg.Regions),
		retry:      newRetrier(cfg.Retry),
		tokenRNG:   numeric.SplitRNG(cfg.Seed, "deploy-region-token"),
		links:      make(map[int]*link, cfg.Regions),
	}
	r.acc = newAcceptor(r, MsgRegionHello, "RegionHello", "region", cfg.Horizon, cfg.Regions, cfg.HandshakeTimeout)
	// Initial links (and their resume tokens) are built in id order so the
	// token stream is deterministic; spares joining mid-run draw later
	// positions in arrival order (tokens never reach Results).
	for id := 0; id < cfg.Regions; id++ {
		r.links[id] = newLink("region link", "deploy: ", id, r.tokenRNG, id)
	}
	return r, nil
}

// Serve runs a full regional deployment over ln: it admits the cfg.Regions
// initial coordinators, runs the full horizon through engine.RunSharded with
// one regionStepper per shard, and returns the summary. The listener stays
// open for the whole run so dropped coordinators can redial and resume, and
// standby coordinators (ids >= Regions) can join to adopt rebalanced shards;
// it is not closed (the caller owns it), but Serve unblocks its own acceptor
// on return when the listener supports deadlines (as TCP listeners do).
func (r *Root) Serve(ln net.Listener) (*Summary, error) {
	steppers := make([]*regionStepper, len(r.ranges))
	res, err := r.serve(ln, r.acc, r.sortedLinks, "region", func() ([]engine.ShardStepper, error) {
		shards := make([]engine.ShardStepper, len(r.ranges))
		for k := range r.ranges {
			steppers[k] = r.stepper(k)
			shards[k] = steppers[k]
		}
		return shards, nil
	})
	if err != nil {
		return nil, err
	}
	// Edge resumes are region-local; the root does not observe them.
	sum := summaryFromResult(res, make([]int, r.cfg.Edges))
	r.fillElasticity(sum, steppers)
	return sum, nil
}

// stepper builds shard k's regionStepper on its claiming coordinator's link.
func (r *Root) stepper(k int) *regionStepper {
	r.mu.Lock()
	l := r.links[k]
	r.mu.Unlock()
	rg := r.ranges[k]
	return &regionStepper{
		root:   r,
		index:  k,
		link:   l,
		jitter: numeric.SplitRNG(r.cfg.Seed, fmt.Sprintf("deploy-region-retry-%d", k)),
		ck: engine.ShardCheckpoint{
			Start:       rg.Start,
			Count:       rg.Count,
			FleetSeed:   l.state().seed,
			Down:        make([]bool, rg.Count),
			JitterDraws: make([]int, rg.Count),
		},
		buf: make([]engine.EdgeDelta, 0, rg.Count),
	}
}

// sortedLinks snapshots the membership in ascending id order, so every
// iteration over the link map is deterministic.
func (r *Root) sortedLinks() []*link {
	r.mu.Lock()
	defer r.mu.Unlock()
	ids := make([]int, 0, len(r.links))
	for id := range r.links {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	out := make([]*link, len(ids))
	for k, id := range ids {
		out[k] = r.links[id]
	}
	return out
}

// fillElasticity records the run's region-level fault accounting on the
// summary. Every field stays nil on a fault-free run, so fault-free regional
// summaries compare deep-equal to monolithic ones.
func (r *Root) fillElasticity(sum *Summary, steppers []*regionStepper) {
	resumes := make(map[int]int)
	for _, l := range r.sortedLinks() {
		if n := l.state().resumes; n > 0 {
			resumes[l.id] = n
		}
	}
	if len(resumes) > 0 {
		sum.RegionResumes = resumes
	}
	retries := make([]int, len(steppers))
	rebalances := make([]int, len(steppers))
	anyRetry, anyRebalance := false, false
	for k, rs := range steppers {
		retries[k] = rs.retries
		rebalances[k] = rs.rebalances
		anyRetry = anyRetry || rs.retries > 0
		anyRebalance = anyRebalance || rs.rebalances > 0
	}
	if anyRetry {
		sum.RegionRetries = retries
	}
	if anyRebalance {
		sum.Rebalances = rebalances
	}
}

// resolve implements tier: a resume must name a known link; any other id
// joins, as an initial coordinator or as standby capacity.
func (r *Root) resolve(hello *Message) (*link, string, <-chan struct{}) {
	id := hello.RegionID
	if id < 0 {
		return nil, fmt.Sprintf("bad region id %d", id), nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	l := r.links[id]
	if l == nil {
		if hello.Resume {
			return nil, fmt.Sprintf("unknown region id %d", id), nil
		}
		// A standby coordinator joining mid-run: it gets an empty shard and
		// serves only what rebalancing adopts into it.
		l = newLink("region link", "deploy: ", id, r.tokenRNG, id)
		r.links[id] = l
	}
	return l, "", nil
}

// welcome implements tier. Only the cfg.Regions initial coordinators get a
// shard, and only they are awaited before the run starts.
func (r *Root) welcome(hello *Message, l *link) (*Message, bool) {
	if hello.Resume {
		return &Message{Type: MsgRegionWelcome, RegionID: l.id, Resume: true}, false
	}
	welcome := &Message{
		Type:        MsgRegionWelcome,
		RegionID:    l.id,
		Horizon:     r.cfg.Horizon,
		NumModels:   r.cfg.NumModels,
		Degrade:     r.cfg.Policy == engine.Degrade,
		ResumeToken: l.token,
	}
	initial := l.id < len(r.ranges)
	if initial {
		rg := r.ranges[l.id]
		welcome.Start, welcome.Count = rg.Start, rg.Count
	}
	return welcome, initial
}

// electTarget picks the adopter for an orphaned shard: the lowest live link
// id (or rebalanceTarget's validated choice), or nil when the live
// membership is below the region quorum — the caller then degrades the
// shard instead of rebalancing it.
func (r *Root) electTarget(shard int) *link {
	links := r.sortedLinks()
	live := make([]int, 0, len(links))
	byID := make(map[int]*link, len(links))
	for _, l := range links {
		if st := l.state(); st.claimed && !st.dead {
			live = append(live, l.id)
			byID[l.id] = l
		}
	}
	quorum := r.cfg.RegionQuorum
	if quorum <= 0 {
		quorum = 1
	}
	if len(live) < quorum {
		return nil
	}
	pick := live[0]
	if r.rebalanceTarget != nil {
		want := r.rebalanceTarget(shard, append([]int(nil), live...))
		if _, ok := byID[want]; ok {
			pick = want
		}
	}
	return byID[pick]
}

// regionStepper is the root-side engine.ShardStepper of one shard: Step is
// one ShardAssign/ShardDelta round trip on the shard's current region link,
// with transient failures retried across session resumes, lost links
// rebalanced onto survivors, and — below quorum — the shard degraded with
// the engine's down-slot semantics.
type regionStepper struct {
	root   *Root
	index  int
	jitter *rand.Rand // deterministic backoff jitter stream
	link   *link

	// ck is the shard's root-side state, advanced by every slot the root
	// folds: the fold watermark (a resumed link's replayed deltas are
	// admitted at most once per slot), the down edges and the jitter
	// positions. It is the very checkpoint an adopter gets — no state is ever
	// shipped from a dead coordinator.
	ck engine.ShardCheckpoint

	// degraded carries the canonical down reason once the shard fell below
	// quorum ("" while serving).
	degraded string

	retries    int
	rebalances int
	buf        []engine.EdgeDelta
}

var _ engine.ShardStepper = (*regionStepper)(nil)

// Range implements engine.ShardStepper.
func (rs *regionStepper) Range() (start, count int) { return rs.ck.Start, rs.ck.Count }

// Step implements engine.ShardStepper. A fatal exchange error (protocol
// violation, forwarded shard error) aborts the run regardless of policy; a
// lost link is rebalanced or degraded under engine.Degrade and aborts under
// engine.FailFast.
func (rs *regionStepper) Step(slot int, arms []int, downloads []bool) (engine.SlotDelta, error) {
	if rs.degraded != "" {
		return rs.degradeDelta(slot), nil
	}
	for {
		lost, err := rs.attemptSlot(slot, arms, downloads)
		if err == nil {
			d := engine.SlotDelta{Start: rs.ck.Start, Edges: rs.buf}
			rs.ck.Fold(d)
			return d, nil
		}
		if !lost {
			return engine.SlotDelta{}, err
		}
		// The link is gone for good (departed, or out of retry budget). Take
		// it out of the election, but keep its connection open until the
		// shard has a new home — a departing coordinator holds its edges
		// until the root closes the link.
		rs.link.markDead()
		if rs.root.cfg.Policy != engine.Degrade {
			rs.link.retire()
			return engine.SlotDelta{}, err
		}
		for {
			target := rs.root.electTarget(rs.index)
			if target == nil {
				rs.degraded = fmt.Sprintf("deploy: region link %d lost at slot %d", rs.link.id, slot)
				rs.link.retire()
				return rs.degradeDelta(slot), nil
			}
			if aerr := rs.adoptInto(target, slot); aerr != nil {
				target.retire()
				continue
			}
			rs.link.retire()
			rs.link = target
			rs.rebalances++
			break
		}
	}
}

// attemptSlot runs one slot's exchange on the shard's current link,
// spending the full retry budget on transient failures. lost reports that
// the link itself is gone (departure, or budget exhausted) — the caller
// rebalances or degrades; a false lost with a non-nil error is fatal.
func (rs *regionStepper) attemptSlot(slot int, arms []int, downloads []bool) (lost bool, err error) {
	retries, exhausted, err := rs.link.roundTrip(rs.root.retry, rs.jitter, rs.root.cfg.SlotTimeout, func(conn *wireConn) error {
		return rs.exchangeOn(conn, slot, arms, downloads)
	})
	rs.retries += retries
	if exhausted {
		err = fmt.Errorf("deploy: shard %d region link %d slot %d: retry budget exhausted after %d retries: %w",
			rs.index, rs.link.id, slot, retries, err)
	}
	return exhausted || errors.Is(err, errRegionLeft), err
}

// exchangeOn runs one assign/delta round trip on the shard's link, leaving
// the slot's per-edge deltas in rs.buf.
func (rs *regionStepper) exchangeOn(conn *wireConn, slot int, arms []int, downloads []bool) error {
	assign := &Message{
		Type:      MsgShardAssign,
		Slot:      slot,
		Start:     rs.ck.Start,
		Count:     rs.ck.Count,
		Arms:      arms,
		Downloads: downloads,
	}
	if err := WriteMessage(conn, assign); err != nil {
		return fmt.Errorf("deploy: shard %d assign: %w", rs.index, err)
	}
	for {
		m, err := conn.readMessage()
		if err != nil {
			return fmt.Errorf("deploy: shard %d delta: %w", rs.index, err)
		}
		switch m.Type {
		case MsgError:
			// The region forwards its shard's error verbatim (e.g. the
			// engine's FailFast "engine: edge %d slot %d: ..." wrapping), so
			// the root run fails with the same error string a monolithic run
			// would report.
			return errors.New(m.Reason) //lint:allow errtaxonomy the shard error string must round-trip verbatim so distributed and monolithic runs fail identically
		case MsgRegionLeave:
			return fmt.Errorf("deploy: region link %d departed at slot %d: %w", rs.link.id, slot, errRegionLeft)
		case MsgShardDelta:
			if m.Slot < slot {
				continue // replayed duplicate of an already-folded slot
			}
			if err := ValidateDelta(m, rs.ck.Start, rs.ck.Count, slot); err != nil {
				return fmt.Errorf("deploy: shard %d: %w", rs.index, err)
			}
			// Copy out of the link reader's recycled target: shards sharing
			// the link after an adoption read their deltas through the same
			// reader, and each delta must outlive the slot's fold.
			rs.buf = append(rs.buf[:0], m.Delta.Edges...)
			return nil
		default:
			return protocolErrorf("unexpected message type %d from region %d", m.Type, rs.link.id)
		}
	}
}

// adoptInto hands the shard to target: one ShardAdopt frame carrying the
// checkpoint. No ack is read — the connection's ordering guarantees the
// adopt frame is processed before the shard's next assign on the same link.
func (rs *regionStepper) adoptInto(target *link, slot int) error {
	target.xmu.Lock()
	defer target.xmu.Unlock()
	conn, err := target.connFor(rs.root.retry.cfg.resumeWait)
	if err != nil {
		return err
	}
	if err := WriteMessage(conn, &Message{Type: MsgShardAdopt, Slot: slot, Checkpoint: &rs.ck}); err != nil {
		target.drop()
		return fmt.Errorf("deploy: shard %d adopt into region link %d: %w", rs.index, target.id, err)
	}
	return nil
}

// degradeDelta synthesizes the shard's delta once it fell below quorum:
// every edge contributes the engine's down fallback (Served=false, zero
// terms), with edges that were still up announcing WentDown exactly once
// with the canonical degrade reason — byte-identical to an in-process
// Degrade run whose steppers fail with that reason at the same slot.
func (rs *regionStepper) degradeDelta(slot int) engine.SlotDelta {
	d := engine.SlotDelta{Start: rs.ck.Start, Edges: rs.buf[:0]}
	for _, down := range rs.ck.Down {
		ed := engine.EdgeDelta{}
		if !down {
			ed.WentDown, ed.DownError = true, rs.degraded
		}
		d.Edges = append(d.Edges, ed)
	}
	rs.ck.Fold(d)
	rs.buf = d.Edges[:0]
	return d
}

// RegionConfig parameterizes a regional coordinator.
type RegionConfig struct {
	// RegionID identifies the shard this coordinator claims from the root.
	// Ids below the root's Regions claim an initial shard; higher ids join
	// as standby capacity and serve only what rebalancing adopts into them.
	RegionID int
	// Source supplies the region's model zoo. Its size must match the
	// root's NumModels; the region ships checkpoints to its edges itself.
	Source ModelSource
	// Seed drives the region's edge resume-token issue and backoff jitter.
	// It is announced to the root so a mid-run handoff can reconstruct the
	// shard's token and jitter derivations on the adopter.
	Seed int64
	// SlotTimeout and HandshakeTimeout bound the per-edge exchanges and the
	// edge handshakes, exactly as CloudConfig's fields do.
	SlotTimeout      time.Duration
	HandshakeTimeout time.Duration
	// Retry is the region-local per-slot transient-failure budget.
	Retry RetryConfig
	// LeaveBeforeSlot, when positive, makes the coordinator announce a
	// graceful departure instead of serving the first assign for a slot >=
	// LeaveBeforeSlot: it replies MsgRegionLeave, waits for the root to
	// close the link (which it does once the shard has a new home), releases
	// its edges so they can redial the adopter, and returns cleanly. 0 never
	// leaves.
	LeaveBeforeSlot int
	// OnSlot, when non-nil, observes every ShardAssign the coordinator
	// receives (including duplicate replays after a resume) before it is
	// served — a hook for chaos schedules and metrics.
	OnSlot func(slot int)
}

// validateRegionConfig checks a RegionConfig before any wire traffic. It is
// deliberately a separate function: it never reaches the wire, so its plain
// validation errors stay outside the wire error taxonomy.
func validateRegionConfig(cfg RegionConfig) error {
	if cfg.Source == nil {
		return fmt.Errorf("deploy: nil model source")
	}
	if cfg.RegionID < 0 {
		return fmt.Errorf("deploy: negative region id %d", cfg.RegionID)
	}
	if err := cfg.Retry.validate(); err != nil {
		return err
	}
	if cfg.LeaveBeforeSlot < 0 {
		return fmt.Errorf("deploy: negative leave slot %d", cfg.LeaveBeforeSlot)
	}
	return nil
}

// regionShard is one contiguous edge range a coordinator serves: the initial
// shard from its RegionWelcome, plus one per adopted checkpoint.
type regionShard struct {
	start, count int
	shard        *engine.Shard
	// replaySlot is the shard's fold watermark and the cached ShardDelta of
	// its last stepped slot; delta is that message's payload, the shard's own
	// delta. The next Step overwrites it only while the next slot's reply is
	// being built, and that reply replaces the cache.
	replaySlot
	delta engine.SlotDelta
}

// RegionSession is the resumable coordinator-side state of one root run: the
// shard geometry and resume token from the initial RegionWelcome, the edge
// fleet, and the per-shard delta caches. The session outlives any single
// upstream connection — when the root link drops, redial and call Run again;
// the session re-handshakes with Resume set and answers duplicate
// ShardAssigns from its delta caches instead of re-stepping them, so the
// edges' serving streams are never double-drawn and the root never
// double-folds a slot whose delta was lost in flight.
type RegionSession struct {
	session
	cfg RegionConfig
	ln  net.Listener

	policy engine.ErrorPolicy

	fleet  *edgeFleet
	stop   func()
	shards []*regionShard
}

// NewRegionSession builds a fresh session. ln is where the session admits
// its shard's edges (it must outlive the session; the session stops its own
// acceptor but never closes ln).
func NewRegionSession(ln net.Listener, cfg RegionConfig) (*RegionSession, error) {
	if err := validateRegionConfig(cfg); err != nil {
		return nil, err
	}
	return &RegionSession{
		session: session{who: fmt.Sprintf("region %d", cfg.RegionID), peer: "root", want: MsgRegionWelcome},
		cfg:     cfg,
		ln:      ln,
	}, nil
}

// Run serves the session over one upstream connection until it ends. done
// reports whether the session is over: a clean Done (err == nil), a root
// abort, a graceful departure, or a fatal local/protocol failure. done ==
// false means the upstream connection itself failed (err is the transient
// cause) and the caller may redial and call Run again to resume the session
// — the edge fleet stays connected across the gap.
func (s *RegionSession) Run(raw net.Conn) (done bool, err error) { return s.run(raw, s) }

func (s *RegionSession) hello() (*Message, int) {
	return &Message{Type: MsgRegionHello, RegionID: s.cfg.RegionID, Seed: s.cfg.Seed}, s.minDone()
}

// setup takes the initial RegionWelcome: it builds the edge fleet and the
// initial shard.
func (s *RegionSession) setup(w *Message) error {
	if w.Count < 0 || w.Start < 0 || w.Horizon <= 0 {
		return protocolErrorf("implausible shard [%d,%d) over %d slots", w.Start, w.Start+w.Count, w.Horizon)
	}
	if w.NumModels != s.cfg.Source.NumModels() {
		return protocolErrorf("root announces %d models, region zoo has %d", w.NumModels, s.cfg.Source.NumModels())
	}
	s.policy = engine.FailFast
	if w.Degrade {
		s.policy = engine.Degrade
	}

	// Count == 0 is a standby welcome: the fleet starts empty and gains its
	// ranges only through mid-run shard adoption.
	s.fleet = newEdgeFleet(CloudConfig{
		Edges:            w.Count,
		Horizon:          w.Horizon,
		Seed:             s.cfg.Seed,
		SlotTimeout:      s.cfg.SlotTimeout,
		HandshakeTimeout: s.cfg.HandshakeTimeout,
		Retry:            s.cfg.Retry,
	}, w.Start, s.cfg.Source)
	s.stop = s.fleet.acc.start(s.ln)
	if err := s.fleet.acc.awaitInitial(); err != nil {
		return err
	}
	if w.Count > 0 {
		shard, err := s.fleet.shard(s.fleet.initial, nil, s.policy)
		if err != nil {
			return err
		}
		s.shards = append(s.shards, &regionShard{start: w.Start, count: w.Count, shard: shard})
	}
	return nil
}

// serve routes a ShardAssign to its shard — answered from the shard's delta
// cache, by a scheduled departure, or by stepping the shard — and installs a
// ShardAdopt.
func (s *RegionSession) serve(upstream *wireConn, m *Message) (outcome, error) {
	if m.Type == MsgShardAdopt {
		if err := s.adopt(m); err != nil {
			return failed, err
		}
		return served, nil
	}
	if m.Type != MsgShardAssign {
		return failed, protocolErrorf("unexpected message type %d from root", m.Type)
	}
	sh := s.shardAt(m.Start)
	if sh == nil {
		return failed, protocolErrorf("shard assign slot %d: unknown range start %d", m.Slot, m.Start)
	}
	if len(m.Arms) != sh.count || len(m.Downloads) != sh.count {
		return failed, protocolErrorf("shard assign slot %d: %d arms / %d downloads for %d edges",
			m.Slot, len(m.Arms), len(m.Downloads), sh.count)
	}
	if s.cfg.OnSlot != nil {
		s.cfg.OnSlot(m.Slot)
	}
	// Every slot served before the departure was below it, so a departure
	// slot is never a duplicate.
	if s.cfg.LeaveBeforeSlot > 0 && m.Slot >= s.cfg.LeaveBeforeSlot {
		_ = WriteMessage(upstream, &Message{Type: MsgRegionLeave, Slot: m.Slot})
		// Hold the edges until the root closes the link: by then the adopter
		// has the shard, so the edges redial into a fleet that knows them.
		_, _ = upstream.readMessage()
		s.release()
		return ended, nil
	}
	return sh.answer(upstream, m.Slot, func(reply *Message) error {
		// The shard's error goes upstream verbatim, so the root aborts with
		// the exact error a monolithic run would report.
		delta, err := sh.shard.Step(m.Slot, m.Arms, m.Downloads)
		if err != nil {
			return err
		}
		sh.delta = delta
		*reply = Message{Type: MsgShardDelta, Slot: m.Slot, Delta: &sh.delta}
		return nil
	})
}

// finish tells every still-connected edge that the run is over, then
// releases the fleet.
func (s *RegionSession) finish() error {
	err := finish(s.fleet.links(), "edge")
	s.release()
	if s.policy == engine.FailFast {
		return err
	}
	return nil
}

// shardAt resolves an assign's range start to the session's shard.
func (s *RegionSession) shardAt(start int) *regionShard {
	for _, sh := range s.shards {
		if sh.start == start {
			return sh
		}
	}
	return nil
}

// minDone is the session's resume watermark: the smallest per-shard fold
// position (0 with no shards).
func (s *RegionSession) minDone() int {
	min := 0
	for k, sh := range s.shards {
		if k == 0 || sh.done < min {
			min = sh.done
		}
	}
	return min
}

// adopt installs an orphaned shard from its checkpoint: rebuild the
// range's links and tokens from the original fleet seed, restore the
// per-edge down state, and start serving assigns for the range. The shard's
// edges redial this coordinator's listener and resume their sessions.
func (s *RegionSession) adopt(m *Message) error {
	if err := ValidateAdopt(m, s.fleet.acc.horizon, s.cfg.Retry.Attempts); err != nil {
		return err
	}
	ck := m.Checkpoint
	shard, err := s.fleet.adopt(ck, s.policy)
	if err != nil {
		return err
	}
	s.shards = append(s.shards, &regionShard{
		start:      ck.Start,
		count:      ck.Count,
		shard:      shard,
		replaySlot: replaySlot{done: ck.DoneSlots},
	})
	return nil
}

// release stops the acceptor and silently closes every edge connection: the
// edges see a transient drop and can redial whoever serves them next.
func (s *RegionSession) release() {
	if s.fleet != nil {
		s.stop()
		for _, l := range s.fleet.links() {
			l.retire()
		}
	}
}

// abort tells every still-connected edge the run failed, then releases the
// fleet.
func (s *RegionSession) abort(err error) {
	if s.fleet != nil {
		_ = abort(s.fleet.links(), err)
	}
	s.release()
}

// RunRegion runs one regional coordinator to completion over a single
// upstream connection: it claims its shard from the root, admits the
// shard's edges from ln (global edge ids, exactly the monolithic cloud's
// admission protocol), and serves ShardAssign/ShardDelta rounds until the
// root sends Done or Error. The returned error is nil on a completed run; a
// transient upstream failure is an error here (use RunRegionResumable to
// survive it).
func RunRegion(upstream net.Conn, ln net.Listener, cfg RegionConfig) error {
	s, err := NewRegionSession(ln, cfg)
	if err != nil {
		return err
	}
	done, err := s.Run(upstream)
	if !done {
		s.abort(err)
	}
	return err
}

// RunRegionResumable runs a full coordinator session with automatic
// reconnect: when the upstream connection fails transiently, it redials and
// resumes, up to maxResumes times. dial is also what paces reconnection — a
// dialer may sleep or back off internally; RunRegionResumable itself never
// waits, so deterministic harnesses stay in control of time.
func RunRegionResumable(dial func() (net.Conn, error), ln net.Listener, cfg RegionConfig, maxResumes int) error {
	s, err := NewRegionSession(ln, cfg)
	if err != nil {
		return err
	}
	// When the resume budget runs out, release (don't abort) the edges: the
	// root may already have rebalanced this session's shards, and the edges
	// can still migrate to the adopter. A session that ended any other way
	// has released them already.
	defer s.release()
	return s.redial(dial, maxResumes, s)
}
