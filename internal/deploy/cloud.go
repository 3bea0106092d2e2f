package deploy

import (
	"fmt"
	"net"
	"time"

	"github.com/carbonedge/carbonedge/internal/core"
	"github.com/carbonedge/carbonedge/internal/energy"
	"github.com/carbonedge/carbonedge/internal/engine"
	"github.com/carbonedge/carbonedge/internal/market"
	"github.com/carbonedge/carbonedge/internal/trading"
)

// ModelSource supplies the cloud's model zoo: metadata plus serialized
// checkpoints to ship to edges.
type ModelSource interface {
	// NumModels returns N.
	NumModels() int
	// Meta returns the announced metadata of model n.
	Meta(n int) ModelMeta
	// Checkpoint returns the serialized weights of model n (what a switch
	// actually downloads). May be empty for surrogate sources.
	Checkpoint(n int) ([]byte, error)
}

// DefaultHandshakeTimeout bounds the Hello/Welcome exchange of a new
// connection when CloudConfig.HandshakeTimeout is zero: a client that
// connects and never speaks must not wedge admission.
const DefaultHandshakeTimeout = 30 * time.Second

// CloudConfig parameterizes a cloud server.
type CloudConfig struct {
	// Edges is the number of edge agents that will connect.
	Edges int
	// Horizon is the number of slots to run.
	Horizon int
	// DownloadCosts holds u_i per edge id; length must equal Edges.
	DownloadCosts []float64
	// InitialCap (grams) and EmissionRate (g/kWh) configure the carbon side.
	InitialCap   float64
	EmissionRate float64
	// Prices is the allowance price series (length >= Horizon).
	Prices *market.Prices
	// EmissionScale hints the expected per-slot emission for Algorithm 2's
	// step sizes (0 = 1).
	EmissionScale float64
	// Seed drives the controller's sampling, the resume-token issue, and the
	// deterministic backoff jitter streams.
	Seed int64
	// SlotTimeout bounds each per-edge exchange (assign + report). Zero
	// disables deadlines. A slow or hung edge then fails its slot instead
	// of stalling the whole fleet.
	SlotTimeout time.Duration
	// HandshakeTimeout bounds each connection's Hello/Welcome exchange.
	// Zero selects DefaultHandshakeTimeout; negative disables the deadline.
	HandshakeTimeout time.Duration
	// Retry is the per-slot transient-failure budget: how many times an
	// edge's exchange is retried (under deterministic capped-exponential
	// backoff) and how long each try waits for a dropped edge to redial and
	// resume. The zero value disables retries.
	Retry RetryConfig
	// Policy selects the engine's reaction to an edge that fails beyond its
	// retry budget: engine.FailFast (zero value, historical behavior) aborts
	// the run; engine.Degrade marks the edge down and completes the run on
	// the surviving fleet with exact accounting over the slots served.
	Policy engine.ErrorPolicy
}

// Summary is what a completed distributed run reports.
type Summary struct {
	// ObservedLoss accumulates the reported per-slot average losses
	// (including the measured computation time, the paper's L + v).
	ObservedLoss float64
	// TradingCost is sum z c - w r.
	TradingCost float64
	// Emissions[t] is grams emitted in slot t; Decisions aligns with it.
	Emissions []float64
	Decisions []trading.Decision
	// Fit is the long-term constraint violation.
	Fit float64
	// Switches counts model downloads shipped (including initial ones).
	Switches int
	// Accuracy is the overall fraction of correct predictions reported.
	Accuracy float64
	// Selections[i][n] counts slots edge i spent on model n.
	Selections [][]int

	// Fault-tolerance accounting (all zero on a fault-free run).
	//
	// Downtime[i] counts slots edge i did not serve; DroppedSlots is their
	// sum. Retries[i] counts transient-failure retries burned for edge i.
	// Resumes[i] counts accepted session resumes. DownErrors[i] records why
	// edge i was marked down ("" while up).
	Downtime     []int
	DroppedSlots int
	Retries      []int
	Resumes      []int
	DownErrors   []string

	// Region-tier elasticity accounting (all nil on a fault-free run, so
	// fault-free regional summaries compare deep-equal to monolithic ones;
	// only the Root fills them). RegionResumes[id] counts accepted session
	// resumes of region link id. RegionRetries[k] counts transient retries
	// burned by shard k's exchanges. Rebalances[k] counts mid-run handoffs
	// of shard k to a new region link.
	RegionResumes map[int]int
	RegionRetries []int
	Rebalances    []int
}

// summaryFromResult translates an engine Result into the deployment Summary.
func summaryFromResult(res *engine.Result, resumes []int) *Summary {
	return &Summary{
		ObservedLoss: res.Cost.InferLoss + res.Cost.Compute,
		TradingCost:  res.Cost.Trading,
		Emissions:    res.Emissions,
		Decisions:    res.Decisions,
		Fit:          res.Fit,
		Switches:     res.Switches,
		Accuracy:     res.OverallAccuracy,
		Selections:   res.Selections,
		Downtime:     res.Downtime,
		DroppedSlots: res.DroppedSlots,
		Retries:      res.Retries,
		Resumes:      resumes,
		DownErrors:   res.DownErrors,
	}
}

// Cloud hosts the models and the online controller. Its TCP-facing fleet
// machinery (admission, resume, retries, the per-slot exchange) lives in the
// embedded edgeFleet, which the regional-aggregator tier reuses verbatim.
type Cloud struct {
	*controller
	*edgeFleet
}

// NewCloud validates the configuration and builds the controller.
func NewCloud(cfg CloudConfig, source ModelSource) (*Cloud, error) {
	if source == nil {
		return nil, fmt.Errorf("deploy: nil model source")
	}
	ctrl, err := newController(cfg, source.NumModels())
	if err != nil {
		return nil, err
	}
	return &Cloud{controller: ctrl, edgeFleet: newEdgeFleet(cfg, 0, source)}, nil
}

// controller is the cloud side of a run, as Cloud and Root both hold it: the
// online controller and the engine configuration it is stepped under.
type controller struct {
	ctrl *core.Controller
	ecfg engine.Config
}

// newController validates cfg and builds the controller of a run over
// numModels models; the Root translates its configuration into cfg.
func newController(cfg CloudConfig, numModels int) (*controller, error) {
	if cfg.Edges <= 0 {
		return nil, fmt.Errorf("deploy: need at least one edge, got %d", cfg.Edges)
	}
	if len(cfg.DownloadCosts) != cfg.Edges {
		return nil, fmt.Errorf("deploy: %d download costs for %d edges", len(cfg.DownloadCosts), cfg.Edges)
	}
	if cfg.Prices == nil || cfg.Prices.Horizon() < cfg.Horizon {
		return nil, fmt.Errorf("deploy: price series shorter than horizon")
	}
	if err := cfg.Retry.validate(); err != nil {
		return nil, err
	}
	if cfg.Policy != engine.FailFast && cfg.Policy != engine.Degrade {
		return nil, fmt.Errorf("deploy: unknown error policy %d", cfg.Policy)
	}
	ctrl, err := core.New(core.Config{
		NumModels:     numModels,
		DownloadCosts: cfg.DownloadCosts,
		Horizon:       cfg.Horizon,
		InitialCap:    cfg.InitialCap,
		EmissionScale: cfg.EmissionScale,
		PriceScale:    cfg.Prices.MeanBuy(cfg.Horizon),
		Seed:          cfg.Seed,
	})
	if err != nil {
		return nil, fmt.Errorf("deploy: controller: %w", err)
	}
	// The engine builds the run's meter; validate the rate up front so a
	// bad configuration fails before any edge connects.
	if _, err := energy.NewMeter(cfg.EmissionRate); err != nil {
		return nil, err
	}
	return &controller{ctrl: ctrl, ecfg: engine.Config{
		Name:         "deploy",
		Horizon:      cfg.Horizon,
		NumModels:    numModels,
		InitialCap:   cfg.InitialCap,
		EmissionRate: cfg.EmissionRate,
		Prices:       cfg.Prices,
		SwitchCosts:  cfg.DownloadCosts,
		Policy:       cfg.Policy,
	}}, nil
}

// Serve admits cfg.Edges edge sessions from ln, runs the full horizon, and
// returns the summary. The listener stays open for the whole run so dropped
// edges can redial and resume their session mid-run; it is not closed (the
// caller owns it), but Serve unblocks its own acceptor on return when the
// listener supports deadlines (as TCP listeners do).
func (c *Cloud) Serve(ln net.Listener) (*Summary, error) {
	stop := c.acc.start(ln)
	defer stop()
	if err := c.acc.awaitInitial(); err != nil {
		return nil, err
	}

	// All slots go through the shared engine: the TCP exchange with each
	// edge is one EdgeStepper, so the distributed deployment executes the
	// exact protocol the in-process simulator does. One worker per edge keeps
	// every edge's assign/report exchange in flight concurrently, as before;
	// the retry layer and the error policy decide what a failed exchange means.
	tcp := c.rangeSteppers(c.initial)
	steppers := make([]engine.EdgeStepper, len(tcp))
	for i, s := range tcp {
		steppers[i] = s
	}
	defer c.closeAll()
	ecfg := c.ecfg
	ecfg.Workers = len(tcp)
	res, err := engine.Run(ecfg, c.ctrl, steppers)
	if err != nil {
		return nil, abort(c.links(), err)
	}

	if err := finish(c.links(), "edge"); err != nil && ecfg.Policy == engine.FailFast {
		return nil, err
	}
	return summaryFromResult(res, c.resumes()), nil
}
