// Command carbonedge-cloud runs the cloud side of the distributed
// deployment: it trains the model zoo, listens for edge agents, and drives
// the full horizon — Algorithm 1 placements, checkpoint shipping, and
// Algorithm 2 allowance trading — printing a run summary at the end.
//
// Pair it with carbonedge-edge processes (one per edge, possibly on other
// machines):
//
//	carbonedge-cloud -listen :7070 -edges 4 -horizon 40 &
//	for i in 0 1 2 3; do carbonedge-edge -connect host:7070 -id $i & done
//
// For fleets too large for one admission point, -mode root/region splits
// the deployment into a root cloud plus regional coordinators. The root
// runs the controller and the global trade/ledger accounting; each region
// owns one contiguous shard of the fleet, admits its edges itself, and
// streams per-slot shard deltas upstream. The summary is bit-identical to
// the monolithic run over the same fleet:
//
//	carbonedge-cloud -mode root -listen :7070 -edges 4 -regions 2 -horizon 40 &
//	carbonedge-cloud -mode region -region-id 0 -connect host:7070 -listen :7171 &
//	carbonedge-cloud -mode region -region-id 1 -connect host:7070 -listen :7272 &
//	for i in 0 1; do carbonedge-edge -connect host:7171 -id $i & done
//	for i in 2 3; do carbonedge-edge -connect host:7272 -id $i & done
//
// The regional tier is elastic: give the root -degrade plus a per-link
// retry budget (-region-retries) and regions a -resumes budget, and a
// coordinator whose upstream link fails redials the root, resumes from its
// shard watermark, and the run completes with the same summary bytes. A
// coordinator started with -leave-before N departs gracefully before slot
// N and the root rebalances its shard onto a surviving region (or degrades
// it when fewer than -quorum regions remain). See README.md "Killing a
// region's link mid-run".
package main

import (
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"time"

	"github.com/carbonedge/carbonedge/internal/dataset"
	"github.com/carbonedge/carbonedge/internal/deploy"
	"github.com/carbonedge/carbonedge/internal/engine"
	"github.com/carbonedge/carbonedge/internal/market"
	"github.com/carbonedge/carbonedge/internal/models"
	"github.com/carbonedge/carbonedge/internal/numeric"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "carbonedge-cloud:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("carbonedge-cloud", flag.ContinueOnError)
	var (
		mode     = fs.String("mode", "standalone", "standalone | root | region")
		listen   = fs.String("listen", "127.0.0.1:7070", "address to listen on (for edges; in root mode, for regions)")
		edges    = fs.Int("edges", 2, "number of edge agents to expect (standalone/root)")
		regions  = fs.Int("regions", 2, "number of regional coordinators (root mode)")
		regionID = fs.Int("region-id", 0, "this coordinator's region id (region mode)")
		connect  = fs.String("connect", "", "root address to report to (region mode)")
		horizon  = fs.Int("horizon", 40, "number of time slots")
		seed     = fs.Int64("seed", 1, "random seed (must match the edges' and every region's)")
		cap      = fs.Float64("cap", 0.002, "initial allowance cap in grams")
		rate     = fs.Float64("rate", 500, "emission rate g/kWh")
		trainN   = fs.Int("train", 600, "zoo training-pool size")
		epochs   = fs.Int("epochs", 2, "zoo training epochs")
		retries  = fs.Int("retries", 0, "per-slot transient-failure retry budget per edge")
		degrade  = fs.Bool("degrade", false, "complete the run without edges that fail beyond their retry budget (default: abort)")
		rgRetry  = fs.Int("region-retries", 0, "per-slot transient-failure retry budget per region link (root mode)")
		quorum   = fs.Int("quorum", 0, "live regions required to rebalance a lost shard instead of degrading it (root mode, 0 = 1)")
		resumes  = fs.Int("resumes", 0, "times this coordinator redials the root and resumes after a link failure (region mode)")
		leaveAt  = fs.Int("leave-before", 0, "announce a graceful departure before serving this slot (region mode, 0 = never)")
		hsTO     = fs.Duration("handshake-timeout", 0, "handshake deadline for new connections (0 = 30s default, negative disables)")
		slotTO   = fs.Duration("slot-timeout", 0, "per-slot exchange deadline per edge (0 disables)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *horizon <= 0 {
		return fmt.Errorf("need positive horizon")
	}
	if *retries < 0 || *rgRetry < 0 {
		return fmt.Errorf("negative retry budget")
	}
	if *quorum < 0 || *resumes < 0 || *leaveAt < 0 {
		return fmt.Errorf("negative elasticity parameter")
	}
	policy := engine.FailFast
	if *degrade {
		policy = engine.Degrade
	}

	switch *mode {
	case "standalone":
		if *edges <= 0 {
			return fmt.Errorf("need positive edges")
		}
		return runStandalone(stdout, *listen, *edges, *horizon, *seed, *cap, *rate,
			*trainN, *epochs, *retries, policy, *hsTO, *slotTO)
	case "root":
		if *edges <= 0 {
			return fmt.Errorf("need positive edges")
		}
		return runRoot(stdout, *listen, *edges, *regions, *horizon, *seed, *cap, *rate, policy,
			*rgRetry, *quorum, *hsTO, *slotTO)
	case "region":
		if *connect == "" {
			return fmt.Errorf("region mode needs -connect <root address>")
		}
		return runRegion(stdout, *listen, *connect, *regionID, *seed,
			*trainN, *epochs, *retries, *resumes, *leaveAt, *hsTO, *slotTO)
	default:
		return fmt.Errorf("unknown mode %q (standalone | root | region)", *mode)
	}
}

// trainSource trains the deployment's model zoo from the shared seed. Every
// process that ships checkpoints (standalone cloud, each region) trains the
// identical zoo because the training streams are derived from the seed alone.
func trainSource(stdout io.Writer, seed int64, trainN, epochs int) (deploy.ModelSource, error) {
	spec := dataset.MNISTLike
	dist, err := dataset.NewDistribution(spec, numeric.SplitRNG(seed, "dist"))
	if err != nil {
		return nil, err
	}
	fmt.Fprintln(stdout, "training the model zoo...")
	zoo, err := models.NewTrainedZoo(models.TrainedZooConfig{
		Dataset: spec,
		Dist:    dist,
		TrainN:  trainN, TestN: trainN, Epochs: epochs, LR: 0.05, BatchSize: 16,
	}, numeric.SplitRNG(seed, "zoo"))
	if err != nil {
		return nil, err
	}
	return deploy.NewZooSource(zoo)
}

// deploymentPrices generates the allowance price series from the shared seed.
func deploymentPrices(seed int64, horizon int) (*market.Prices, error) {
	return market.GeneratePrices(market.DefaultPriceConfig(), horizon,
		numeric.SplitRNG(seed, "prices"))
}

// deploymentCosts is u_i per global edge id, shared by every mode so a
// root+regions run prices switches exactly as the monolithic cloud would.
func deploymentCosts(edges int) []float64 {
	costs := make([]float64, edges)
	for i := range costs {
		costs[i] = 0.8 + 0.3*float64(i)
	}
	return costs
}

func runStandalone(stdout io.Writer, listen string, edges, horizon int, seed int64,
	cap, rate float64, trainN, epochs, retries int, policy engine.ErrorPolicy,
	hsTO, slotTO time.Duration) error {
	source, err := trainSource(stdout, seed, trainN, epochs)
	if err != nil {
		return err
	}
	prices, err := deploymentPrices(seed, horizon)
	if err != nil {
		return err
	}
	cloud, err := deploy.NewCloud(deploy.CloudConfig{
		Edges:         edges,
		Horizon:       horizon,
		DownloadCosts: deploymentCosts(edges),
		InitialCap:    cap,
		EmissionRate:  rate,
		Prices:        prices,
		EmissionScale: 2e-4,
		Seed:          seed,
		SlotTimeout:   slotTO,

		HandshakeTimeout: hsTO,
		Retry:            deploy.RetryConfig{Attempts: retries},
		Policy:           policy,
	}, source)
	if err != nil {
		return err
	}

	ln, err := net.Listen("tcp", listen)
	if err != nil {
		return err
	}
	defer ln.Close()
	fmt.Fprintf(stdout, "listening on %s for %d edges\n", ln.Addr(), edges)

	summary, err := cloud.Serve(ln)
	if err != nil {
		return err
	}
	printSummary(stdout, summary)
	return nil
}

// runRoot serves the root cloud of a regional deployment. The root never
// ships checkpoints — the regions hold the zoo — so it skips training and
// only needs the family size the trained zoos will have.
func runRoot(stdout io.Writer, listen string, edges, regions, horizon int, seed int64,
	cap, rate float64, policy engine.ErrorPolicy, rgRetry, quorum int,
	hsTO, slotTO time.Duration) error {
	prices, err := deploymentPrices(seed, horizon)
	if err != nil {
		return err
	}
	root, err := deploy.NewRoot(deploy.RootConfig{
		Edges:         edges,
		Regions:       regions,
		Horizon:       horizon,
		DownloadCosts: deploymentCosts(edges),
		InitialCap:    cap,
		EmissionRate:  rate,
		Prices:        prices,
		EmissionScale: 2e-4,
		Seed:          seed,
		NumModels:     models.FamilySize(),
		Policy:        policy,

		SlotTimeout:      slotTO,
		HandshakeTimeout: hsTO,
		Retry:            deploy.RetryConfig{Attempts: rgRetry},
		RegionQuorum:     quorum,
	})
	if err != nil {
		return err
	}

	ln, err := net.Listen("tcp", listen)
	if err != nil {
		return err
	}
	defer ln.Close()
	fmt.Fprintf(stdout, "root listening on %s for %d regions (%d edges total)\n", ln.Addr(), regions, edges)

	summary, err := root.Serve(ln)
	if err != nil {
		return err
	}
	printSummary(stdout, summary)
	return nil
}

// runRegion runs one regional coordinator: it trains the zoo (identical to
// every other region's, by seed), claims its shard from the root, and admits
// the shard's edges on its own listener. A positive resume budget makes the
// coordinator redial the root and resume from its shard watermark when the
// upstream link fails, exactly as carbonedge-edge -resumes does for edges.
func runRegion(stdout io.Writer, listen, connect string, regionID int, seed int64,
	trainN, epochs, retries, resumes, leaveAt int, hsTO, slotTO time.Duration) error {
	source, err := trainSource(stdout, seed, trainN, epochs)
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", listen)
	if err != nil {
		return err
	}
	defer ln.Close()
	fmt.Fprintf(stdout, "region %d listening on %s, root at %s\n", regionID, ln.Addr(), connect)

	cfg := deploy.RegionConfig{
		RegionID: regionID,
		Source:   source,
		Seed:     seed,

		SlotTimeout:      slotTO,
		HandshakeTimeout: hsTO,
		Retry:            deploy.RetryConfig{Attempts: retries},
		LeaveBeforeSlot:  leaveAt,
	}
	if resumes == 0 {
		upstream, err := net.Dial("tcp", connect)
		if err != nil {
			return fmt.Errorf("connect to root: %w", err)
		}
		defer upstream.Close()
		if err := deploy.RunRegion(upstream, ln, cfg); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "region %d complete\n", regionID)
		return nil
	}
	dials := 0
	dial := func() (net.Conn, error) {
		conn, err := net.Dial("tcp", connect)
		if err != nil {
			return nil, fmt.Errorf("connect to root: %w", err)
		}
		dials++
		if dials == 1 {
			fmt.Fprintf(stdout, "region %d connected to root at %s\n", regionID, connect)
		} else {
			fmt.Fprintf(stdout, "region %d reconnected to root (resume %d)\n", regionID, dials-1)
		}
		return conn, nil
	}
	if err := deploy.RunRegionResumable(dial, ln, cfg, resumes); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "region %d complete\n", regionID)
	return nil
}

// printSummary reports a completed run, including fault accounting when any
// fault machinery fired.
func printSummary(stdout io.Writer, summary *deploy.Summary) {
	total := 0.0
	for _, e := range summary.Emissions {
		total += e
	}
	fmt.Fprintf(stdout, "run complete: loss=%.2f downloads=%d accuracy=%.3f emissions=%.4fg trade=%.4f fit=%.5fg\n",
		summary.ObservedLoss, summary.Switches, summary.Accuracy, total, summary.TradingCost, summary.Fit)
	retriesTotal, resumesTotal := 0, 0
	for i := range summary.Retries {
		retriesTotal += summary.Retries[i]
		resumesTotal += summary.Resumes[i]
	}
	if retriesTotal > 0 || resumesTotal > 0 || summary.DroppedSlots > 0 {
		fmt.Fprintf(stdout, "faults: retries=%d resumes=%d droppedSlots=%d\n",
			retriesTotal, resumesTotal, summary.DroppedSlots)
		for i, reason := range summary.DownErrors {
			if reason != "" {
				fmt.Fprintf(stdout, "  edge %d down for %d slots: %s\n", i, summary.Downtime[i], reason)
			}
		}
	}
	// The root's elasticity counters (all nil on a fault-free run): what
	// -region-retries and -quorum did.
	if summary.RegionResumes != nil || summary.RegionRetries != nil || summary.Rebalances != nil {
		sum := func(xs []int) (n int) {
			for _, x := range xs {
				n += x
			}
			return n
		}
		resumes := 0
		for _, n := range summary.RegionResumes {
			resumes += n
		}
		fmt.Fprintf(stdout, "regions: resumes=%d retries=%d rebalances=%d\n",
			resumes, sum(summary.RegionRetries), sum(summary.Rebalances))
	}
}
