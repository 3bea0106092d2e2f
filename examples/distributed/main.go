// Distributed runs the paper's Fig. 1 system for real: a cloud process
// listens on TCP, four edge agents connect, and the full protocol plays out
// — the cloud trains the model zoo, runs Algorithm 1 (per-edge model
// selection) and Algorithm 2 (allowance trading), and ships serialized
// model checkpoints over the wire whenever an edge must switch; the edges
// hold their own private data pools and run genuine neural-network
// inference, reporting only losses and energy.
//
// Everything runs in one OS process for convenience, but the parties
// communicate exclusively through the TCP loopback — move the edge
// goroutines to other machines and nothing changes.
package main

import (
	"fmt"
	"net"
	"os"
	"sync"

	"github.com/carbonedge/carbonedge/internal/dataset"
	"github.com/carbonedge/carbonedge/internal/deploy"
	"github.com/carbonedge/carbonedge/internal/energy"
	"github.com/carbonedge/carbonedge/internal/market"
	"github.com/carbonedge/carbonedge/internal/models"
	"github.com/carbonedge/carbonedge/internal/nn"
	"github.com/carbonedge/carbonedge/internal/numeric"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "distributed:", err)
		os.Exit(1)
	}
}

func run() error {
	const (
		seed    = 11
		edges   = 4
		horizon = 40
	)
	spec := dataset.MNISTLike

	// The distribution D is the one thing cloud and edges share.
	dist, err := dataset.NewDistribution(spec, numeric.SplitRNG(seed, "dist"))
	if err != nil {
		return err
	}

	fmt.Println("cloud: training the model zoo...")
	zoo, err := models.NewTrainedZoo(models.TrainedZooConfig{
		Dataset: spec,
		Dist:    dist,
		TrainN:  600, TestN: 600, Epochs: 2, LR: 0.05, BatchSize: 16,
	}, numeric.SplitRNG(seed, "zoo"))
	if err != nil {
		return err
	}
	source, err := deploy.NewZooSource(zoo)
	if err != nil {
		return err
	}
	prices, err := market.GeneratePrices(market.DefaultPriceConfig(), horizon,
		numeric.SplitRNG(seed, "prices"))
	if err != nil {
		return err
	}
	downloadCosts := make([]float64, edges)
	for i := range downloadCosts {
		downloadCosts[i] = 0.8 + 0.3*float64(i)
	}
	cloud, err := deploy.NewCloud(deploy.CloudConfig{
		Edges:         edges,
		Horizon:       horizon,
		DownloadCosts: downloadCosts,
		InitialCap:    0.002, // grams; tiny system, tiny cap
		EmissionRate:  energy.DefaultEmissionRate,
		Prices:        prices,
		EmissionScale: 2e-4,
		Seed:          seed,
	}, source)
	if err != nil {
		return err
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer ln.Close()
	fmt.Printf("cloud: listening on %s, expecting %d edges\n", ln.Addr(), edges)

	var wg sync.WaitGroup
	edgeErrs := make([]error, edges)
	for i := 0; i < edges; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			edgeErrs[i] = runEdgeAgent(ln.Addr().String(), i, spec, dist, seed)
		}(i)
	}

	summary, err := cloud.Serve(ln)
	if err != nil {
		return err
	}
	wg.Wait()
	for i, err := range edgeErrs {
		if err != nil {
			return fmt.Errorf("edge %d: %w", i, err)
		}
	}

	totalEmission := 0.0
	for _, e := range summary.Emissions {
		totalEmission += e
	}
	fmt.Println("\nrun complete:")
	fmt.Printf("  slots:             %d x %d edges\n", horizon, edges)
	fmt.Printf("  observed loss+v:   %.2f\n", summary.ObservedLoss)
	fmt.Printf("  model downloads:   %d (checkpoints shipped over TCP)\n", summary.Switches)
	fmt.Printf("  inference accuracy:%.3f\n", summary.Accuracy)
	fmt.Printf("  emissions:         %.4f g (cap %.4f g)\n", totalEmission, 0.002)
	fmt.Printf("  trading cost:      %.4f  fit: %.5f g\n", summary.TradingCost, summary.Fit)
	return nil
}

// runEdgeAgent connects one edge to the cloud and serves until Done.
func runEdgeAgent(addr string, id int, spec dataset.Spec, dist *dataset.Distribution, seed int64) error {
	rng := numeric.SplitRNG(seed, fmt.Sprintf("edge-%d", id))
	pool := dist.Pool(300, rng) // the edge's private stream pool
	build := func(modelID int) (*nn.Network, error) {
		return models.NewFamilyNetwork(spec, modelID, numeric.SplitRNG(seed, "arch"))
	}
	rt, err := deploy.NewNNRuntime(
		build,
		pool,
		func(slot int) int { return 20 + (slot+id)%15 },
		func(modelID int) float64 { return 0.025 + 0.02*float64(modelID) },
		rng,
	)
	if err != nil {
		return err
	}
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return err
	}
	defer conn.Close()
	return deploy.RunEdge(conn, id, rt)
}
