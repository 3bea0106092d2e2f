// Command carbonedge-edge runs one edge agent of the distributed
// deployment: it connects to a carbonedge-cloud, draws its private local
// data pool from the shared distribution, rebuilds model architectures
// locally, installs the checkpoints the cloud ships, and serves slots until
// the cloud signals completion.
package main

import (
	"flag"
	"fmt"
	"io"
	"net"
	"os"

	"github.com/carbonedge/carbonedge/internal/dataset"
	"github.com/carbonedge/carbonedge/internal/deploy"
	"github.com/carbonedge/carbonedge/internal/models"
	"github.com/carbonedge/carbonedge/internal/nn"
	"github.com/carbonedge/carbonedge/internal/numeric"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "carbonedge-edge:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("carbonedge-edge", flag.ContinueOnError)
	var (
		connect = fs.String("connect", "127.0.0.1:7070", "cloud address")
		id      = fs.Int("id", 0, "this edge's id (0-based, unique per edge)")
		seed    = fs.Int64("seed", 1, "random seed (must match the cloud's)")
		pool    = fs.Int("pool", 300, "local data-pool size")
		load    = fs.Int("load", 20, "base samples per slot")
		resumes = fs.Int("resumes", 0, "reconnect-and-resume budget when the cloud connection drops")
		int8M   = fs.Bool("int8", false, "serve slots through the true-INT8 inference engine (weights quantized at install time)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *id < 0 {
		return fmt.Errorf("edge id must be non-negative")
	}
	if *pool <= 0 || *load < 0 {
		return fmt.Errorf("invalid pool/load")
	}

	spec := dataset.MNISTLike
	// The distribution seed stream matches the cloud's, so both parties
	// sample the same D.
	dist, err := dataset.NewDistribution(spec, numeric.SplitRNG(*seed, "dist"))
	if err != nil {
		return err
	}
	rng := numeric.SplitRNG(*seed, fmt.Sprintf("edge-%d", *id))
	localPool := dist.Pool(*pool, rng)
	build := func(modelID int) (*nn.Network, error) {
		return models.NewFamilyNetwork(spec, modelID, numeric.SplitRNG(*seed, "arch"))
	}
	baseLoad := *load
	edgeID := *id
	rt, err := deploy.NewNNRuntime(
		build,
		localPool,
		func(slot int) int { return baseLoad + (slot+edgeID)%15 },
		func(modelID int) float64 { return 0.025 + 0.02*float64(modelID) },
		rng,
	)
	if err != nil {
		return err
	}
	rt.Int8 = *int8M

	if *resumes < 0 {
		return fmt.Errorf("negative resume budget")
	}
	dials := 0
	dial := func() (net.Conn, error) {
		conn, err := net.Dial("tcp", *connect)
		if err != nil {
			return nil, err
		}
		dials++
		if dials == 1 {
			fmt.Fprintf(stdout, "edge %d connected to %s\n", *id, *connect)
		} else {
			fmt.Fprintf(stdout, "edge %d reconnected to %s (resume %d)\n", *id, *connect, dials-1)
		}
		return conn, nil
	}
	if err := deploy.RunEdgeResumable(dial, *id, rt, *resumes); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "edge %d done\n", *id)
	return nil
}
