package deploy

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/carbonedge/carbonedge/internal/dataset"
	"github.com/carbonedge/carbonedge/internal/market"
	"github.com/carbonedge/carbonedge/internal/models"
	"github.com/carbonedge/carbonedge/internal/nn"
	"github.com/carbonedge/carbonedge/internal/numeric"
)

// buildDistributedWorld constructs a trained zoo, a cloud, and edge
// runtimes that share only the dataset specification — the cloud never
// sees edge data, edges never see the training pool. Each adjust edits the
// cloud's configuration before it is built.
func buildDistributedWorld(t *testing.T, edges, horizon int, adjust ...func(*CloudConfig)) (*Cloud, []*NNRuntime) {
	t.Helper()
	spec := dataset.MNISTLike
	// The cloud and all edges share the distribution D but sample it
	// independently — the paper's data model.
	dist, err := dataset.NewDistribution(spec, numeric.SplitRNG(1, "deploy-dist"))
	if err != nil {
		t.Fatal(err)
	}
	zooCfg := models.TrainedZooConfig{
		Dataset: spec,
		Dist:    dist,
		TrainN:  200, TestN: 200, Epochs: 1, LR: 0.05, BatchSize: 16,
	}
	zoo, err := models.NewTrainedZoo(zooCfg, numeric.SplitRNG(1, "deploy-zoo"))
	if err != nil {
		t.Fatal(err)
	}
	source, err := NewZooSource(zoo)
	if err != nil {
		t.Fatal(err)
	}
	prices, err := market.GeneratePrices(market.DefaultPriceConfig(), horizon, numeric.SplitRNG(1, "deploy-prices"))
	if err != nil {
		t.Fatal(err)
	}
	downloadCosts := make([]float64, edges)
	for i := range downloadCosts {
		downloadCosts[i] = 0.5 + 0.2*float64(i)
	}
	cfg := CloudConfig{
		Edges:         edges,
		Horizon:       horizon,
		DownloadCosts: downloadCosts,
		InitialCap:    0.001,
		EmissionRate:  500,
		Prices:        prices,
		EmissionScale: 1e-4,
		Seed:          1,
	}
	for _, f := range adjust {
		f(&cfg)
	}
	cloud, err := NewCloud(cfg, source)
	if err != nil {
		t.Fatal(err)
	}

	runtimes := make([]*NNRuntime, edges)
	for i := range runtimes {
		edgeRNG := numeric.SplitRNG(1, fmt.Sprintf("deploy-edge-%d", i))
		// Each edge draws its own local data pool from the shared
		// distribution.
		pool := dist.Pool(120, edgeRNG)
		build := func(modelID int) (*nn.Network, error) {
			return models.NewFamilyNetwork(spec, modelID, numeric.SplitRNG(9, "arch"))
		}
		rt, err := NewNNRuntime(
			build,
			pool,
			func(slot int) int { return 5 + slot%5 },
			func(modelID int) float64 { return 0.03 + 0.01*float64(modelID) },
			edgeRNG,
		)
		if err != nil {
			t.Fatal(err)
		}
		runtimes[i] = rt
	}
	return cloud, runtimes
}

func TestDistributedEndToEndOverTCP(t *testing.T) {
	const (
		edges   = 3
		horizon = 12
	)
	cloud, runtimes := buildDistributedWorld(t, edges, horizon)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	var wg sync.WaitGroup
	edgeErrs := make([]error, edges)
	for i := 0; i < edges; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			conn, err := net.Dial("tcp", ln.Addr().String())
			if err != nil {
				edgeErrs[i] = err
				return
			}
			defer conn.Close()
			edgeErrs[i] = RunEdge(conn, i, runtimes[i])
		}(i)
	}

	summary, err := cloud.Serve(ln)
	if err != nil {
		t.Fatalf("cloud.Serve: %v", err)
	}
	wg.Wait()
	for i, err := range edgeErrs {
		if err != nil {
			t.Fatalf("edge %d: %v", i, err)
		}
	}

	if len(summary.Emissions) != horizon {
		t.Fatalf("emissions length %d", len(summary.Emissions))
	}
	if summary.Switches < edges {
		t.Errorf("switches = %d, want at least one initial download per edge", summary.Switches)
	}
	if summary.ObservedLoss <= 0 {
		t.Error("no loss observed")
	}
	if summary.Accuracy <= 0.1 || summary.Accuracy > 1 {
		t.Errorf("accuracy = %v, want above chance", summary.Accuracy)
	}
	for _, e := range summary.Emissions {
		if e < 0 {
			t.Fatal("negative emission")
		}
	}
}

func TestDistributedCheckpointFidelity(t *testing.T) {
	// A single edge over an in-memory pipe: the model it reconstructs from
	// the shipped checkpoint must classify exactly like the cloud's copy.
	cloud, runtimes := buildDistributedWorld(t, 1, 3)
	cloudSide, edgeSide := net.Pipe()
	ln := &pipeListener{conns: []net.Conn{cloudSide}}
	done := make(chan error, 1)
	go func() {
		done <- RunEdge(edgeSide, 0, runtimes[0])
	}()
	summary, err := cloud.Serve(ln)
	if err != nil {
		t.Fatalf("cloud.Serve: %v", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("edge: %v", err)
	}
	if summary.ObservedLoss <= 0 {
		t.Error("no observed loss through pipe transport")
	}
}

// pipeListener adapts pre-made conns to net.Listener.
type pipeListener struct {
	conns []net.Conn
	idx   int
}

func (l *pipeListener) Accept() (net.Conn, error) {
	if l.idx >= len(l.conns) {
		return nil, fmt.Errorf("no more conns")
	}
	c := l.conns[l.idx]
	l.idx++
	return c, nil
}

func (l *pipeListener) Close() error   { return nil }
func (l *pipeListener) Addr() net.Addr { return &net.IPAddr{} }

func TestCloudSlotTimeoutAbortsOnHungEdge(t *testing.T) {
	// A cloud with a short slot timeout and an "edge" that completes the
	// handshake but never answers an Assign must fail fast instead of
	// hanging forever.
	cloud, _ := buildDistributedWorld(t, 1, 5, func(c *CloudConfig) { c.SlotTimeout = 200 * time.Millisecond })

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	go func() {
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			return
		}
		defer conn.Close()
		// Handshake, then go silent.
		if err := WriteMessage(conn, &Message{Type: MsgHello, EdgeID: 0}); err != nil {
			return
		}
		if _, err := ReadMessage(conn); err != nil {
			return
		}
		select {} // never respond
	}()

	done := make(chan error, 1)
	go func() {
		_, err := cloud.Serve(ln)
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("expected timeout error")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cloud hung despite slot timeout")
	}
}

func TestNewCloudErrors(t *testing.T) {
	prices, err := market.GeneratePrices(market.DefaultPriceConfig(), 10, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	zoo, err := models.NewTrainedZoo(models.TrainedZooConfig{
		Dataset: dataset.MNISTLike, TrainN: 50, TestN: 50, Epochs: 1, LR: 0.05,
	}, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	source, err := NewZooSource(zoo)
	if err != nil {
		t.Fatal(err)
	}
	valid := CloudConfig{
		Edges: 2, Horizon: 10, DownloadCosts: []float64{1, 1},
		InitialCap: 1, EmissionRate: 500, Prices: prices, Seed: 1,
	}
	if _, err := NewCloud(valid, nil); err == nil {
		t.Error("expected error for nil source")
	}
	bad := valid
	bad.Edges = 0
	if _, err := NewCloud(bad, source); err == nil {
		t.Error("expected error for zero edges")
	}
	bad = valid
	bad.DownloadCosts = []float64{1}
	if _, err := NewCloud(bad, source); err == nil {
		t.Error("expected error for mismatched download costs")
	}
	bad = valid
	bad.Prices = nil
	if _, err := NewCloud(bad, source); err == nil {
		t.Error("expected error for nil prices")
	}
	bad = valid
	bad.Horizon = 99
	if _, err := NewCloud(bad, source); err == nil {
		t.Error("expected error for short price series")
	}
	for name, retry := range badRetryConfigs {
		bad = valid
		bad.Retry = retry
		if _, err := NewCloud(bad, source); err == nil {
			t.Errorf("expected error for %s", name)
		}
	}
}

// badRetryConfigs are the RetryConfigs every constructor that takes one must
// reject: NewCloud, NewRoot and NewRegionSession share one validation.
var badRetryConfigs = map[string]RetryConfig{
	"negative retry budget": {Attempts: -1},
}

func TestRunEdgeErrors(t *testing.T) {
	if err := RunEdge(nil, 0, nil); err == nil || !strings.Contains(err.Error(), "nil runtime") {
		t.Errorf("err = %v, want nil-runtime error", err)
	}
}

func TestNNRuntimeErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	build := func(int) (*nn.Network, error) { return nil, fmt.Errorf("no") }
	if _, err := NewNNRuntime(nil, nil, nil, nil, nil); err == nil {
		t.Error("expected error for nil deps")
	}
	dist, err := dataset.NewDistribution(dataset.MNISTLike, rng)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := NewNNRuntime(build, dist.Pool(5, rng), func(int) int { return 1 }, func(int) float64 { return 0.1 }, rng)
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Welcome(nil); err == nil {
		t.Error("expected error for empty welcome")
	}
	if err := rt.Welcome([]ModelMeta{{Name: "m", PhiKWh: 1e-8, SizeBytes: 10}}); err != nil {
		t.Fatal(err)
	}
	if err := rt.LoadModel(5, nil); err == nil {
		t.Error("expected error for out-of-range model")
	}
	if err := rt.LoadModel(0, []byte{1}); err == nil {
		t.Error("expected error from failing builder")
	}
	if _, err := rt.RunSlot(0, 0); err == nil {
		t.Error("expected error for never-downloaded model")
	}
	// A ragged pool would have its samples truncated or over-read as they are
	// stacked into a batch: the constructor refuses it.
	ragged := append(dist.Pool(3, rng), nn.Sample{X: nn.NewTensor(1, 28, 27)})
	if _, err := NewNNRuntime(build, ragged, func(int) int { return 1 }, func(int) float64 { return 0.1 }, rng); err == nil || !strings.Contains(err.Error(), "sample 3") {
		t.Errorf("ragged pool: err = %v, want an error naming sample 3", err)
	}
	// So would an architecture that takes another input shape than the pool
	// holds, but inside a convolution in the middle of a run: the install
	// refuses it, and the model stays unservable.
	rt.BuildNet = func(int) (*nn.Network, error) {
		return models.NewFamilyNetwork(dataset.CIFARLike, 2, numeric.SplitRNG(9, "bench-arch"))
	}
	if err := rt.LoadModel(0, []byte{1}); err == nil || !strings.Contains(err.Error(), "[3 32 32]") {
		t.Errorf("mismatched architecture: err = %v, want an error naming its input shape", err)
	}
	if _, err := rt.RunSlot(0, 0); err == nil {
		t.Error("the refused architecture was installed")
	}
	// A switch that ships no weights is only valid for a cached model: model
	// 0 is installed, model 1 never was, and its architecture's fresh
	// initialisation must not be installed in its place.
	for _, int8Mode := range []bool{false, true} {
		rt := benchRuntime(t, int8Mode)
		if err := rt.LoadModel(0, nil); err != nil {
			t.Errorf("int8=%v: empty checkpoint over a cached copy: %v", int8Mode, err)
		}
		if err := rt.LoadModel(1, nil); err == nil || !strings.Contains(err.Error(), "model 1") {
			t.Errorf("int8=%v: err = %v, want an error naming model 1", int8Mode, err)
		}
		if _, err := rt.RunSlot(0, 1); err == nil {
			t.Errorf("int8=%v: the failed load installed model 1", int8Mode)
		}
	}
	t.Run("FailedInstallEvicts", testFailedInstallEvicts)
}

// testFailedInstallEvicts pins failure atomicity for the in-place
// install: a checkpoint the reader rejects has already overwritten part of
// the resident network, so the model must stop being servable (in float and
// Int8 mode) until a good checkpoint arrives, which then serves exactly what
// a fresh runtime serves from the same bytes.
func testFailedInstallEvicts(t *testing.T) {
	good := benchCheckpoint(t, 0, "bench-arch")
	truncated := good[:len(good)/2]
	nan := append([]byte(nil), good...)
	binary.LittleEndian.PutUint32(nan[len(nan)-4:], math.Float32bits(float32(math.NaN())))
	bad := []struct {
		name string
		ckpt []byte
	}{
		{"truncated", truncated},
		{"wrong architecture", benchCheckpoint(t, 1, "bench-arch")},
		{"NaN in the last tensor", nan},
	}
	reinstall := benchCheckpoint(t, 0, "bench-reinstall")
	for _, int8Mode := range []bool{false, true} {
		for _, tc := range bad {
			rt := benchRuntime(t, int8Mode)
			scratch, err := benchBuild(0)
			if err != nil {
				t.Fatal(err)
			}
			want := nn.ReadWeights(bytes.NewReader(tc.ckpt), scratch)
			if want == nil {
				t.Fatalf("%s: the reader accepts the checkpoint", tc.name)
			}
			if err := rt.LoadModel(0, tc.ckpt); err == nil || err.Error() != want.Error() {
				t.Errorf("int8=%v %s: LoadModel err = %v, want the reader's %v", int8Mode, tc.name, err, want)
			}
			if _, err := rt.RunSlot(0, 0); err == nil || !strings.Contains(err.Error(), "never downloaded") {
				t.Errorf("int8=%v %s: RunSlot after the failed install: err = %v, want never downloaded", int8Mode, tc.name, err)
			}
			if err := rt.LoadModel(0, nil); err == nil {
				t.Errorf("int8=%v %s: an empty checkpoint revived the evicted model", int8Mode, tc.name)
			}
			if err := rt.LoadModel(0, reinstall); err != nil {
				t.Fatalf("int8=%v %s: reinstall: %v", int8Mode, tc.name, err)
			}
			fresh := benchRuntime(t, int8Mode)
			delete(fresh.loaded, 0)
			if err := fresh.LoadModel(0, reinstall); err != nil {
				t.Fatal(err)
			}
			got, err := rt.RunSlot(0, 0)
			if err != nil {
				t.Fatal(err)
			}
			if ref, err := fresh.RunSlot(0, 0); err != nil || got != ref {
				t.Errorf("int8=%v %s: reinstalled model reports %+v, a fresh runtime %+v (err %v)", int8Mode, tc.name, got, ref, err)
			}
		}
	}
}

// TestNNRuntimeInPlaceInstallMatchesFresh installs A, B, then different
// weights for A into one runtime and compares each slot it serves with a
// fresh runtime that installed only that checkpoint: overwriting the resident
// network, int8 buffers and engine in place must leave no trace of what they
// held before.
func TestNNRuntimeInPlaceInstallMatchesFresh(t *testing.T) {
	const armA, armB = 3, 5
	installs := []struct {
		arm  int
		ckpt []byte
	}{
		{armA, benchCheckpoint(t, armA, "first-a")},
		{armB, benchCheckpoint(t, armB, "only-b")},
		{armA, benchCheckpoint(t, armA, "second-a")},
	}
	for _, int8Mode := range []bool{false, true} {
		rt := benchRuntime(t, int8Mode)
		var reports []SlotReport
		for slot, in := range installs {
			fresh := benchRuntime(t, int8Mode)
			// Both draw slot's samples from the same stream position.
			rt.rng, fresh.rng = numeric.SplitRNG(5, "slot"), numeric.SplitRNG(5, "slot")
			if err := rt.LoadModel(in.arm, in.ckpt); err != nil {
				t.Fatal(err)
			}
			if err := fresh.LoadModel(in.arm, in.ckpt); err != nil {
				t.Fatal(err)
			}
			got, err := rt.RunSlot(slot, in.arm)
			if err != nil {
				t.Fatal(err)
			}
			want, err := fresh.RunSlot(slot, in.arm)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Errorf("int8=%v install %d (arm %d): report %+v, a fresh runtime's %+v", int8Mode, slot, in.arm, got, want)
			}
			reports = append(reports, got)
		}
		if reports[0] == reports[2] {
			t.Errorf("int8=%v: both checkpoints of arm %d serve %+v: the test ships nothing to overwrite", int8Mode, armA, reports[0])
		}
	}
}
