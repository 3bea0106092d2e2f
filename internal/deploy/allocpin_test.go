package deploy

import (
	"bytes"
	"io"
	"net"
	"runtime"
	"testing"

	"github.com/carbonedge/carbonedge/internal/dataset"
	"github.com/carbonedge/carbonedge/internal/engine"
	"github.com/carbonedge/carbonedge/internal/market"
	"github.com/carbonedge/carbonedge/internal/models"
	"github.com/carbonedge/carbonedge/internal/nn"
	"github.com/carbonedge/carbonedge/internal/numeric"
)

// The per-exchange allocation pin. Both tiers' steady-state slot exchanges
// run through one retry loop that is handed the tier's round trip per slot;
// if that hand-off (or anything else on the exchange path) starts to
// heap-allocate, these counts move and go test fails — the slot-cost
// benchmark's 10 % alloc bound would only notice sixteen bytes per edge-slot.
// The values are the ones measured before the tiers were collapsed onto the
// shared link, acceptor and retry loop: 0 for an edge exchange, 1 for a shard
// exchange (its ShardAssign envelope).

// constRuntime serves every slot with the same report and allocates nothing.
type constRuntime struct{}

func (constRuntime) Welcome([]ModelMeta) error   { return nil }
func (constRuntime) LoadModel(int, []byte) error { return nil }
func (constRuntime) RunSlot(slot, modelID int) (SlotReport, error) {
	return SlotReport{AvgLoss: 0.5, Correct: 3, Samples: 4, EnergyKWh: 1e-6, CompSeconds: 0.02}, nil
}

// skipUnlessFramePoolHolds skips an allocation pin where sync.Pool drops
// WriteMessage's frame buffers at random — under the race detector, one Put
// in four: the counts only mean something where the pool holds, which 64
// single-run probes tell apart with certainty.
func skipUnlessFramePoolHolds(t *testing.T) {
	t.Helper()
	probe := &Message{Type: MsgDone}
	for i := 0; i < 64; i++ {
		if testing.AllocsPerRun(1, func() { _ = WriteMessage(io.Discard, probe) }) != 0 {
			t.Skip("WriteMessage's buffer pool does not hold in this build (race detector)")
		}
	}
}

// TestExchangeAllocsPinned drives one tcpStepper over a net.Pipe edge (the
// surrogate source: no download ships) and one regionStepper over a net.Pipe
// coordinator that answers from fixed storage, past their first slots, and
// holds every further slot to the pinned allocation count.
func TestExchangeAllocsPinned(t *testing.T) {
	skipUnlessFramePoolHolds(t)
	const horizon = 4096
	w := newParityWorld(7)
	prices, err := market.GeneratePrices(market.DefaultPriceConfig(), horizon, numeric.SplitRNG(7, "pin-prices"))
	if err != nil {
		t.Fatal(err)
	}

	t.Run("edge", func(t *testing.T) {
		cloud, err := NewCloud(CloudConfig{
			Edges: 1, Horizon: horizon, DownloadCosts: []float64{0.5},
			InitialCap: 0.01, EmissionRate: 500, Prices: prices, Seed: 7,
		}, &paritySource{w: w})
		if err != nil {
			t.Fatal(err)
		}
		cloudSide, edgeSide := net.Pipe()
		ln := newChanListener(cloudSide)
		defer ln.Close()
		edgeDone := make(chan error, 1)
		go func() { edgeDone <- RunEdge(edgeSide, 0, constRuntime{}) }()
		defer cloud.acc.start(ln)()
		if err := cloud.acc.awaitInitial(); err != nil {
			t.Fatal(err)
		}
		tcp := &tcpStepper{fleet: cloud.edgeFleet, link: cloud.initial.links[0], seed: 7}
		slot := 0
		step := func() {
			if _, err := tcp.Step(slot, slot%4, false); err != nil {
				t.Fatal(err)
			}
			slot++
		}
		for i := 0; i < 8; i++ {
			step()
		}
		if got := testing.AllocsPerRun(200, step); got != 0 {
			t.Errorf("tcpStepper.Step allocates %v times per steady-state slot, want 0", got)
		}
		if err := finish(cloud.links(), "edge"); err != nil {
			t.Fatal(err)
		}
		if err := <-edgeDone; err != nil {
			t.Fatal(err)
		}
	})

	t.Run("region", func(t *testing.T) {
		const edges = 3
		root, err := NewRoot(RootConfig{
			Edges: edges, Regions: 1, Horizon: horizon, DownloadCosts: []float64{0.5, 0.5, 0.5},
			InitialCap: 0.01, EmissionRate: 500, Prices: prices, Seed: 7, NumModels: len(w.metas),
		})
		if err != nil {
			t.Fatal(err)
		}
		rootSide, regionSide := net.Pipe()
		ln := newChanListener(rootSide)
		defer ln.Close()
		peerDone := make(chan error, 1)
		go func() {
			peerDone <- func() error {
				conn := newWireConn(regionSide)
				if err := WriteMessage(conn, &Message{Type: MsgRegionHello, RegionID: 0, Seed: 7}); err != nil {
					return err
				}
				if _, err := conn.readMessage(); err != nil {
					return err
				}
				delta := engine.SlotDelta{Edges: make([]engine.EdgeDelta, edges)}
				for j := range delta.Edges {
					delta.Edges[j] = engine.EdgeDelta{Observation: engine.Observation{Loss: 0.52, InferLoss: 0.5, Compute: 0.02, Correct: 3, Samples: 4, InferKWh: 1e-6}, Served: true}
				}
				reply := Message{Type: MsgShardDelta, Delta: &delta}
				for {
					m, err := conn.readMessage()
					if err != nil {
						return err
					}
					if m.Type != MsgShardAssign {
						return nil
					}
					reply.Slot = m.Slot
					if err := WriteMessage(conn, &reply); err != nil {
						return err
					}
				}
			}()
		}()
		defer root.acc.start(ln)()
		if err := root.acc.awaitInitial(); err != nil {
			t.Fatal(err)
		}
		rs := root.stepper(0)
		arms := []int{0, 1, 2}
		downloads := []bool{false, false, false}
		slot := 0
		step := func() {
			if _, err := rs.Step(slot, arms, downloads); err != nil {
				t.Fatal(err)
			}
			slot++
		}
		for i := 0; i < 8; i++ {
			step()
		}
		if got := testing.AllocsPerRun(200, step); got != 1 {
			t.Errorf("regionStepper.Step allocates %v times per steady-state slot, want 1 (the ShardAssign envelope)", got)
		}
		if err := finish(root.sortedLinks(), "region"); err != nil {
			t.Fatal(err)
		}
		if err := <-peerDone; err != nil {
			t.Fatal(err)
		}
	})
}

// TestRepeatInstallAllocsPinned holds a checkpoint install over a resident
// model to what the shipped bytes need: the reader's buffer and a few
// headers, not a rebuilt architecture, fresh int8 buffers or a calibration
// arena. A runtime that goes back to building per install allocates the
// architecture (0.25-3.8 MB by arm) and fails every arm.
func TestRepeatInstallAllocsPinned(t *testing.T) {
	const runs = 8
	for _, mode := range []struct {
		name  string
		int8  bool
		limit uint64
	}{{"float", false, 16 << 10}, {"int8", true, 512 << 10}} {
		rt := benchRuntime(t, mode.int8)
		for arm := 0; arm < len(rt.metas); arm++ {
			ckpt := benchCheckpoint(t, arm, "bench-ckpt")
			if err := rt.LoadModel(arm, ckpt); err != nil {
				t.Fatal(err)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < runs; i++ {
				if err := rt.LoadModel(arm, ckpt); err != nil {
					t.Fatal(err)
				}
			}
			runtime.ReadMemStats(&after)
			if perCall := (after.TotalAlloc - before.TotalAlloc) / runs; perCall > mode.limit {
				t.Errorf("%s arm %d: a repeat LoadModel allocates %d B, want <= %d", mode.name, arm, perCall, mode.limit)
			}
		}
	}
}

// TestFirstInstallAllocsPinned holds a float install of a model the edge has
// never held to one copy of its parameters: eight bytes a weight, plus slack
// for the layer structs, tensor headers, size-class rounding, the
// architecture's RNG and the checkpoint reader's buffer (10-27 KB measured).
// A layer that grows a gradient twin or an activation cache back adds another
// eight bytes a weight and fails every arm — the smallest holds 33 KB.
func TestFirstInstallAllocsPinned(t *testing.T) {
	const slack = 40 << 10
	for _, spec := range []dataset.Spec{dataset.MNISTLike, dataset.CIFARLike} {
		rng := numeric.SplitRNG(7, "first-install")
		dist, err := dataset.NewDistribution(spec, rng)
		if err != nil {
			t.Fatal(err)
		}
		build := func(modelID int) (*nn.Network, error) {
			return models.NewFamilyNetwork(spec, modelID, numeric.SplitRNG(9, "first-install-arch"))
		}
		rt, err := NewNNRuntime(build, dist.Pool(4, rng), func(int) int { return 1 }, func(int) float64 { return 0 }, rng)
		if err != nil {
			t.Fatal(err)
		}
		if err := rt.Welcome(make([]ModelMeta, models.FamilySize())); err != nil {
			t.Fatal(err)
		}
		for arm := 0; arm < models.FamilySize(); arm++ {
			net, err := build(arm)
			if err != nil {
				t.Fatal(err)
			}
			var ckpt bytes.Buffer
			if err := nn.WriteWeights(&ckpt, net); err != nil {
				t.Fatal(err)
			}
			params := 0
			for _, l := range net.Layers {
				for _, p := range l.Params() {
					params += p.Len()
				}
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if err := rt.LoadModel(arm, ckpt.Bytes()); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			got, limit := after.TotalAlloc-before.TotalAlloc, uint64(8*params)+slack
			if got > limit {
				t.Errorf("%s arm %d: a first LoadModel allocates %d B, want <= 8 x %d params + %d", spec.Name, arm, got, params, slack)
			}
		}
	}
}
