package main

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"github.com/carbonedge/carbonedge/internal/dataset"
	"github.com/carbonedge/carbonedge/internal/deploy"
	"github.com/carbonedge/carbonedge/internal/engine"
	"github.com/carbonedge/carbonedge/internal/market"
	"github.com/carbonedge/carbonedge/internal/models"
	"github.com/carbonedge/carbonedge/internal/nn"
	"github.com/carbonedge/carbonedge/internal/numeric"
)

// servingEdges is the number of edge agents: one real loopback TCP
// connection each, and the harness opens no more sockets than the host has
// cores.
const servingEdges = 2

// zooSeed fixes what is the system's own on edge-serving: the generative
// distribution D, the trained zoo, and the controller's sampling stream. -seed
// draws everything the system is fed — the edges' data pools, their stream
// draws, the price series. With two edges the controller's sampling is not
// averaged over a fleet: left to -seed it decides how long a run sits on the
// heavy arms, which moved slot_p50_ms by ±15 % from seed to seed and could not
// be told from a regression. Every seed still gives the bandit different
// losses, so trajectories differ, but by a few percent.
const zooSeed = 11

// edgeServing is the real-inference deployed workload: a monolithic cloud and
// two NNRuntime agents over loopback TCP, with checkpoints shipped on every
// switch. int8 serves the same run through the integer kernels.
type edgeServing struct {
	sz   sizes
	seed int64
	int8 bool
}

func (w *edgeServing) name() string {
	if w.int8 {
		return "edge-serving-int8"
	}
	return "edge-serving"
}

// servingWorld is the input of one edge-serving pass.
type servingWorld struct {
	spec   dataset.Spec
	zoo    *models.TrainedZoo
	source *deploy.ZooSource
	pools  [servingEdges][]nn.Sample
	run    cloudRun
	// zooBuild and poolBuild time the two expensive parts of set-up.
	zooBuild, poolBuild time.Duration
}

func (w *edgeServing) world() (*servingWorld, error) {
	spec := dataset.MNISTLike
	dist, err := dataset.NewDistribution(spec, numeric.SplitRNG(zooSeed, "dist"))
	if err != nil {
		return nil, err
	}
	t0 := sinceStart()
	// NewTrainedZoo, not the cached constructor: every pass pays for its own
	// training, as a fresh cloud process would.
	zoo, err := models.NewTrainedZoo(models.TrainedZooConfig{
		Dataset: spec,
		Dist:    dist,
		TrainN:  w.sz.zooTrainN, TestN: w.sz.zooTestN, Epochs: w.sz.zooEpochs, LR: 0.05, BatchSize: 16,
	}, numeric.SplitRNG(zooSeed, "zoo"))
	if err != nil {
		return nil, fmt.Errorf("train zoo: %w", err)
	}
	zooBuild := sinceStart() - t0
	source, err := deploy.NewZooSource(zoo)
	if err != nil {
		return nil, err
	}
	horizon := w.sz.serveSlots
	prices, err := market.GeneratePrices(market.DefaultPriceConfig(), horizon, numeric.SplitRNG(w.seed, "prices"))
	if err != nil {
		return nil, err
	}
	sw := &servingWorld{spec: spec, zoo: zoo, source: source, zooBuild: zooBuild}
	t1 := sinceStart()
	for i := range sw.pools {
		sw.pools[i] = dist.Pool(w.sz.servePool, numeric.SplitRNG(w.seed, fmt.Sprintf("pool-%d", i)))
	}
	sw.poolBuild = sinceStart() - t1

	costs := make([]float64, servingEdges)
	meanPhi := 0.0
	for n := 0; n < zoo.NumModels(); n++ {
		meanPhi += zoo.Info(n).PhiKWh / float64(zoo.NumModels())
	}
	for i := range costs {
		costs[i] = 0.8 + 0.3*float64(i)
	}
	scale := meanPhi * float64(servingEdges*w.sz.serveSamples) * regionEmissionRate
	sw.run = cloudRun{
		edges:         servingEdges,
		horizon:       horizon,
		costs:         costs,
		initialCap:    scale * float64(horizon) / 2,
		emissionScale: scale,
		prices:        prices,
		seed:          zooSeed,
		numModels:     zoo.NumModels(),
	}
	return sw, nil
}

// buildNet is the untrained architecture an edge reconstructs locally before
// it installs a shipped checkpoint.
func (sw *servingWorld) buildNet(modelID int) (*nn.Network, error) {
	return models.NewFamilyNetwork(sw.spec, modelID, numeric.SplitRNG(zooSeed, "arch"))
}

// runtime builds edge i's NNRuntime over its local pool.
func (w *edgeServing) runtime(sw *servingWorld, i int, int8 bool) (*deploy.NNRuntime, error) {
	samples := w.sz.serveSamples
	rt, err := deploy.NewNNRuntime(
		sw.buildNet,
		sw.pools[i],
		func(int) int { return samples },
		func(modelID int) float64 { return 0.025 + 0.02*float64(modelID) },
		numeric.SplitRNG(w.seed, fmt.Sprintf("edge-%d", i)),
	)
	if err != nil {
		return nil, err
	}
	rt.Int8 = int8
	return rt, nil
}

// servingObs is what only a traced edge-serving pass observes.
type servingObs struct {
	world     *servingWorld
	links     linkMeter
	tee       *frameTee
	probes    []*edgeProbe
	readWait  atomic.Int64
	agentSpan time.Duration
	handshake time.Duration
	sum       *deploy.Summary
}

// pass implements bench.
func (w *edgeServing) pass() (*passResult, error) {
	pr, _, err := w.play(nil)
	return pr, err
}

// play trains the zoo, starts the cloud and both agents, and serves the
// horizon.
func (w *edgeServing) play(tr *tracer) (*passResult, *servingObs, error) {
	begin := sinceStart()
	sw, err := w.world()
	if err != nil {
		return nil, nil, err
	}
	run := sw.run
	var source deploy.ModelSource = sw.source
	var obs *servingObs
	spans := newSlotSpans(tr)
	if tr != nil {
		source = &sourceProbe{ModelSource: sw.source, tr: tr}
		obs = &servingObs{world: sw, tee: newFrameTee(), probes: make([]*edgeProbe, run.edges)}
	}
	cloud, err := deploy.NewCloud(deploy.CloudConfig{
		Edges:         run.edges,
		Horizon:       run.horizon,
		DownloadCosts: run.costs,
		InitialCap:    run.initialCap,
		EmissionRate:  regionEmissionRate,
		Prices:        run.prices,
		EmissionScale: run.emissionScale,
		Seed:          run.seed,
	}, source)
	if err != nil {
		return nil, nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, err
	}
	defer ln.Close()

	meter := &slotMeter{}
	dialStart := sinceStart()
	var wg sync.WaitGroup
	edgeErrs := make([]error, run.edges)
	for i := 0; i < run.edges; i++ {
		rt, err := w.runtime(sw, i, w.int8)
		if err != nil {
			return nil, nil, err
		}
		probe := &edgeProbe{Runtime: rt}
		if i == 0 {
			probe.meter = meter
		}
		if tr != nil {
			probe.timed = true
			obs.probes[i] = probe
			if i == 0 {
				probe.tr, probe.spans = tr, spans
			}
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			conn, err := net.Dial("tcp", ln.Addr().String())
			if err != nil {
				edgeErrs[i] = err
				return
			}
			defer conn.Close()
			if tr != nil {
				mc := &meteredConn{Conn: conn, meter: &obs.links}
				if i == 0 {
					mc.wait, mc.tee = &obs.readWait, obs.tee
				}
				conn = mc
			}
			edgeErrs[i] = deploy.RunEdge(conn, i, probe)
		}(i)
	}

	sum, err := cloud.Serve(ln)
	end := sinceStart()
	if err != nil {
		ln.Close()
		wg.Wait()
		return nil, nil, fmt.Errorf("cloud.Serve: %w", err)
	}
	wg.Wait()
	spans.finish(run.horizon - 1)
	for i, err := range edgeErrs {
		if err != nil {
			return nil, nil, fmt.Errorf("edge %d: %w", i, err)
		}
	}
	pr, err := deployedResult(begin, end, meter, run.edges, run.horizon, sum)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", w.name(), err)
	}
	if obs != nil {
		obs.handshake = meter.stamps[0] - dialStart
		obs.agentSpan = end - dialStart
		obs.sum = sum
	}
	return pr, obs, nil
}

// localRun serves the same world in process: fresh NNRuntimes behind
// runtimeSteppers, one worker per edge as the cloud runs them.
func (w *edgeServing) localRun(tr *tracer) (*deploy.Summary, error) {
	sw, err := w.world()
	if err != nil {
		return nil, err
	}
	steppers := make([]engine.EdgeStepper, sw.run.edges)
	for i := range steppers {
		rt, err := w.runtime(sw, i, w.int8)
		if err != nil {
			return nil, err
		}
		if err := rt.Welcome(sourceMetas(sw.source)); err != nil {
			return nil, err
		}
		steppers[i] = &runtimeStepper{rt: rt, source: sw.source}
	}
	return sw.run.local(tr, sw.run.edges, steppers)
}

// sourceMetas lists a source's model metadata, as the cloud's Welcome does.
func sourceMetas(source deploy.ModelSource) []deploy.ModelMeta {
	metas := make([]deploy.ModelMeta, source.NumModels())
	for n := range metas {
		metas[n] = source.Meta(n)
	}
	return metas
}

// reference implements bench: shipping checkpoints and reports over TCP
// must not change a bit of what serving the same world in process reports.
func (w *edgeServing) reference(digest string) error {
	sum, err := w.localRun(nil)
	if err != nil {
		return err
	}
	return sameDigest(w.name(), sum, digest)
}

// traced implements bench.
func (w *edgeServing) traced(tr *tracer, ref *passResult) (*passResult, map[string]float64, error) {
	tp, obs, err := w.play(tr)
	if err != nil {
		return nil, nil, err
	}
	slots := float64(w.sz.serveSlots)
	layer := map[string]float64{
		"models.zoo_build_s":    seconds(obs.world.zooBuild),
		"dataset.pool_build_ms": millis(obs.world.poolBuild) / servingEdges,
	}

	controllerMS, err := controllerShare(layer, w.name(), w.sz.serveSlots, ref.digest, w.localRun)
	if err != nil {
		return nil, nil, err
	}
	// Here engine.step is the inference itself, reported as runtime below.
	delete(layer, "engine.step_us_per_slot")

	if err := deployedLayers(layer, deployedInputs{
		slots: slots, edges: servingEdges,
		wallMS:       millis(ref.wall) / slots,
		controllerMS: controllerMS,
		busy:         sumProbes(obs.probes),
		edgeTee:      obs.tee,
		edgeLinks:    &obs.links,
		handshake:    obs.handshake,
		readWait:     time.Duration(obs.readWait.Load()),
		agentSpan:    obs.agentSpan,
		sum:          obs.sum,
	}); err != nil {
		return nil, nil, err
	}

	if err := w.kernelLayers(layer, obs.world, obs.sum.Selections); err != nil {
		return nil, nil, err
	}
	return tp, layer, nil
}
