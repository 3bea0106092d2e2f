package main

import (
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"github.com/carbonedge/carbonedge/internal/deploy"
	"github.com/carbonedge/carbonedge/internal/energy"
	"github.com/carbonedge/carbonedge/internal/engine"
	"github.com/carbonedge/carbonedge/internal/market"
	"github.com/carbonedge/carbonedge/internal/models"
	"github.com/carbonedge/carbonedge/internal/numeric"
	"github.com/carbonedge/carbonedge/internal/workload"
)

// regionRegions is the number of regional coordinators: one loopback TCP
// root link each, and the harness opens no more real sockets than the host
// has cores.
const regionRegions = 2

// regionFleet is the small-message deployed workload: root + two regions
// over loopback TCP, 2 000 edges on net.Pipe doing the simulator's per-edge
// work, so the wire envelope, framing, validation and goroutine wake-ups own
// the run.
type regionFleet struct {
	sz   sizes
	seed int64
}

// regionWorld is the input of one region-fleet pass, all drawn from the seed.
type regionWorld struct {
	seed     int64
	zoo      *models.SurrogateZoo
	metas    []deploy.ModelMeta
	workload [][]int     // [slot][edge] samples to serve
	comp     [][]float64 // [edge][model] computation cost v_{i,n}
	prices   *market.Prices
	costs    []float64 // download cost u_i
	// emissionScale is the expected emission of one slot, the hint the
	// controller scales Algorithm 2's step sizes with; the cap covers half
	// the expected emission of the run.
	emissionScale, initialCap float64
}

const regionEmissionRate = 500

func newRegionWorld(seed int64, edges, horizon int) (*regionWorld, error) {
	zoo, err := models.DefaultSurrogateZoo(numeric.SplitRNG(seed, "zoo"))
	if err != nil {
		return nil, fmt.Errorf("surrogate zoo: %w", err)
	}
	gen, err := workload.NewGenerator(workload.Config{Edges: edges, MeanPeak: 4, Spread: 5},
		numeric.SplitRNG(seed, "workload"))
	if err != nil {
		return nil, fmt.Errorf("workload: %w", err)
	}
	prices, err := market.GeneratePrices(market.DefaultPriceConfig(), horizon, numeric.SplitRNG(seed, "prices"))
	if err != nil {
		return nil, fmt.Errorf("prices: %w", err)
	}
	w := &regionWorld{
		seed:     seed,
		zoo:      zoo,
		workload: gen.Series(horizon),
		comp:     make([][]float64, edges),
		prices:   prices,
		costs:    make([]float64, edges),
	}
	meanPhi := 0.0
	for n := 0; n < zoo.NumModels(); n++ {
		info := zoo.Info(n)
		w.metas = append(w.metas, deploy.ModelMeta{Name: info.Name, PhiKWh: info.PhiKWh, SizeBytes: info.SizeBytes})
		meanPhi += info.PhiKWh / float64(zoo.NumModels())
	}
	speed := numeric.SplitRNG(seed, "edge-speed")
	for i := range w.comp {
		w.costs[i] = 0.4 + 0.2*float64(i%16)
		s := 0.8 + 0.45*speed.Float64()
		w.comp[i] = make([]float64, zoo.NumModels())
		for n := range w.comp[i] {
			w.comp[i][n] = zoo.Info(n).BaseLatencySec * s
		}
	}
	samples := 0
	for _, row := range w.workload {
		for _, m := range row {
			samples += m
		}
	}
	w.emissionScale = meanPhi * float64(samples) / float64(horizon) * regionEmissionRate
	w.initialCap = w.emissionScale * float64(horizon) / 2
	return w, nil
}

// NumModels, Meta and Checkpoint make the world the regions' ModelSource;
// surrogate models ship no checkpoint, as the ModelSource contract allows.
func (w *regionWorld) NumModels() int                 { return len(w.metas) }
func (w *regionWorld) Meta(n int) deploy.ModelMeta    { return w.metas[n] }
func (w *regionWorld) Checkpoint(int) ([]byte, error) { return nil, nil }

// surrogateEdge serves one edge's slots the way sim's stepper does: draw the
// slot's M stream indices, look the batch loss up in the surrogate zoo. The
// deployed agent and the in-process reference stepper share it, each with its
// own instance and identical RNG streams.
type surrogateEdge struct {
	w       *regionWorld
	edge    int
	stream  *rand.Rand
	lossRNG *rand.Rand
	batch   []int
}

func newSurrogateEdge(w *regionWorld, edge int) *surrogateEdge {
	return &surrogateEdge{
		w:       w,
		edge:    edge,
		stream:  numeric.SplitRNG(w.seed, fmt.Sprintf("stream-%d", edge)),
		lossRNG: numeric.SplitRNG(w.seed, fmt.Sprintf("loss-%d", edge)),
	}
}

func (e *surrogateEdge) Welcome([]deploy.ModelMeta) error { return nil }
func (e *surrogateEdge) LoadModel(int, []byte) error      { return nil }

// RunSlot implements deploy.Runtime.
func (e *surrogateEdge) RunSlot(slot, modelID int) (deploy.SlotReport, error) {
	m := e.w.workload[slot][e.edge]
	if cap(e.batch) < m {
		e.batch = make([]int, m)
	}
	e.batch = e.batch[:m]
	pool := e.w.zoo.PoolSize()
	for j := range e.batch {
		e.batch[j] = e.stream.Intn(pool)
	}
	avgLoss, correct := e.w.zoo.BatchLoss(modelID, e.batch, e.lossRNG)
	return deploy.SlotReport{
		AvgLoss:     avgLoss,
		Correct:     correct,
		Samples:     m,
		EnergyKWh:   energy.InferenceEnergy(e.w.metas[modelID].PhiKWh, m),
		CompSeconds: e.w.comp[e.edge][modelID],
	}, nil
}

// regionObs is what only a traced region-fleet pass observes.
type regionObs struct {
	edgeLinks, rootLinks linkMeter
	edgeTee, rootTee     *frameTee
	probes               []*edgeProbe
	readWait             atomic.Int64 // edge 0 blocked in Read, ns
	arrivals             [regionRegions][]time.Duration
	handshake, agentSpan time.Duration
	sum                  *deploy.Summary
}

func (w *regionFleet) run() (cloudRun, *regionWorld, error) {
	world, err := newRegionWorld(w.seed, w.sz.regionEdges, w.sz.regionSlots)
	if err != nil {
		return cloudRun{}, nil, err
	}
	return cloudRun{
		edges:         w.sz.regionEdges,
		horizon:       w.sz.regionSlots,
		costs:         world.costs,
		initialCap:    world.initialCap,
		emissionScale: world.emissionScale,
		prices:        world.prices,
		seed:          w.seed,
		numModels:     world.NumModels(),
	}, world, nil
}

// pass implements bench.
func (w *regionFleet) pass() (*passResult, error) {
	pr, _, err := w.play(nil)
	return pr, err
}

// play builds the world, the root, two regions and the fleet, and serves the
// horizon. With a tracer, every link is metered, every Runtime timed, and
// edge 0 and the regions' OnSlot hooks record spans.
func (w *regionFleet) play(tr *tracer) (*passResult, *regionObs, error) {
	begin := sinceStart()
	run, world, err := w.run()
	if err != nil {
		return nil, nil, err
	}
	root, err := deploy.NewRoot(deploy.RootConfig{
		Edges:         run.edges,
		Regions:       regionRegions,
		Horizon:       run.horizon,
		DownloadCosts: run.costs,
		InitialCap:    run.initialCap,
		EmissionRate:  regionEmissionRate,
		Prices:        run.prices,
		EmissionScale: run.emissionScale,
		Seed:          run.seed,
		NumModels:     run.numModels,
	})
	if err != nil {
		return nil, nil, err
	}
	rootLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, err
	}
	defer rootLn.Close()

	var obs *regionObs
	spans := newSlotSpans(tr)
	if tr != nil {
		obs = &regionObs{edgeTee: newFrameTee(), rootTee: newFrameTee(), probes: make([]*edgeProbe, run.edges)}
	}
	meter := &slotMeter{}
	dialStart := sinceStart()

	var wg sync.WaitGroup
	regionErrs := make([]error, regionRegions)
	edgeErrs := make([]error, run.edges)
	for r, rg := range engine.PartitionEdges(run.edges, regionRegions) {
		ln := newChanListener(rg.Count)
		for i := rg.Start; i < rg.Start+rg.Count; i++ {
			regionSide, edgeSide := net.Pipe()
			ln.conns <- regionSide
			probe := &edgeProbe{Runtime: newSurrogateEdge(world, i)}
			var conn net.Conn = edgeSide
			if i == 0 {
				probe.meter = meter
			}
			if tr != nil {
				probe.timed = true
				obs.probes[i] = probe
				mc := &meteredConn{Conn: edgeSide, meter: &obs.edgeLinks}
				if i == 0 {
					probe.tr, probe.spans = tr, spans
					mc.wait, mc.tee = &obs.readWait, obs.edgeTee
				}
				conn = mc
			}
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				defer conn.Close()
				edgeErrs[i] = deploy.RunEdge(conn, i, probe)
			}(i)
		}
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			defer ln.Close()
			upstream, err := net.Dial("tcp", rootLn.Addr().String())
			if err != nil {
				regionErrs[r] = err
				return
			}
			defer upstream.Close()
			cfg := deploy.RegionConfig{RegionID: r, Source: world, Seed: w.seed + int64(r)}
			if tr != nil {
				mc := &meteredConn{Conn: upstream, meter: &obs.rootLinks}
				if r == 0 {
					mc.tee = obs.rootTee
				}
				upstream = mc
				cfg.OnSlot = func(slot int) {
					obs.arrivals[r] = append(obs.arrivals[r], sinceStart())
					sp := tr.begin("region.assign_arrival", spans.of(slot), slot)
					tr.end(sp)
				}
			}
			regionErrs[r] = deploy.RunRegion(upstream, ln, cfg)
		}(r)
	}

	sum, err := root.Serve(rootLn)
	end := sinceStart()
	if err != nil {
		// The agents unwind on their own once the root has closed its links.
		rootLn.Close()
		wg.Wait()
		return nil, nil, fmt.Errorf("root.Serve: %w", err)
	}
	wg.Wait()
	spans.finish(run.horizon - 1)
	for r, err := range regionErrs {
		if err != nil {
			return nil, nil, fmt.Errorf("region %d: %w", r, err)
		}
	}
	for i, err := range edgeErrs {
		if err != nil {
			return nil, nil, fmt.Errorf("edge %d: %w", i, err)
		}
	}
	pr, err := deployedResult(begin, end, meter, run.edges, run.horizon, sum)
	if err != nil {
		return nil, nil, fmt.Errorf("region-fleet: %w", err)
	}
	if obs != nil {
		obs.handshake = meter.stamps[0] - dialStart
		obs.agentSpan = end - dialStart
		obs.sum = sum
	}
	return pr, obs, nil
}

// localRun plays the same world in process, one surrogateEdge per edge.
func (w *regionFleet) localRun(tr *tracer) (*deploy.Summary, error) {
	run, world, err := w.run()
	if err != nil {
		return nil, err
	}
	steppers := make([]engine.EdgeStepper, run.edges)
	for i := range steppers {
		steppers[i] = &runtimeStepper{rt: newSurrogateEdge(world, i), source: world}
	}
	return run.local(tr, 1, steppers)
}

// reference implements bench: the deployed Summary must equal the
// in-process run of the same world.
func (w *regionFleet) reference(digest string) error {
	sum, err := w.localRun(nil)
	if err != nil {
		return err
	}
	return sameDigest("region-fleet", sum, digest)
}

// traced implements bench.
func (w *regionFleet) traced(tr *tracer, ref *passResult) (*passResult, map[string]float64, error) {
	tp, obs, err := w.play(tr)
	if err != nil {
		return nil, nil, err
	}
	slots := float64(w.sz.regionSlots)
	edges := float64(w.sz.regionEdges)
	layer := map[string]float64{}

	controllerMS, err := controllerShare(layer, "region-fleet", w.sz.regionSlots, ref.digest, w.localRun)
	if err != nil {
		return nil, nil, err
	}

	if err := deployedLayers(layer, deployedInputs{
		slots: slots, edges: edges, links: regionRegions,
		wallMS:       millis(ref.wall) / slots,
		controllerMS: controllerMS,
		busy:         sumProbes(obs.probes),
		edgeTee:      obs.edgeTee, rootTee: obs.rootTee,
		edgeLinks: &obs.edgeLinks, rootLinks: &obs.rootLinks,
		shardStart: 0, shardCount: engine.PartitionEdges(w.sz.regionEdges, regionRegions)[0].Count,
		handshake: obs.handshake, readWait: time.Duration(obs.readWait.Load()), agentSpan: obs.agentSpan,
		sum: obs.sum,
	}); err != nil {
		return nil, nil, err
	}

	// Region skew: how far apart the two regions saw each slot's assign.
	n := min(len(obs.arrivals[0]), len(obs.arrivals[1]))
	skew := make([]float64, n)
	for t := 0; t < n; t++ {
		d := obs.arrivals[0][t] - obs.arrivals[1][t]
		if d < 0 {
			d = -d
		}
		skew[t] = millis(d)
	}
	layer["deploy.region_skew_ms_p50"] = newSample(skew).median()
	return tp, layer, nil
}
