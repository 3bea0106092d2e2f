package main

import (
	"bytes"
	"fmt"
	"time"

	"github.com/carbonedge/carbonedge/internal/nn"
)

// forwardBatch is the batch size of the isolated forward timings: the chunk
// NNRuntime.RunSlot serves a slot in.
const forwardBatch = 64

// kernelLayers measures the nn and model-install layers in isolation, arm by
// arm, and stores each as the mean over arms weighted by how often the traced
// run served that arm — so the numbers explain this workload's slot, and move
// only when a kernel the workload actually runs moves.
func (w *edgeServing) kernelLayers(layer map[string]float64, sw *servingWorld, selections [][]int) error {
	arms := sw.zoo.NumModels()
	share := make([]float64, arms)
	total := 0
	for _, row := range selections {
		for n, c := range row {
			share[n] += float64(c)
			total += c
		}
	}
	if total == 0 {
		return fmt.Errorf("kernel layers: the run selected no arm")
	}
	for n := range share {
		share[n] /= float64(total)
	}
	add := func(name string, arm int, v float64) { layer[name] += share[arm] * v }

	pool := sw.pools[0]
	b := min(forwardBatch, len(pool))
	sampleLen := pool[0].X.Len()
	arena := nn.NewArena()
	input := nn.NewTensor(append([]int{b}, pool[0].X.Shape...)...)
	for j := 0; j < b; j++ {
		copy(input.Data[j*sampleLen:(j+1)*sampleLen], pool[j].X.Data)
	}
	reps := w.sz.forwardReps
	perSample := func(d time.Duration) float64 { return micros(d) / float64(reps*b) }

	for arm := 0; arm < arms; arm++ {
		net := sw.zoo.Network(arm)

		// Whole float forward pass, then the same pass layer by layer.
		t0 := sinceStart()
		for r := 0; r < reps; r++ {
			arena.Reset()
			net.ForwardBatch(input, arena)
		}
		add("nn.f32.forward_us_per_sample", arm, perSample(sinceStart()-t0))
		var byKind [4]time.Duration // conv, dense, pool, relu
		for r := 0; r < reps; r++ {
			arena.Reset()
			out := input
			for _, l := range net.Layers {
				kind := -1
				switch l.(type) {
				case *nn.Conv2D:
					kind = 0
				case *nn.Dense:
					kind = 1
				case *nn.MaxPool2D:
					kind = 2
				case *nn.ReLU:
					kind = 3
				}
				s := sinceStart()
				out = l.ForwardBatch(out, arena)
				if kind >= 0 {
					byKind[kind] += sinceStart() - s
				}
			}
		}
		for kind, name := range []string{"conv", "dense", "pool", "relu"} {
			add("nn.f32."+name+"_us_per_sample", arm, perSample(byKind[kind]))
		}

		// Checkpoint install: read the shipped weights, then quantize and
		// compile the integer engine.
		ckpt, err := sw.source.Checkpoint(arm)
		if err != nil {
			return err
		}
		fresh, err := sw.buildNet(arm)
		if err != nil {
			return err
		}
		t0 = sinceStart()
		if err := nn.ReadWeights(bytes.NewReader(ckpt), fresh); err != nil {
			return err
		}
		add("nn.readweights_ms", arm, millis(sinceStart()-t0))
		t0 = sinceStart()
		qw := nn.QuantizeWeights(fresh)
		if err := qw.ApplyTo(fresh); err != nil {
			return err
		}
		qn, err := nn.NewQuantizedNetwork(fresh, qw, input)
		if err != nil {
			return err
		}
		add("nn.quantize_compile_ms", arm, millis(sinceStart()-t0))

		t0 = sinceStart()
		for r := 0; r < reps; r++ {
			arena.Reset()
			qn.ForwardBatch(input, arena)
		}
		add("nn.q8.forward_us_per_sample", arm, perSample(sinceStart()-t0))

		// The edge runtime around the kernels, float and INT8: install, then
		// steady-state slots.
		for _, mode := range []struct {
			int8          bool
			load, runslot string
		}{
			{false, "deploy.loadmodel_ms", "nn.f32.runslot_us_per_sample"},
			{true, "deploy.loadmodel_q8_ms", "nn.q8.runslot_us_per_sample"},
		} {
			load, slot, err := w.runtimeCost(sw, arm, ckpt, mode.int8)
			if err != nil {
				return err
			}
			add(mode.load, arm, millis(load))
			add(mode.runslot, arm, micros(slot)/float64(w.sz.serveSamples))
		}
	}
	if q8 := layer["nn.q8.runslot_us_per_sample"]; q8 > 0 {
		layer["nn.q8_speedup_x"] = layer["nn.f32.runslot_us_per_sample"] / q8
	}
	return nil
}

// runtimeCost installs one checkpoint into a fresh NNRuntime and serves
// steady-state slots with it: the LoadModel time and the mean RunSlot time.
func (w *edgeServing) runtimeCost(sw *servingWorld, arm int, ckpt []byte, int8 bool) (load, slot time.Duration, err error) {
	rt, err := w.runtime(sw, 0, int8)
	if err != nil {
		return 0, 0, err
	}
	if err := rt.Welcome(sourceMetas(sw.source)); err != nil {
		return 0, 0, err
	}
	t0 := sinceStart()
	if err := rt.LoadModel(arm, ckpt); err != nil {
		return 0, 0, err
	}
	load = sinceStart() - t0
	if _, err := rt.RunSlot(0, arm); err != nil { // grows the arena once
		return 0, 0, err
	}
	reps := max(1, w.sz.forwardReps/4)
	t0 = sinceStart()
	for r := 0; r < reps; r++ {
		if _, err := rt.RunSlot(r+1, arm); err != nil {
			return 0, 0, err
		}
	}
	return load, (sinceStart() - t0) / time.Duration(reps), nil
}
