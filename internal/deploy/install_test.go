package deploy

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"github.com/carbonedge/carbonedge/internal/dataset"
	"github.com/carbonedge/carbonedge/internal/models"
	"github.com/carbonedge/carbonedge/internal/nn"
	"github.com/carbonedge/carbonedge/internal/numeric"
)

// The INT8 install contract: an install that moves no quantized weight and
// no scale keeps the resident engine — no calibration pass, no op-table
// rebuild — and every install, skipped or not, leaves exactly the engine a
// fresh runtime compiles from the same bytes.

// installRuntime is an Int8 runtime over spec's family with nothing loaded.
func installRuntime(t *testing.T, spec dataset.Spec) *NNRuntime {
	t.Helper()
	rng := numeric.SplitRNG(11, "install-runtime")
	dist, err := dataset.NewDistribution(spec, rng)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := NewNNRuntime(
		func(id int) (*nn.Network, error) {
			return models.NewFamilyNetwork(spec, id, numeric.SplitRNG(11, "install-arch"))
		},
		dist.Pool(24, rng), func(int) int { return 8 }, func(int) float64 { return 0.03 }, rng)
	if err != nil {
		t.Fatal(err)
	}
	rt.Int8 = true
	if err := rt.Welcome(make([]ModelMeta, models.FamilySize())); err != nil {
		t.Fatal(err)
	}
	return rt
}

// installCheckpoint serializes model arm of spec's family at the stream's
// initialisation with every bias drawn non-zero (a fresh layer's are all
// zero, which quantizes to the zero scale ApplyTo skips), after mutate.
func installCheckpoint(t *testing.T, spec dataset.Spec, arm int, stream string, mutate func(params []*nn.Tensor)) []byte {
	t.Helper()
	rng := numeric.SplitRNG(11, stream)
	net, err := models.NewFamilyNetwork(spec, arm, rng)
	if err != nil {
		t.Fatal(err)
	}
	var params []*nn.Tensor
	for _, l := range net.Layers {
		params = append(params, l.Params()...)
	}
	for i := 1; i < len(params); i += 2 {
		for j := range params[i].Data {
			params[i].Data[j] = 0.2 * rng.NormFloat64()
		}
	}
	if mutate != nil {
		mutate(params)
	}
	var buf bytes.Buffer
	if err := nn.WriteWeights(&buf, net); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// engineLogits runs the resident INT8 engine of model arm over the head of
// the runtime's pool.
func engineLogits(t *testing.T, rt *NNRuntime, arm int) []float64 {
	t.Helper()
	m := rt.loaded[arm]
	if m == nil || m.qn == nil {
		t.Fatalf("model %d has no resident INT8 engine", arm)
	}
	out := m.qn.ForwardBatch(nn.StackSamples(rt.Pool, 16), nn.NewArena())
	return append([]float64(nil), out.Data...)
}

// freshLogits is engineLogits of a new runtime that has installed only ckpt,
// calibrating on calib when it is not nil.
func freshLogits(t *testing.T, spec dataset.Spec, arm int, ckpt []byte, calib *nn.Tensor) []float64 {
	t.Helper()
	rt := installRuntime(t, spec)
	if calib != nil {
		rt.calib = calib
	}
	if err := rt.LoadModel(arm, ckpt); err != nil {
		t.Fatal(err)
	}
	return engineLogits(t, rt, arm)
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// otherCalib is a calibration batch no install of rt has seen: its own,
// scaled, so every activation scale a pass over it records is different.
func otherCalib(rt *NNRuntime) *nn.Tensor {
	c := nn.StackSamples(rt.Pool, nn.CalibBatch)
	for i := range c.Data {
		c.Data[i] *= 3
	}
	return c
}

func TestInt8InstallContract(t *testing.T) {
	const arm = 2 // lenet-s: two convolutions and three Dense layers
	spec := dataset.MNISTLike
	base := installCheckpoint(t, spec, arm, "install-a", nil)
	wantBase := freshLogits(t, spec, arm, base, nil)

	// resident returns a runtime holding base, then switched to a calibration
	// batch under which any recompile gives different logits.
	resident := func(t *testing.T) *NNRuntime {
		rt := installRuntime(t, spec)
		if err := rt.LoadModel(arm, base); err != nil {
			t.Fatal(err)
		}
		rt.calib = otherCalib(rt)
		return rt
	}
	recalibrated := freshLogits(t, spec, arm, base, otherCalib(installRuntime(t, spec)))
	if sameBits(recalibrated, wantBase) {
		t.Fatal("the swapped calibration batch does not move the logits: the tests below could not see a recompile")
	}

	t.Run("IdenticalReinstallKeepsTheEngine", func(t *testing.T) {
		rt := resident(t)
		if err := rt.LoadModel(arm, base); err != nil {
			t.Fatal(err)
		}
		if got := engineLogits(t, rt, arm); !sameBits(got, wantBase) {
			t.Error("re-installing the resident checkpoint changed the engine: it recalibrated (on the swapped batch) or lost a weight")
		}
		// The control: the same re-install with the engine marked stale does
		// recompile, on the batch the runtime holds now.
		rt.loaded[arm].compiled = false
		if err := rt.LoadModel(arm, base); err != nil {
			t.Fatal(err)
		}
		if got := engineLogits(t, rt, arm); !sameBits(got, recalibrated) {
			t.Error("an install over a stale engine did not recompile on the runtime's calibration batch")
		}
	})

	t.Run("OneMovedInt8Recompiles", func(t *testing.T) {
		// The first convolution's second weight, pushed two quantization
		// steps: one int8 differs, no scale does.
		moved := installCheckpoint(t, spec, arm, "install-a", func(p []*nn.Tensor) {
			w := p[0].Data
			maxAbs := 0.0
			for _, v := range w {
				maxAbs = math.Max(maxAbs, math.Abs(v))
			}
			j := 1
			if math.Abs(w[j]) > 0.5*maxAbs {
				j = 2
			}
			w[j] += 2 * maxAbs / 127
		})
		rt := resident(t)
		stale := engineLogits(t, rt, arm)
		if err := rt.LoadModel(arm, moved); err != nil {
			t.Fatal(err)
		}
		got := engineLogits(t, rt, arm)
		if want := freshLogits(t, spec, arm, moved, rt.calib); !sameBits(got, want) {
			t.Error("a checkpoint with one moved int8 did not leave a fresh compile of itself")
		}
		if sameBits(got, stale) {
			t.Error("a checkpoint with one moved int8 left the stale engine serving")
		}
	})

	t.Run("SubStepPerturbationSkipsAndMatchesFresh", func(t *testing.T) {
		// The head bias, nudged by a hundredth of its quantization step at an
		// element that is neither the tensor's maximum nor near a rounding
		// boundary: every int8 and scale stays, the float bias ReadWeights
		// writes does not. The compiled head reads its bias from the resident
		// network, so the skip must still run ApplyTo over it.
		nudged := installCheckpoint(t, spec, arm, "install-a", func(p []*nn.Tensor) {
			b := p[len(p)-1].Data
			maxAbs := 0.0
			for _, v := range b {
				maxAbs = math.Max(maxAbs, math.Abs(v))
			}
			step := maxAbs / 127
			for j, v := range b {
				if frac := math.Abs(v/step - math.Round(v/step)); math.Abs(v) < 0.9*maxAbs && frac < 0.3 {
					b[j] += 0.01 * step
					return
				}
			}
			t.Fatal("no head bias element away from a rounding boundary")
		})
		if bytes.Equal(nudged, base) {
			t.Fatal("the perturbation did not survive float32 serialization")
		}
		rt := resident(t)
		if err := rt.LoadModel(arm, nudged); err != nil {
			t.Fatal(err)
		}
		got := engineLogits(t, rt, arm)
		if !sameBits(got, wantBase) {
			t.Error("a sub-step perturbation changed the logits: the install recalibrated, or skipped ApplyTo and serves the unquantized head bias")
		}
		if want := freshLogits(t, spec, arm, nudged, nil); !sameBits(got, want) {
			t.Error("a skipped install differs from a fresh compile of the same checkpoint")
		}
	})

	t.Run("TruncatedInstallEvictsAndNextRecompiles", func(t *testing.T) {
		rt := resident(t)
		if err := rt.LoadModel(arm, base[:len(base)-len(base)/3]); err == nil {
			t.Fatal("a checkpoint cut mid-tensor installed")
		}
		if _, err := rt.RunSlot(0, arm); err == nil || !strings.Contains(err.Error(), "never downloaded") {
			t.Errorf("RunSlot after the failed install: err = %v, want never downloaded", err)
		}
		// The same bytes the evicted engine was compiled from: nothing of it
		// may survive to be called unchanged.
		if err := rt.LoadModel(arm, base); err != nil {
			t.Fatal(err)
		}
		if got := engineLogits(t, rt, arm); !sameBits(got, recalibrated) {
			t.Error("the install after an eviction did not calibrate and compile from scratch")
		}
	})
}

// TestInt8FirstInstallMatchesDirectCompile holds a first install of every arm
// of both families to the engine the nn package compiles from the same
// checkpoint and calibration batch by hand.
func TestInt8FirstInstallMatchesDirectCompile(t *testing.T) {
	for _, spec := range []dataset.Spec{dataset.MNISTLike, dataset.CIFARLike} {
		for arm := 0; arm < models.FamilySize(); arm++ {
			ckpt := installCheckpoint(t, spec, arm, "install-first", nil)
			rt := installRuntime(t, spec)
			if err := rt.LoadModel(arm, ckpt); err != nil {
				t.Fatal(err)
			}
			net, err := rt.BuildNet(arm)
			if err != nil {
				t.Fatal(err)
			}
			if err := nn.ReadWeights(bytes.NewReader(ckpt), net); err != nil {
				t.Fatal(err)
			}
			qw := nn.QuantizeWeights(net)
			if err := qw.ApplyTo(net); err != nil {
				t.Fatal(err)
			}
			qn, err := nn.NewQuantizedNetwork(net, qw, nn.StackSamples(rt.Pool, nn.CalibBatch))
			if err != nil {
				t.Fatal(err)
			}
			want := qn.ForwardBatch(nn.StackSamples(rt.Pool, 16), nn.NewArena()).Data
			if got := engineLogits(t, rt, arm); !sameBits(got, want) {
				t.Errorf("%s arm %d: a first install's engine differs from a direct compile", spec.Name, arm)
			}
		}
	}
}
