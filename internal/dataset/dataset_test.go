package dataset

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/carbonedge/carbonedge/internal/nn"
	"github.com/carbonedge/carbonedge/internal/numeric"
)

// generate fixes D from rng and draws train/test pools over it with the same
// stream, the way the trained zoo does.
func generate(t *testing.T, spec Spec, trainN, testN int, rng *rand.Rand) *Dataset {
	t.Helper()
	dist, err := NewDistribution(spec, rng)
	if err != nil {
		t.Fatal(err)
	}
	d, err := GenerateFrom(dist, trainN, testN, rng)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestGenerateShapesAndLabels(t *testing.T) {
	for _, spec := range []Spec{MNISTLike, CIFARLike} {
		t.Run(spec.Name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(1))
			d := generate(t, spec, 50, 30, rng)
			if len(d.Train) != 50 || len(d.Test) != 30 {
				t.Fatalf("pool sizes = %d/%d", len(d.Train), len(d.Test))
			}
			for _, s := range append(append([]nn.Sample{}, d.Train...), d.Test...) {
				if s.Label < 0 || s.Label >= spec.Classes {
					t.Fatalf("label %d out of range", s.Label)
				}
				if s.X.Shape[0] != spec.Channels || s.X.Shape[1] != spec.Height || s.X.Shape[2] != spec.Width {
					t.Fatalf("sample shape %v", s.X.Shape)
				}
				for _, v := range s.X.Data {
					if math.IsNaN(v) || math.IsInf(v, 0) {
						t.Fatal("non-finite pixel")
					}
				}
			}
		})
	}
}

func TestGenerateErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	dist, err := NewDistribution(MNISTLike, rng)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := GenerateFrom(dist, 0, 10, rng); err == nil {
		t.Error("expected error for zero train pool")
	}
	if _, err := GenerateFrom(dist, 10, 0, rng); err == nil {
		t.Error("expected error for zero test pool")
	}
	bad := MNISTLike
	bad.Classes = 1
	if _, err := NewDistribution(bad, rng); err == nil {
		t.Error("expected error for single class")
	}
}

func TestGenerateDeterministic(t *testing.T) {
	d1 := generate(t, MNISTLike, 20, 20, rand.New(rand.NewSource(7)))
	d2 := generate(t, MNISTLike, 20, 20, rand.New(rand.NewSource(7)))
	for i := range d1.Train {
		if d1.Train[i].Label != d2.Train[i].Label {
			t.Fatal("labels differ across identical seeds")
		}
		for j := range d1.Train[i].X.Data {
			if d1.Train[i].X.Data[j] != d2.Train[i].X.Data[j] {
				t.Fatal("pixels differ across identical seeds")
			}
		}
	}
}

func TestClassesAreSeparable(t *testing.T) {
	// A small MLP must learn MNIST-like far above chance — otherwise the
	// dataset carries no signal and model-quality differences vanish.
	rng := rand.New(rand.NewSource(3))
	d := generate(t, MNISTLike, 600, 300, rng)
	net := nn.BuildMLP("probe", []int{1, 28, 28}, 32, 16, MNISTLike.Classes, rng)
	if _, err := nn.TrainShuffled(net, d.Train, nn.TrainConfig{Epochs: 4, BatchSize: 16, LR: 0.05}, rng.Shuffle); err != nil {
		t.Fatal(err)
	}
	_, _, _, acc := nn.ScorePool(net.ForwardBatch, d.Test)
	if acc < 0.5 {
		t.Errorf("probe accuracy = %v, want >= 0.5 (chance is 0.1)", acc)
	}
}

func TestCIFARLikeHarderThanMNISTLike(t *testing.T) {
	// Same-capacity probes must find CIFAR-like harder; the paper's accuracy
	// gap between Figs. 12 and 13 depends on this.
	train := func(spec Spec, seed int64) float64 {
		rng := rand.New(rand.NewSource(seed))
		d := generate(t, spec, 500, 300, rng)
		in := []int{spec.Channels, spec.Height, spec.Width}
		net := nn.BuildMLP("probe", in, 32, 16, spec.Classes, rng)
		if _, err := nn.TrainShuffled(net, d.Train, nn.TrainConfig{Epochs: 3, BatchSize: 16, LR: 0.05}, rng.Shuffle); err != nil {
			t.Fatal(err)
		}
		_, _, _, acc := nn.ScorePool(net.ForwardBatch, d.Test)
		return acc
	}
	mnistAcc := train(MNISTLike, 4)
	cifarAcc := train(CIFARLike, 4)
	if cifarAcc >= mnistAcc {
		t.Errorf("cifar-like acc %v >= mnist-like acc %v", cifarAcc, mnistAcc)
	}
}

// Property: every generated sample has label matching a template index and
// bounded pixel magnitudes (template peak 1 + noise tails).
func TestSamplePixelBoundsProperty(t *testing.T) {
	dist, err := NewDistribution(MNISTLike, rand.New(rand.NewSource(8)))
	if err != nil {
		t.Fatal(err)
	}
	prop := func(seed int64) bool {
		s := dist.Sample(numeric.SplitRNG(seed, "prop"))
		if s.Label < 0 || s.Label >= MNISTLike.Classes {
			return false
		}
		for _, v := range s.X.Data {
			if math.Abs(v) > 1+6*MNISTLike.Noise {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
