package models

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"github.com/carbonedge/carbonedge/internal/dataset"
	"github.com/carbonedge/carbonedge/internal/energy"
	"github.com/carbonedge/carbonedge/internal/nn"
)

// smallZooConfig keeps trained-zoo tests fast.
func smallZooConfig(spec dataset.Spec) TrainedZooConfig {
	return TrainedZooConfig{
		Dataset:   spec,
		TrainN:    300,
		TestN:     300,
		Epochs:    1,
		LR:        0.05,
		BatchSize: 16,
	}
}

func TestScaleToBand(t *testing.T) {
	if got := scaleToBand(5, 0, 10, 100, 200); got != 150 {
		t.Errorf("midpoint = %v", got)
	}
	if got := scaleToBand(0, 0, 10, 100, 200); got != 100 {
		t.Errorf("low end = %v", got)
	}
	if got := scaleToBand(10, 0, 10, 100, 200); got != 200 {
		t.Errorf("high end = %v", got)
	}
	// Degenerate raw range maps to the band midpoint.
	if got := scaleToBand(5, 7, 7, 100, 200); got != 150 {
		t.Errorf("degenerate = %v", got)
	}
}

func TestTrainedZooMNIST(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	z, err := NewTrainedZoo(smallZooConfig(dataset.MNISTLike), rng)
	if err != nil {
		t.Fatalf("NewTrainedZoo: %v", err)
	}
	if z.NumModels() != 6 {
		t.Fatalf("NumModels = %d, want 6", z.NumModels())
	}
	if z.PoolSize() != 300 {
		t.Fatalf("PoolSize = %d", z.PoolSize())
	}
	names := make(map[string]bool)
	for n := 0; n < z.NumModels(); n++ {
		info := z.Info(n)
		if names[info.Name] {
			t.Errorf("duplicate model name %q", info.Name)
		}
		names[info.Name] = true
		if info.SizeBytes <= 0 {
			t.Errorf("%s size = %d", info.Name, info.SizeBytes)
		}
		if info.PhiKWh < energy.MinInferEnergy-1e-15 || info.PhiKWh > energy.MaxInferEnergy+1e-15 {
			t.Errorf("%s phi = %v outside paper band", info.Name, info.PhiKWh)
		}
		if info.BaseLatencySec < MinLatencySec-1e-12 || info.BaseLatencySec > MaxLatencySec+1e-12 {
			t.Errorf("%s latency = %v outside paper band", info.Name, info.BaseLatencySec)
		}
		ml := z.MeanLoss(n)
		if ml < 0 || ml >= 2 {
			t.Errorf("%s mean loss = %v outside [0,2)", info.Name, ml)
		}
		acc := z.MeanAccuracy(n)
		if acc < 0 || acc > 1 {
			t.Errorf("%s accuracy = %v", info.Name, acc)
		}
	}
	// Trained models must beat chance on the easy dataset (10 classes).
	bestAcc := 0.0
	for n := 0; n < z.NumModels(); n++ {
		bestAcc = math.Max(bestAcc, z.MeanAccuracy(n))
	}
	if bestAcc < 0.3 {
		t.Errorf("best accuracy = %v, want above chance", bestAcc)
	}
}

func TestTrainedZooBatchLossMatchesCache(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	z, err := NewTrainedZoo(smallZooConfig(dataset.MNISTLike), rng)
	if err != nil {
		t.Fatal(err)
	}
	// Full-pool batch must reproduce the posterior means exactly.
	all := make([]int, z.PoolSize())
	for i := range all {
		all[i] = i
	}
	for n := 0; n < z.NumModels(); n++ {
		avg, correct := z.BatchLoss(n, all, nil)
		if math.Abs(avg-z.MeanLoss(n)) > 1e-12 {
			t.Errorf("model %d: batch avg %v != mean loss %v", n, avg, z.MeanLoss(n))
		}
		wantAcc := z.MeanAccuracy(n)
		if math.Abs(float64(correct)/float64(len(all))-wantAcc) > 1e-12 {
			t.Errorf("model %d: batch accuracy mismatch", n)
		}
	}
	// Empty batch is safe.
	if avg, c := z.BatchLoss(0, nil, nil); avg != 0 || c != 0 {
		t.Errorf("empty batch = %v, %d", avg, c)
	}
}

func TestTrainedZooErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	cfg := smallZooConfig(dataset.MNISTLike)
	cfg.Epochs = 0
	if _, err := NewTrainedZoo(cfg, rng); err == nil {
		t.Error("expected error for zero epochs")
	}
	cfg = smallZooConfig(dataset.MNISTLike)
	cfg.TrainN = 0
	if _, err := NewTrainedZoo(cfg, rng); err == nil {
		t.Error("expected error for empty train pool")
	}
}

func TestTrainedZooIndexPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	z, err := NewTrainedZoo(smallZooConfig(dataset.MNISTLike), rng)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("expected panic for out-of-range model index")
		}
	}()
	z.Info(99)
}

func TestSurrogateZooErrors(t *testing.T) {
	if _, err := NewSurrogateZoo(nil, 10); err == nil {
		t.Error("expected error for empty zoo")
	}
	valid := SurrogateModel{
		Name: "m", MeanLoss: 0.5, LossSigma: 0.1, Accuracy: 0.8,
		SizeBytes: 100, PhiKWh: 7e-8, BaseLatencySec: 0.05,
	}
	if _, err := NewSurrogateZoo([]SurrogateModel{valid}, 0); err == nil {
		t.Error("expected error for zero pool")
	}
	bad := valid
	bad.Accuracy = 1.5
	if _, err := NewSurrogateZoo([]SurrogateModel{bad}, 10); err == nil {
		t.Error("expected error for accuracy > 1")
	}
	bad = valid
	bad.PhiKWh = 0
	if _, err := NewSurrogateZoo([]SurrogateModel{bad}, 10); err == nil {
		t.Error("expected error for zero energy")
	}
	bad = valid
	bad.MeanLoss = -1
	if _, err := NewSurrogateZoo([]SurrogateModel{bad}, 10); err == nil {
		t.Error("expected error for negative loss")
	}
}

func TestDefaultSurrogateZooShape(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	z, err := DefaultSurrogateZoo(rng)
	if err != nil {
		t.Fatal(err)
	}
	if z.NumModels() != 6 {
		t.Fatalf("NumModels = %d", z.NumModels())
	}
	// The lowest-energy model must NOT be the lowest-loss model, otherwise
	// Greedy would be optimal and the paper's comparison collapses.
	minPhi, minLoss := 0, 0
	for n := 1; n < z.NumModels(); n++ {
		if z.Info(n).PhiKWh < z.Info(minPhi).PhiKWh {
			minPhi = n
		}
		if z.MeanLoss(n) < z.MeanLoss(minLoss) {
			minLoss = n
		}
	}
	if minPhi == minLoss {
		t.Error("cheapest model is also the best — Greedy would be optimal")
	}
}

func TestSurrogateBatchLossStatistics(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	z, err := DefaultSurrogateZoo(rng)
	if err != nil {
		t.Fatal(err)
	}
	const batch = 100
	indices := make([]int, batch)
	var sumLoss float64
	var sumCorrect int
	const trials = 3000
	for i := 0; i < trials; i++ {
		avg, correct := z.BatchLoss(2, indices, rng)
		sumLoss += avg
		sumCorrect += correct
	}
	if got, want := sumLoss/trials, z.MeanLoss(2); math.Abs(got-want) > 0.01 {
		t.Errorf("empirical mean loss %v, want %v", got, want)
	}
	if got, want := float64(sumCorrect)/(trials*batch), z.meanAcc[2]; math.Abs(got-want) > 0.01 {
		t.Errorf("empirical accuracy %v, want %v", got, want)
	}
}

func TestSurrogateBatchLossSmallAndLargeBatches(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	z, err := DefaultSurrogateZoo(rng)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []int{1, 5, 64, 65, 500} {
		indices := make([]int, m)
		avg, correct := z.BatchLoss(0, indices, rng)
		if avg < 0 {
			t.Errorf("batch %d: negative loss %v", m, avg)
		}
		if correct < 0 || correct > m {
			t.Errorf("batch %d: correct = %d", m, correct)
		}
	}
	if avg, c := z.BatchLoss(0, nil, rng); avg != 0 || c != 0 {
		t.Error("empty batch should be zero")
	}
}

// TestNewFamilyNetworkMatchesZooMember holds the one-member constructor to
// the network family construction puts at the same index — layer types,
// parameter shapes, name and checkpoint size — so a checkpoint the zoo ships
// for model n installs into what an edge builds for n. Only the initial
// weights may differ: the edge overwrites them.
func TestNewFamilyNetworkMatchesZooMember(t *testing.T) {
	for _, spec := range []dataset.Spec{dataset.MNISTLike, dataset.CIFARLike} {
		family := buildFamily(spec, rand.New(rand.NewSource(1)))
		if len(family) != FamilySize() {
			t.Fatalf("%s: family of %d, FamilySize says %d", spec.Name, len(family), FamilySize())
		}
		for n, want := range family {
			got, err := NewFamilyNetwork(spec, n, rand.New(rand.NewSource(2)))
			if err != nil {
				t.Fatal(err)
			}
			if got.Name != want.Name || nn.WireSize(got) != nn.WireSize(want) || len(got.Layers) != len(want.Layers) {
				t.Fatalf("%s model %d: built %s (%d B, %d layers), zoo holds %s (%d B, %d layers)", spec.Name, n,
					got.Name, nn.WireSize(got), len(got.Layers), want.Name, nn.WireSize(want), len(want.Layers))
			}
			for i, l := range want.Layers {
				if reflect.TypeOf(got.Layers[i]) != reflect.TypeOf(l) {
					t.Errorf("%s model %d layer %d: %T, zoo holds %T", spec.Name, n, i, got.Layers[i], l)
					continue
				}
				for j, p := range l.Params() {
					if gp := got.Layers[i].Params()[j]; !reflect.DeepEqual(gp.Shape, p.Shape) {
						t.Errorf("%s model %d layer %d param %d: shape %v, zoo holds %v", spec.Name, n, i, j, gp.Shape, p.Shape)
					}
				}
			}
		}
		for _, n := range []int{-1, FamilySize()} {
			if _, err := NewFamilyNetwork(spec, n, rand.New(rand.NewSource(2))); err == nil {
				t.Errorf("%s: model index %d accepted", spec.Name, n)
			}
		}
	}
}
