package models

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"github.com/carbonedge/carbonedge/internal/dataset"
	"github.com/carbonedge/carbonedge/internal/nn"
)

func TestQuantizedZooShape(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	z, err := NewQuantizedTrainedZoo(smallZooConfig(dataset.MNISTLike), rng)
	if err != nil {
		t.Fatalf("NewQuantizedTrainedZoo: %v", err)
	}
	if z.NumModels() != 12 {
		t.Fatalf("NumModels = %d, want 12 (6 fp + 6 int8)", z.NumModels())
	}
	for i := 0; i < 6; i++ {
		fp := z.Info(i)
		q := z.Info(i + 6)
		if !strings.HasSuffix(q.Name, "-q8") {
			t.Errorf("quantized name %q missing suffix", q.Name)
		}
		if !strings.HasPrefix(q.Name, fp.Name) {
			t.Errorf("pairing broken: %q vs %q", fp.Name, q.Name)
		}
		// Quantized checkpoints are about a quarter the size.
		ratio := float64(q.SizeBytes) / float64(fp.SizeBytes)
		if ratio > 0.35 || ratio < 0.15 {
			t.Errorf("%s size ratio = %v, want ~0.25", q.Name, ratio)
		}
		if q.PhiKWh >= fp.PhiKWh {
			t.Errorf("%s energy %v not below fp %v", q.Name, q.PhiKWh, fp.PhiKWh)
		}
		if q.BaseLatencySec >= fp.BaseLatencySec {
			t.Errorf("%s latency not reduced", q.Name)
		}
	}
}

func TestQuantizedZooAccuracyClose(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	cfg := smallZooConfig(dataset.MNISTLike)
	cfg.TrainN, cfg.TestN, cfg.Epochs = 400, 400, 2
	z, err := NewQuantizedTrainedZoo(cfg, rng)
	if err != nil {
		t.Fatal(err)
	}
	// Int8 quantization of these small nets should cost only a little
	// accuracy relative to the full-precision sibling (scored on the
	// identical pool).
	for i := 0; i < 6; i++ {
		fp, q := z.MeanAccuracy(i), z.MeanAccuracy(i+6)
		if q < fp-0.10 {
			t.Errorf("%s: quantized accuracy %v far below fp %v", z.Info(i).Name, q, fp)
		}
	}
}

// fakeQuant rebuilds q8 arm i's network from the fp sibling's checkpoint
// and fake-quantizes it (QuantizeWeights then ApplyTo), as the zoo does
// before compiling the arm.
func fakeQuant(t *testing.T, cfg TrainedZooConfig, i int, fp *nn.Network) (*nn.Network, *nn.QuantizedWeights) {
	t.Helper()
	net, err := cloneNetwork(cfg.Dataset, i, fp, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	qw := nn.QuantizeWeights(net)
	if err := qw.ApplyTo(net); err != nil {
		t.Fatal(err)
	}
	return net, qw
}

// TestQuantizedZooArmsHoldNoNetwork pins what a q8 arm keeps: no network
// (Network returns nil, the fp sibling's is untouched) — only its Info and
// score caches, which replay the INT8 engine bit for bit: the checkpoints of
// a zoo trained from the same seed, fake-quantized, compiled over the head
// of its test pool and scored on the pool.
func TestQuantizedZooArmsHoldNoNetwork(t *testing.T) {
	cfg := smallZooConfig(dataset.MNISTLike)
	z, err := NewQuantizedTrainedZoo(cfg, rand.New(rand.NewSource(4)))
	if err != nil {
		t.Fatal(err)
	}
	oracle, pool, err := trainZoo(cfg, rand.New(rand.NewSource(4)))
	if err != nil {
		t.Fatal(err)
	}
	calib := nn.StackSamples(pool, nn.CalibBatch)
	n := z.NumModels() / 2
	for i := 0; i < n; i++ {
		name := z.Info(n + i).Name
		if z.Network(n+i) != nil {
			t.Fatalf("%s holds a network", name)
		}
		if z.Network(i) == nil {
			t.Fatalf("%s lost its network", z.Info(i).Name)
		}
		net, qw := fakeQuant(t, cfg, i, oracle.Network(i))
		qn, err := nn.NewQuantizedNetwork(net, qw, calib)
		if err != nil {
			t.Fatal(err)
		}
		losses, correct, meanLoss, meanAcc := nn.ScorePool(qn.ForwardBatch, pool)
		if meanLoss != z.MeanLoss(n+i) || meanAcc != z.MeanAccuracy(n+i) {
			t.Fatalf("%s: INT8 replay scores (%v, %v) != cached (%v, %v)",
				name, meanLoss, meanAcc, z.MeanLoss(n+i), z.MeanAccuracy(n+i))
		}
		for s, l := range losses {
			if l != z.losses[n+i][s] || correct[s] != z.correct[n+i][s] {
				t.Fatalf("%s sample %d: INT8 replay (%v, %v) != cached (%v, %v)",
					name, s, l, correct[s], z.losses[n+i][s], z.correct[n+i][s])
			}
		}
	}
}

// TestQuantizedZooInt8Mode holds the INT8 engine's scores to the fake-quant
// float oracle's on both families: the q8 arms' caches come from integer
// kernels, and they track the oracle — the fake-quantized network scored
// directly — from either side (the engine's accuracy contract; exact bits
// are pinned in nn). Measured on these 300-sample pools over all twelve q8
// arms, the worst gaps are 0.0167 in accuracy (lenet-s-q8, five samples) and
// 0.0005 in mean loss; the gate allows about twice the first and four times
// the second. The fp arms are those of the plain trained zoo.
func TestQuantizedZooInt8Mode(t *testing.T) {
	const maxAccGap, maxLossGap = 0.03, 0.002
	for _, spec := range []dataset.Spec{dataset.MNISTLike, dataset.CIFARLike} {
		cfg := smallZooConfig(spec)
		z, err := NewQuantizedTrainedZoo(cfg, rand.New(rand.NewSource(5)))
		if err != nil {
			t.Fatal(err)
		}
		oracle, pool, err := trainZoo(cfg, rand.New(rand.NewSource(5)))
		if err != nil {
			t.Fatal(err)
		}
		n := z.NumModels() / 2
		for i := 0; i < n; i++ {
			if z.MeanLoss(i) != oracle.MeanLoss(i) || z.MeanAccuracy(i) != oracle.MeanAccuracy(i) {
				t.Errorf("fp arm %s moved in the quantized zoo", z.Info(i).Name)
			}
			net, _ := fakeQuant(t, cfg, i, oracle.Network(i))
			_, _, fqLoss, fqAcc := nn.ScorePool(net.ForwardBatch, pool)
			name := z.Info(n + i).Name
			if q := z.MeanAccuracy(n + i); math.Abs(q-fqAcc) > maxAccGap {
				t.Errorf("%s: INT8 accuracy %v is more than %v from fake-quant %v", name, q, maxAccGap, fqAcc)
			}
			if q := z.MeanLoss(n + i); math.Abs(q-fqLoss) > maxLossGap {
				t.Errorf("%s: INT8 mean loss %v is more than %v from fake-quant %v", name, q, maxLossGap, fqLoss)
			}
		}
	}
}

func TestQuantizedZooBatchLossConsistent(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	z, err := NewQuantizedTrainedZoo(smallZooConfig(dataset.MNISTLike), rng)
	if err != nil {
		t.Fatal(err)
	}
	all := make([]int, z.PoolSize())
	for i := range all {
		all[i] = i
	}
	for n := 0; n < z.NumModels(); n++ {
		avg, _ := z.BatchLoss(n, all, nil)
		if diff := avg - z.MeanLoss(n); diff > 1e-12 || diff < -1e-12 {
			t.Errorf("model %d: cache inconsistent", n)
		}
	}
}

// TestArenaCalibrationMatchesFreshCompile compiles every member of both
// families twice — nn.NewQuantizedNetwork on its own arena, and Recompile of
// one long-lived engine on one long-lived arena, as an edge runtime installs
// them — and holds the two to identical logits on the calibration batch.
func TestArenaCalibrationMatchesFreshCompile(t *testing.T) {
	arena := nn.NewArena()
	resident := &nn.QuantizedNetwork{}
	for _, spec := range []dataset.Spec{dataset.MNISTLike, dataset.CIFARLike} {
		rng := rand.New(rand.NewSource(23))
		dist, err := dataset.NewDistribution(spec, rng)
		if err != nil {
			t.Fatal(err)
		}
		calib := nn.StackSamples(dist.Pool(40, rng), nn.CalibBatch)
		for n, net := range buildFamily(spec, rng) {
			qw := nn.QuantizeWeights(net)
			if err := qw.ApplyTo(net); err != nil {
				t.Fatal(err)
			}
			fresh, err := nn.NewQuantizedNetwork(net, qw, calib)
			if err != nil {
				t.Fatal(err)
			}
			if err := resident.Recompile(net, qw, calib, arena); err != nil {
				t.Fatal(err)
			}
			want := fresh.ForwardBatch(calib, nn.NewArena())
			arena.Reset()
			got := resident.ForwardBatch(calib, arena)
			for i, v := range want.Data {
				if got.Data[i] != v {
					t.Fatalf("%s model %d: logit %d = %v on the shared arena, %v on a fresh one", spec.Name, n, i, got.Data[i], v)
				}
			}
		}
	}
}
