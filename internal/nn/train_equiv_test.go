package nn

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"
)

// Training equivalence suite: batched minibatch SGD (TrainShuffled over
// ForwardBatch/BackwardBatch) must produce bit-identical trained
// weights to the per-sample reference loop (trainNaive) — same float64
// parameter bits AND byte-identical serialized checkpoints — for every
// family architecture.

// trainCase pairs an architecture builder with a deterministic init seed.
// Builders cover every constructor buildFamily (internal/models) uses, both
// capacity tiers, at a reduced 20x20 input so the suite stays fast.
type trainCase struct {
	name  string
	build func(rng *rand.Rand) *Network
}

func trainFamily() []trainCase {
	in := []int{1, 20, 20}
	const k = 10
	return []trainCase{
		{"cnn-s", func(rng *rand.Rand) *Network { return BuildCNN("cnn-s", in, 8, 16, 32, k, rng) }},
		{"cnn-l", func(rng *rand.Rand) *Network { return BuildCNN("cnn-l", in, 16, 32, 64, k, rng) }},
		{"lenet-s", func(rng *rand.Rand) *Network { return BuildLeNet5("lenet-s", in, 1, k, rng) }},
		{"lenet-l", func(rng *rand.Rand) *Network { return BuildLeNet5("lenet-l", in, 2, k, rng) }},
		{"mlp-s", func(rng *rand.Rand) *Network { return BuildMLP("mlp-s", in, 64, 32, k, rng) }},
		{"mlp-l", func(rng *rand.Rand) *Network { return BuildMLP("mlp-l", in, 256, 128, k, rng) }},
		{"mobile-s", func(rng *rand.Rand) *Network { return BuildMobileCNN("mobile-s", in, 4, 8, k, rng) }},
		{"mobile-l", func(rng *rand.Rand) *Network { return BuildMobileCNN("mobile-l", in, 16, 32, k, rng) }},
	}
}

func randSamples(rng *rand.Rand, n int, shape []int, classes int) []Sample {
	samples := make([]Sample, n)
	for i := range samples {
		samples[i] = Sample{X: randTensor(rng, shape...), Label: rng.Intn(classes)}
	}
	return samples
}

// paramsBitsEqual compares every parameter tensor of two networks bit for
// bit (stronger than the float32 wire format, which could mask low bits).
func paramsBitsEqual(t *testing.T, name string, got, want *Network) {
	t.Helper()
	for li, l := range got.Layers {
		wp := want.Layers[li].Params()
		for pi, p := range l.Params() {
			bitsEqual(t, name, p.Data, wp[pi].Data)
		}
	}
}

func serialized(t *testing.T, net *Network) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteWeights(&buf, net); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestTrainBatchedMatchesNaiveBitForBit(t *testing.T) {
	for _, tc := range trainFamily() {
		sampleRng := rand.New(rand.NewSource(61))
		samples := randSamples(sampleRng, 33, []int{1, 20, 20}, 10)
		cfg := TrainConfig{Epochs: 2, BatchSize: 7, LR: 0.05}

		naiveNet := tc.build(rand.New(rand.NewSource(62)))
		batchNet := tc.build(rand.New(rand.NewSource(62)))
		naiveAvg, err := trainNaive(naiveNet, samples, cfg, rand.New(rand.NewSource(63)))
		if err != nil {
			t.Fatal(err)
		}
		batchAvg, err := TrainShuffled(batchNet, samples, cfg, rand.New(rand.NewSource(63)).Shuffle)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(naiveAvg) != math.Float64bits(batchAvg) {
			t.Fatalf("%s: final avg loss %v (batched) != %v (naive)", tc.name, batchAvg, naiveAvg)
		}
		paramsBitsEqual(t, tc.name, batchNet, naiveNet)
		if !bytes.Equal(serialized(t, batchNet), serialized(t, naiveNet)) {
			t.Fatalf("%s: serialized checkpoints differ", tc.name)
		}
	}
}

// evaluateNaive is the per-sample scoring loop, retained as the reference
// ScorePool is pinned against.
func evaluateNaive(net *Network, samples []Sample) (losses []float64, correct []bool, meanLoss, meanAcc float64) {
	nCorrect := 0
	totalLoss := 0.0
	for _, s := range samples {
		logits := net.Forward(s.X)
		l, _ := SquaredLoss(logits, s.Label)
		ok := logits.MaxIndex() == s.Label
		losses, correct = append(losses, l), append(correct, ok)
		totalLoss += l
		if ok {
			nCorrect++
		}
	}
	n := float64(len(samples))
	return losses, correct, totalLoss / n, float64(nCorrect) / n
}

func TestEvaluateMatchesNaiveBitForBit(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	for _, net := range zooForTest(rng) {
		// 71 samples: two full chunks and a short one.
		samples := randSamples(rng, 71, net.InShape(), 10)
		wantLosses, wantCorrect, wantLoss, wantAcc := evaluateNaive(net, samples)
		losses, correct, gotLoss, gotAcc := ScorePool(net.ForwardBatch, samples)
		bitsEqual(t, net.Name+" per-sample loss", losses, wantLosses)
		if !slices.Equal(correct, wantCorrect) {
			t.Fatalf("%s: per-sample correctness differs", net.Name)
		}
		if math.Float64bits(gotAcc) != math.Float64bits(wantAcc) {
			t.Fatalf("%s: accuracy %v, want %v", net.Name, gotAcc, wantAcc)
		}
		if math.Float64bits(gotLoss) != math.Float64bits(wantLoss) {
			t.Fatalf("%s: mean loss %v, want %v", net.Name, gotLoss, wantLoss)
		}
	}
	if _, _, loss, acc := ScorePool(zooForTest(rng)[0].ForwardBatch, nil); acc != 0 || loss != 0 {
		t.Fatalf("empty evaluation = (%v, %v), want (0, 0)", acc, loss)
	}
}

// TestScorePoolIgnoresCoreCount: the scorer serves a pool's chunks on as many
// lanes as GOMAXPROCS allows, and for one, two and more-lanes-than-chunks the
// per-sample losses, hits and both means are the one-sample-at-a-time loop's
// bit for bit, at every chunk-boundary pool size and on both engines — so
// results/*.txt cannot depend on the host's core count.
func TestScorePoolIgnoresCoreCount(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	rng := rand.New(rand.NewSource(93))
	shape := []int{1, 20, 20}
	net := BuildCNN("cnn", shape, 8, 16, 32, 10, rng)
	pool := randSamples(rng, 257, shape, 10)
	wantLosses, wantCorrect, _, _ := evaluateNaive(net, pool)

	qnet := BuildCNN("cnn-q8", shape, 8, 16, 32, 10, rng)
	_, qn := quantizeForTest(t, qnet, StackSamples(pool, 64))
	one := NewArena()
	var qLosses []float64
	var qCorrect []bool
	for _, s := range pool { // the INT8 oracle: batches of one
		one.Reset()
		logits := qn.ForwardBatch(&Tensor{Shape: append([]int{1}, shape...), Data: s.X.Data}, one)
		l, _ := SquaredLoss(&Tensor{Shape: logits.Shape[1:], Data: logits.Data}, s.Label)
		qLosses, qCorrect = append(qLosses, l), append(qCorrect, ArgmaxRow(logits.Data) == s.Label)
	}

	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		for _, n := range []int{0, 1, 31, 32, 33, 100, 257} {
			for _, eng := range []struct {
				name    string
				forward func(*Tensor, *Arena) *Tensor
				losses  []float64
				correct []bool
			}{{"float", net.ForwardBatch, wantLosses, wantCorrect}, {"int8", qn.ForwardBatch, qLosses, qCorrect}} {
				name := fmt.Sprintf("%s procs=%d n=%d", eng.name, procs, n)
				losses, correct, meanLoss, meanAcc := ScorePool(eng.forward, pool[:n])
				bitsEqual(t, name+" losses", losses, eng.losses[:n])
				if !slices.Equal(correct, eng.correct[:n]) {
					t.Fatalf("%s: per-sample correctness differs", name)
				}
				sum, hits := 0.0, 0
				for i, l := range eng.losses[:n] {
					sum += l
					if eng.correct[i] {
						hits++
					}
				}
				if n > 0 && (math.Float64bits(meanLoss) != math.Float64bits(sum/float64(n)) || meanAcc != float64(hits)/float64(n)) {
					t.Fatalf("%s: means (%v, %v), want (%v, %v)", name, meanLoss, meanAcc, sum/float64(n), float64(hits)/float64(n))
				}
			}
		}
	}
}

// TestLossRowGradsMatchPerSampleBitForBit pins the row-variant training
// loss and its gradient (the value-only SquaredLossRow is covered in
// batch_equiv_test).
func TestLossRowGradsMatchPerSampleBitForBit(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	gradRow := make([]float64, 10)
	for i := 0; i < 50; i++ {
		logits := randTensor(rng, 10)
		label := rng.Intn(10)

		wantLoss, wantGrad := CrossEntropyLoss(randClone(logits), label)
		gotLoss := CrossEntropyLossRow(logits.Data, label, gradRow)
		if math.Float64bits(gotLoss) != math.Float64bits(wantLoss) {
			t.Fatalf("xent loss %v, want %v", gotLoss, wantLoss)
		}
		bitsEqual(t, "xent grad", gradRow, wantGrad.Data)
	}
}

// randClone deep-copies a tensor (CrossEntropyLoss mutates its softmax
// buffer, which aliases nothing here but keeps inputs pristine).
func randClone(t *Tensor) *Tensor {
	c := NewTensor(t.Shape...)
	copy(c.Data, t.Data)
	return c
}
