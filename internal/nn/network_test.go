package nn

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// NumParams returns the total number of trainable parameters: an instrument
// the architecture and size tests read.
func (n *Network) NumParams() int64 {
	total := int64(0)
	for _, l := range n.Layers {
		for _, p := range l.Params() {
			total += int64(p.Len())
		}
	}
	return total
}

func TestSoftmaxProperties(t *testing.T) {
	logits := &Tensor{Shape: []int{3}, Data: []float64{1, 2, 3}}
	p := Softmax(logits)
	sum := 0.0
	for _, v := range p.Data {
		if v <= 0 || v >= 1 {
			t.Errorf("softmax value out of (0,1): %v", v)
		}
		sum += v
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("softmax sum = %v", sum)
	}
	if !(p.Data[2] > p.Data[1] && p.Data[1] > p.Data[0]) {
		t.Errorf("softmax not order preserving: %v", p.Data)
	}
}

func TestSoftmaxNumericalStability(t *testing.T) {
	logits := &Tensor{Shape: []int{3}, Data: []float64{1000, 1000, 999}}
	p := Softmax(logits)
	for _, v := range p.Data {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("softmax overflowed: %v", p.Data)
		}
	}
}

func TestCrossEntropyGradient(t *testing.T) {
	logits := &Tensor{Shape: []int{3}, Data: []float64{0.5, -1, 2}}
	label := 1
	_, grad := CrossEntropyLoss(logits.Clone(), label)
	// Numerical check.
	for i := range logits.Data {
		const h = 1e-6
		up := logits.Clone()
		up.Data[i] += h
		lUp, _ := CrossEntropyLoss(up, label)
		down := logits.Clone()
		down.Data[i] -= h
		lDown, _ := CrossEntropyLoss(down, label)
		want := (lUp - lDown) / (2 * h)
		if math.Abs(grad.Data[i]-want) > 1e-5 {
			t.Errorf("CE grad[%d] = %v, want %v", i, grad.Data[i], want)
		}
	}
}

func TestSquaredLossGradient(t *testing.T) {
	logits := &Tensor{Shape: []int{4}, Data: []float64{0.3, -0.7, 1.1, 0.2}}
	label := 2
	_, grad := SquaredLoss(logits.Clone(), label)
	for i := range logits.Data {
		const h = 1e-6
		up := logits.Clone()
		up.Data[i] += h
		lUp, _ := SquaredLoss(up, label)
		down := logits.Clone()
		down.Data[i] -= h
		lDown, _ := SquaredLoss(down, label)
		want := (lUp - lDown) / (2 * h)
		if math.Abs(grad.Data[i]-want) > 1e-5 {
			t.Errorf("squared grad[%d] = %v, want %v", i, grad.Data[i], want)
		}
	}
}

func TestSquaredLossRange(t *testing.T) {
	// Squared loss between softmax and one-hot lies in [0, 2).
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 100; trial++ {
		logits := randomTensor(rng, 5)
		l, _ := SquaredLoss(logits, trial%5)
		if l < 0 || l >= 2 {
			t.Fatalf("squared loss out of range: %v", l)
		}
	}
}

func TestNetworkParamAndFLOPAccounting(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	net := NewNetwork("tiny", []int{4},
		NewDense(4, 3, rng), // 4*3 + 3 = 15 params, 12 FLOPs
		NewReLU(),
		NewDense(3, 2, rng), // 3*2 + 2 = 8 params, 6 FLOPs
	)
	if got := net.NumParams(); got != 23 {
		t.Errorf("NumParams = %d, want 23", got)
	}
	// 12 + 3 (relu) + 6 = 21
	if got := net.ForwardFLOPs(); got != 21 {
		t.Errorf("ForwardFLOPs = %d, want 21", got)
	}
	out, err := net.OutDim()
	if err != nil {
		t.Fatal(err)
	}
	if out != 2 {
		t.Errorf("OutDim = %d", out)
	}
}

func TestNetworkTrainsXOR(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	net := NewNetwork("xor", []int{2},
		NewDense(2, 8, rng),
		NewReLU(),
		NewDense(8, 2, rng),
	)
	var samples []Sample
	cases := [][3]float64{{0, 0, 0}, {0, 1, 1}, {1, 0, 1}, {1, 1, 0}}
	for _, c := range cases {
		x := &Tensor{Shape: []int{2}, Data: []float64{c[0], c[1]}}
		samples = append(samples, Sample{X: x, Label: int(c[2])})
	}
	if _, err := TrainShuffled(net, samples, TrainConfig{Epochs: 400, BatchSize: 4, LR: 0.5}, rng.Shuffle); err != nil {
		t.Fatalf("Train: %v", err)
	}
	_, _, _, acc := ScorePool(net.ForwardBatch, samples)
	if acc != 1 {
		t.Errorf("XOR accuracy = %v, want 1", acc)
	}
}

func TestTrainErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	net := NewNetwork("t", []int{2}, NewDense(2, 2, rng))
	if _, err := TrainShuffled(net, nil, TrainConfig{Epochs: 1, BatchSize: 1, LR: 0.1}, rng.Shuffle); err == nil {
		t.Error("expected error on empty samples")
	}
	x := &Tensor{Shape: []int{2}, Data: []float64{1, 2}}
	s := []Sample{{X: x, Label: 0}}
	if _, err := TrainShuffled(net, s, TrainConfig{Epochs: 0, BatchSize: 1, LR: 0.1}, rng.Shuffle); err == nil {
		t.Error("expected error on zero epochs")
	}
	if _, err := TrainShuffled(net, s, TrainConfig{Epochs: 1, BatchSize: 0, LR: 0.1}, rng.Shuffle); err == nil {
		t.Error("expected error on zero batch size")
	}
	if _, err := TrainShuffled(net, s, TrainConfig{Epochs: 1, BatchSize: 1, LR: 0}, rng.Shuffle); err == nil {
		t.Error("expected error on zero LR")
	}
}

// TestTrainShuffledErrors: samples a network cannot train on are an error
// naming the sample, returned before any training — not a panic inside a
// layer, which in a zoo builder's worker goroutine would take the process
// down.
func TestTrainShuffledErrors(t *testing.T) {
	for _, c := range []struct {
		name  string
		bad   Sample
		wants string
	}{
		{"label past the classes", Sample{X: NewTensor(1, 14, 14), Label: 10}, "sample 3 has label 10"},
		{"negative label", Sample{X: NewTensor(1, 14, 14), Label: -1}, "sample 3 has label -1"},
		{"smaller image", Sample{X: NewTensor(1, 12, 12), Label: 2}, "sample 3 has shape [1 12 12]"},
		{"flattened image", Sample{X: NewTensor(196), Label: 2}, "sample 3 has shape [196]"},
	} {
		rng := rand.New(rand.NewSource(15))
		net := BuildCNN("cnn", []int{1, 14, 14}, 4, 8, 16, 10, rng)
		samples := randSamples(rng, 5, []int{1, 14, 14}, 10)
		samples[3] = c.bad
		_, err := TrainShuffled(net, samples, TrainConfig{Epochs: 1, BatchSize: 4, LR: 0.1}, rng.Shuffle)
		if err == nil || !strings.Contains(err.Error(), c.wants) {
			t.Errorf("%s: error %v, want one saying %q", c.name, err, c.wants)
		}
	}
}

func TestTrainDeterministicFromSeed(t *testing.T) {
	build := func() (*Network, []Sample, *rand.Rand) {
		rng := rand.New(rand.NewSource(77))
		net := NewNetwork("d", []int{2}, NewDense(2, 4, rng), NewReLU(), NewDense(4, 2, rng))
		var samples []Sample
		for i := 0; i < 20; i++ {
			x := &Tensor{Shape: []int{2}, Data: []float64{rng.NormFloat64(), rng.NormFloat64()}}
			samples = append(samples, Sample{X: x, Label: i % 2})
		}
		return net, samples, rng
	}
	n1, s1, r1 := build()
	n2, s2, r2 := build()
	l1, err := TrainShuffled(n1, s1, TrainConfig{Epochs: 5, BatchSize: 4, LR: 0.1}, r1.Shuffle)
	if err != nil {
		t.Fatal(err)
	}
	l2, err := TrainShuffled(n2, s2, TrainConfig{Epochs: 5, BatchSize: 4, LR: 0.1}, r2.Shuffle)
	if err != nil {
		t.Fatal(err)
	}
	if l1 != l2 {
		t.Errorf("training not deterministic: %v vs %v", l1, l2)
	}
}

func TestEvaluateEmpty(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	net := NewNetwork("e", []int{2}, NewDense(2, 2, rng))
	_, _, loss, acc := ScorePool(net.ForwardBatch, nil)
	if acc != 0 || loss != 0 {
		t.Errorf("ScorePool(empty) = %v, %v", acc, loss)
	}
}

// convPoolNet is a Conv2D → MaxPool2D network with no ReLU between them:
// a stage no zoo arm has, which the INT8 engine folds (pool without relu)
// and the float engine walks layer by layer.
func convPoolNet(shape []int, rng *rand.Rand) *Network {
	conv := NewConv2D(shape[0], 6, 3, rng)
	front := []Layer{conv, NewMaxPool2D()}
	return NewNetwork("conv-pool", shape, append(front, NewDense(flattenDim(shape, front...), 10, rng))...)
}

// TestPlanStages pins the stage list both engines run: every member of both
// zoo families, the layer sequences the INT8 engine refuses, and a conv →
// pool with no ReLU. Each stage is [at, end), its folded ReLU and pool, and
// the shape leaving it; each stage's input is the shape the one before it
// left.
func TestPlanStages(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var nets []*Network
	for _, shape := range [][]int{{1, 28, 28}, {3, 32, 32}} {
		nets = append(append(nets, familyForTest(shape, rng)...), convPoolNet(shape, rng))
	}
	for _, c := range oddSequences(rng) {
		nets = append(nets, c.net)
	}
	want := map[string][]string{
		"cnn-s [1 28 28]":     {"0-3 relu pool [8 13 13]", "3-6 relu pool [16 5 5]", "6-8 relu [32]", "8-9 [10]"},
		"cnn-l [1 28 28]":     {"0-3 relu pool [16 13 13]", "3-6 relu pool [32 5 5]", "6-8 relu [64]", "8-9 [10]"},
		"lenet-s [1 28 28]":   {"0-3 relu pool [6 12 12]", "3-6 relu pool [16 4 4]", "6-8 relu [120]", "8-10 relu [84]", "10-11 [10]"},
		"lenet-l [1 28 28]":   {"0-3 relu pool [12 12 12]", "3-6 relu pool [32 4 4]", "6-8 relu [240]", "8-10 relu [168]", "10-11 [10]"},
		"mlp-s [1 28 28]":     {"0-2 relu [64]", "2-4 relu [32]", "4-5 [10]"},
		"mlp-l [1 28 28]":     {"0-2 relu [256]", "2-4 relu [128]", "4-5 [10]"},
		"conv-pool [1 28 28]": {"0-2 pool [6 13 13]", "2-3 [10]"},
		"cnn-s [3 32 32]":     {"0-3 relu pool [8 15 15]", "3-6 relu pool [16 6 6]", "6-8 relu [32]", "8-9 [10]"},
		"cnn-l [3 32 32]":     {"0-3 relu pool [16 15 15]", "3-6 relu pool [32 6 6]", "6-8 relu [64]", "8-9 [10]"},
		"lenet-s [3 32 32]":   {"0-3 relu pool [6 14 14]", "3-6 relu pool [16 5 5]", "6-8 relu [120]", "8-10 relu [84]", "10-11 [10]"},
		"lenet-l [3 32 32]":   {"0-3 relu pool [12 14 14]", "3-6 relu pool [32 5 5]", "6-8 relu [240]", "8-10 relu [168]", "10-11 [10]"},
		"mobile-s [3 32 32]":  {"0-3 relu pool [4 15 15]", "3-6 relu pool [8 7 7]", "6-8 relu [8 7 7]", "8-9 [10]"},
		"mobile-l [3 32 32]":  {"0-3 relu pool [16 15 15]", "3-6 relu pool [32 7 7]", "6-8 relu [32 7 7]", "8-9 [10]"},
		"conv-pool [3 32 32]": {"0-2 pool [6 15 15]", "2-3 [10]"},
		"unlowered [16]":      {"0-1 [16]", "1-2 [4]"},
		"relu-tail [16]":      {"0-2 relu [4]"},
		"relu-relu [1 6 6]":   {"0-2 relu [2 4 4]", "2-3 [2 4 4]", "3-4 [4]"},
		"pool-relu [1 6 6]":   {"0-2 pool [2 2 2]", "2-3 [2 2 2]", "3-4 [4]"},
		"pool-pool [1 10 10]": {"0-2 pool [2 4 4]", "2-3 [2 2 2]", "3-4 [4]"},
	}
	for _, net := range nets {
		in := net.InShape()
		var got []string
		for _, st := range net.stages {
			if !slices.Equal(st.in, in) {
				t.Errorf("%s: stage [%d, %d) takes %v, the stage before left %v", net.Name, st.at, st.end, st.in, in)
			}
			in = st.out
			s := fmt.Sprintf("%d-%d", st.at, st.end)
			if st.relu {
				s += " relu"
			}
			if st.pool {
				s += " pool"
			}
			got = append(got, fmt.Sprintf("%s %v", s, st.out))
		}
		if key := fmt.Sprintf("%s %v", net.Name, net.InShape()); !slices.Equal(got, want[key]) {
			t.Errorf("%s: stages %q, want %q", key, got, want[key])
		}
	}
}
