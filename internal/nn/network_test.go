package nn

import (
	"math"
	"math/rand"
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
