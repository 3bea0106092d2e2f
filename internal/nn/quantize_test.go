package nn

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
)

func TestQuantizedRoundTrip(t *testing.T) {
	src, dst := buildTestNet(31), buildTestNet(31)
	if err := QuantizeWeights(dst).ApplyTo(dst); err != nil {
		t.Fatal(err)
	}
	// Dequantized weights differ from the originals by at most one
	// quantization step per tensor.
	srcParams, dstParams := allParams(src), allParams(dst)
	for i := range srcParams {
		maxAbs := 0.0
		for _, v := range srcParams[i].Data {
			if a := math.Abs(v); a > maxAbs {
				maxAbs = a
			}
		}
		step := maxAbs / 127
		for j := range srcParams[i].Data {
			if d := math.Abs(srcParams[i].Data[j] - dstParams[i].Data[j]); d > step/2+1e-9 {
				t.Fatalf("tensor %d value %d off by %v (step %v)", i, j, d, step)
			}
		}
	}
}

func TestQuantizedSizeIsQuarter(t *testing.T) {
	net := buildTestNet(32)
	var fbuf bytes.Buffer
	if err := WriteWeights(&fbuf, net); err != nil {
		t.Fatal(err)
	}
	ratio := float64(QuantizeWeights(net).WireSize()) / float64(fbuf.Len())
	if ratio > 0.30 {
		t.Errorf("quantized/float32 size ratio = %v, want ~0.25", ratio)
	}
}

// separableData builds a small linearly separable binary problem.
func separableData(rng *rand.Rand, n int) []Sample {
	samples := make([]Sample, 0, n)
	for i := 0; i < n; i++ {
		label := i % 2
		off := float64(label*2 - 1)
		x := &Tensor{Shape: []int{2}, Data: []float64{off + rng.NormFloat64()*0.3, off + rng.NormFloat64()*0.3}}
		samples = append(samples, Sample{X: x, Label: label})
	}
	return samples
}

func TestQuantizeInPlacePreservesBehavior(t *testing.T) {
	// On a trained network, int8 quantization must change most predictions
	// little: compare argmax agreement between the float and quantized nets.
	rng := rand.New(rand.NewSource(33))
	net := NewNetwork("q", []int{2},
		NewDense(2, 16, rng), NewReLU(), NewDense(16, 2, rng))
	samples := separableData(rng, 100)
	if _, err := TrainShuffled(net, samples, TrainConfig{Epochs: 30, BatchSize: 8, LR: 0.3}, rng.Shuffle); err != nil {
		t.Fatal(err)
	}
	_, _, _, accBefore := ScorePool(net.ForwardBatch, samples)
	if err := QuantizeWeights(net).ApplyTo(net); err != nil {
		t.Fatal(err)
	}
	_, _, _, accAfter := ScorePool(net.ForwardBatch, samples)
	if accAfter < accBefore-0.05 {
		t.Errorf("quantization dropped accuracy %v -> %v", accBefore, accAfter)
	}
}

func TestQuantizeInPlaceZeroNetworkSafe(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	net := NewNetwork("z", []int{2}, NewDense(2, 2, rng))
	for _, p := range allParams(net) {
		p.Zero()
	}
	if err := QuantizeWeights(net).ApplyTo(net); err != nil { // must not divide by zero
		t.Fatal(err)
	}
	for _, p := range allParams(net) {
		for _, v := range p.Data {
			if v != 0 {
				t.Fatal("zero weights changed")
			}
		}
	}
}
