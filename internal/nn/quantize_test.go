package nn

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
)

func TestQuantizedRoundTrip(t *testing.T) {
	src := buildTestNet(31)
	var buf bytes.Buffer
	if err := WriteQuantized(&buf, src); err != nil {
		t.Fatalf("WriteQuantized: %v", err)
	}
	dst := buildTestNet(77)
	if err := ReadQuantized(&buf, dst); err != nil {
		t.Fatalf("ReadQuantized: %v", err)
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
	var fbuf, qbuf bytes.Buffer
	if err := WriteWeights(&fbuf, net); err != nil {
		t.Fatal(err)
	}
	if err := WriteQuantized(&qbuf, net); err != nil {
		t.Fatal(err)
	}
	if want := QuantizeWeights(net).WireSize(); int64(qbuf.Len()) != want {
		t.Errorf("payload %d != WireSize %d", qbuf.Len(), want)
	}
	ratio := float64(qbuf.Len()) / float64(fbuf.Len())
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
		x, err := FromSlice([]float64{off + rng.NormFloat64()*0.3, off + rng.NormFloat64()*0.3}, 2)
		if err != nil {
			panic(err)
		}
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
	if _, err := Train(net, samples, TrainConfig{Epochs: 30, BatchSize: 8, LR: 0.3}, rng); err != nil {
		t.Fatal(err)
	}
	accBefore, _ := Evaluate(net, samples)
	QuantizeInPlace(net)
	accAfter, _ := Evaluate(net, samples)
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
	QuantizeInPlace(net) // must not divide by zero
	for _, p := range allParams(net) {
		for _, v := range p.Data {
			if v != 0 {
				t.Fatal("zero weights changed")
			}
		}
	}
}

func TestReadQuantizedRejectsCorruptInput(t *testing.T) {
	net := buildTestNet(35)
	var good bytes.Buffer
	if err := WriteQuantized(&good, net); err != nil {
		t.Fatal(err)
	}
	payload := good.Bytes()

	// Float32 checkpoint is rejected by the quantized reader and vice
	// versa (magic mismatch).
	var fbuf bytes.Buffer
	if err := WriteWeights(&fbuf, net); err != nil {
		t.Fatal(err)
	}
	if err := ReadQuantized(bytes.NewReader(fbuf.Bytes()), buildTestNet(36)); err == nil {
		t.Error("expected magic mismatch for float checkpoint")
	}
	if err := ReadWeights(bytes.NewReader(payload), buildTestNet(36)); err == nil {
		t.Error("expected magic mismatch for quantized checkpoint")
	}
	// Truncation.
	if err := ReadQuantized(bytes.NewReader(payload[:len(payload)/3]), buildTestNet(37)); err == nil {
		t.Error("expected error for truncated payload")
	}
	// Architecture mismatch.
	rng := rand.New(rand.NewSource(38))
	other := BuildMLP("mlp", []int{1, 12, 12}, 8, 4, 10, rng)
	if err := ReadQuantized(bytes.NewReader(payload), other); err == nil {
		t.Error("expected error for mismatched architecture")
	}
}
