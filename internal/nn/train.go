package nn

import (
	"fmt"
	"slices"
)

// Sample is one labeled example.
type Sample struct {
	X     *Tensor
	Label int
}

// CalibBatch is how many samples from the head of a pool calibrate an INT8
// engine's activation scales, StackSamples(pool, CalibBatch): the zoo's q8
// arms and an INT8 edge install both use it, and the scales it sets are part
// of every INT8 result.
const CalibBatch = 64

// StackSamples copies the first min(b, len(pool)) samples into one
// [n, shape...] batch tensor. Taken from the head of a pool it is the INT8
// engines' calibration batch: deterministic, and representative of the stream
// the activation scales will see. The pool must not be empty.
func StackSamples(pool []Sample, b int) *Tensor {
	b = min(b, len(pool))
	sampleLen := pool[0].X.Len()
	t := NewTensor(append([]int{b}, pool[0].X.Shape...)...)
	for j := 0; j < b; j++ {
		copy(t.Data[j*sampleLen:(j+1)*sampleLen], pool[j].X.Data)
	}
	return t
}

// TrainConfig controls SGD training (softmax cross-entropy, constant LR).
type TrainConfig struct {
	Epochs    int
	BatchSize int
	LR        float64
}

// TrainShuffled runs minibatch SGD over samples, shuffling each epoch with
// the caller's shuffle (an *rand.Rand's Shuffle method, or a replay of
// recorded draws: the zoo builder pre-records every model's per-epoch
// shuffles from one shared stream so the models can then train in parallel).
// It returns the average training loss of the final epoch. A sample whose
// shape is not net.InShape() or whose label is not one of the network's
// classes is an error, reported before any training.
//
// Whole minibatches flow through the batched GEMM path
// (ForwardBatch/BackwardBatch on one arena); the result is bit-for-bit
// identical to the per-sample reference loop the tests keep (trainNaive) —
// same shuffle draws, same gradient and loss bits (train_equiv_test.go pins
// the serialized trained weights byte-identical).
//
// The trainer owns all training state: the gradient accumulators (one Grads
// for the run) and, per minibatch, the activation every layer consumed —
// arena tensors, so forward, loss and backward of one minibatch share one
// Reset window. Per batch it assembles the shuffled samples into one
// [B, sampleShape...] arena tensor, runs each layer's ForwardBatch keeping
// its input, computes per-row losses and logit gradients, hands each layer's
// BackwardBatch its input back in reverse down to the lowest layer that
// holds parameters — which is asked for no input gradient, since nothing
// reads one — and applies one SGD step.
// Bit-identity to the per-sample loop is preserved by construction: the
// shuffle is the caller's, the epoch loss accumulates row by row in shuffled
// sample order (never via batch partial sums), and every layer's
// BackwardBatch replays the per-sample gradient add sequence.
func TrainShuffled(net *Network, samples []Sample, cfg TrainConfig, shuffle func(n int, swap func(i, j int))) (float64, error) {
	if len(samples) == 0 {
		return 0, fmt.Errorf("nn: no training samples")
	}
	if cfg.Epochs <= 0 || cfg.BatchSize <= 0 || cfg.LR <= 0 {
		return 0, fmt.Errorf("nn: invalid train config %+v", cfg)
	}
	shape := net.InShape()
	classes, err := net.OutDim()
	if err != nil {
		return 0, err
	}
	for i, s := range samples {
		if !slices.Equal(s.X.Shape, shape) {
			return 0, fmt.Errorf("nn: sample %d has shape %v, network %q takes %v", i, s.X.Shape, net.Name, shape)
		}
		if s.Label < 0 || s.Label >= classes {
			return 0, fmt.Errorf("nn: sample %d has label %d, network %q has classes [0, %d)", i, s.Label, net.Name, classes)
		}
	}

	idx := make([]int, len(samples))
	for i := range idx {
		idx[i] = i
	}
	t := newTrainer(net)
	lastAvg := 0.0
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		totalLoss := 0.0
		for start := 0; start < len(idx); start += cfg.BatchSize {
			end := min(start+cfg.BatchSize, len(idx))
			totalLoss = t.step(samples, idx[start:end], cfg.LR, totalLoss)
		}
		lastAvg = totalLoss / float64(len(idx))
	}
	return lastAvg, nil
}

// trainer is one TrainShuffled run's state: the arena every minibatch's
// activations and scratch live in, the gradient accumulators, acts[i] (layer
// i's input for the current minibatch), and first, the lowest layer with
// parameters — where the backward pass stops.
type trainer struct {
	net        *Network
	a          *Arena
	grads      Grads
	acts       []*Tensor
	first      int
	batchShape []int
}

func newTrainer(net *Network) *trainer {
	t := &trainer{
		net:        net,
		a:          NewArena(),
		grads:      NewGrads(net),
		acts:       make([]*Tensor, len(net.Layers)+1),
		batchShape: append([]int{0}, net.InShape()...),
	}
	for t.first < len(t.grads) && len(t.grads[t.first]) == 0 {
		t.first++
	}
	return t
}

// step trains on the minibatch samples[idx[0]], samples[idx[1]], ...:
// forward, loss, backward and one SGD update. Each row's loss is added to
// totalLoss in idx order and the sum returned.
func (t *trainer) step(samples []Sample, idx []int, lr, totalLoss float64) float64 {
	a, layers := t.a, t.net.Layers
	b := len(idx)
	a.Reset()
	t.batchShape[0] = b
	x := a.Tensor(t.batchShape...)
	n := x.Len() / b
	for bi, si := range idx {
		copy(x.Data[bi*n:(bi+1)*n], samples[si].X.Data)
	}
	t.acts[0] = x
	for i, l := range layers {
		t.acts[i+1] = l.ForwardBatch(t.acts[i], a)
	}
	logits := t.acts[len(layers)]
	classes := logits.Shape[1]
	g := a.Tensor(b, classes)
	for bi, si := range idx {
		totalLoss += CrossEntropyLossRow(logits.Data[bi*classes:(bi+1)*classes],
			samples[si].Label, g.Data[bi*classes:(bi+1)*classes])
	}
	for i := len(layers) - 1; i >= t.first; i-- {
		g = layers[i].BackwardBatch(t.acts[i], g, t.grads[i], i > t.first, a)
	}
	t.net.Step(t.grads, lr, float64(b))
	return totalLoss
}

// ScorePool evaluates a model over pool through the chunked Scorer and returns
// the per-sample squared loss and correctness plus their means; forward is as
// in Score. With the float engine the results are bit-for-bit the reference
// per-sample loop's (the row helpers replay the per-sample ops and the loss
// accumulates in sample order), so the zoo's cached streams, and every figure
// derived from them, depend on neither the chunking nor the host's core count.
func ScorePool(forward func(in *Tensor, a *Arena) *Tensor, pool []Sample) (losses []float64, correct []bool, meanLoss, meanAcc float64) {
	if len(pool) == 0 {
		return nil, nil, 0, 0
	}
	idx := make([]int, len(pool))
	for i, s := range pool {
		if s.X.Len() != pool[0].X.Len() {
			//lint:allow panicpolicy mirrors the ForwardBatch shape guards: a ragged pool is a programmer error and the scorer has no error channel
			panic(fmt.Sprintf("nn: pool sample %d has %d features, want %d", i, s.X.Len(), pool[0].X.Len()))
		}
		idx[i] = i
	}
	var sc Scorer
	sumLoss, nCorrect := sc.Score(forward, pool, idx)
	n := float64(len(pool))
	return sc.Loss, sc.Hit, sumLoss / n, float64(nCorrect) / n
}
