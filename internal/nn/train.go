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
// Each minibatch runs forward and backward through the batched kernels on
// one arena (trainer.step), and the trained weights are bit for bit those of
// the per-sample reference loop the tests keep (trainNaive,
// train_equiv_test.go): the shuffle is the caller's, the epoch loss
// accumulates row by row in shuffled sample order, and every backward pass
// replays the per-sample gradient add sequence.
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

// trainer is one TrainShuffled run's state: the arena, the gradient
// accumulators, acts[i] (layer i's input in the current minibatch) and first,
// the lowest layer with parameters, where the backward pass stops.
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

// step trains on the minibatch samples[idx[0]], samples[idx[1]], ...: the
// stages forward keeping every layer's input in acts, each row's loss added
// to totalLoss in idx order (the sum is returned), the stages back down to
// the lowest layer with parameters (asked for no input gradient), one SGD
// update. Every stage's ReLU rectifies its first layer's output in place, and
// its backward masks the incoming gradient in place by the stage's output
// plane: the rectified plane, which is positive exactly where its input was,
// or, after a MaxPool2D, the pooled plane (a window's maximum is positive
// exactly when its source element is), whose masked gradient poolRoute then
// hands to that element. Either way it is ReLU.BackwardBatch bit for bit,
// with no new plane and, under a pool, the mask on a quarter of the plane.
func (t *trainer) step(samples []Sample, idx []int, lr, totalLoss float64) float64 {
	a, layers, stages := t.a, t.net.Layers, t.net.stages
	b := len(idx)
	a.Reset()
	t.batchShape[0] = b
	x := a.Tensor(t.batchShape...)
	n := x.Len() / b
	for bi, si := range idx {
		copy(x.Data[bi*n:(bi+1)*n], samples[si].X.Data)
	}
	t.acts[0] = x
	for _, st := range stages {
		for i := st.at; i < st.end; i++ {
			if st.relu && i == st.at+1 {
				reluFwdSIMD(t.acts[i].Data, t.acts[i].Data)
				t.acts[i+1] = t.acts[i]
				continue
			}
			t.acts[i+1] = layers[i].ForwardBatch(t.acts[i], a)
		}
	}
	logits := t.acts[len(layers)]
	classes := logits.Shape[1]
	g := a.Tensor(b, classes)
	for bi, si := range idx {
		totalLoss += CrossEntropyLossRow(logits.Data[bi*classes:(bi+1)*classes],
			samples[si].Label, g.Data[bi*classes:(bi+1)*classes])
	}
	for s := len(stages) - 1; s >= 0 && stages[s].at >= t.first; s-- {
		st := stages[s]
		for i := st.end - 1; i >= st.at; i-- {
			if st.relu && i == st.end-1 {
				reluBwdSIMD(g.Data, g.Data, t.acts[i+1].Data)
				if st.pool {
					g = poolRoute(t.acts[i], t.acts[i+1], g, a)
					i-- // the stage's ReLU is done too
				}
				continue
			}
			g = layers[i].BackwardBatch(t.acts[i], g, t.grads[i], i > t.first, a)
		}
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
