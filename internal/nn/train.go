package nn

import (
	"fmt"
	"math/rand"
)

// Sample is one labeled example.
type Sample struct {
	X     *Tensor
	Label int
}

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

// LossKind selects the training objective.
type LossKind int

// Supported training losses.
const (
	// LossCrossEntropy is standard softmax cross-entropy.
	LossCrossEntropy LossKind = iota + 1
	// LossSquared is the paper's squared loss between the softmax output
	// and the one-hot label.
	LossSquared
)

// TrainConfig controls SGD training.
type TrainConfig struct {
	Epochs    int
	BatchSize int
	LR        float64
	// LRDecay multiplies LR after each epoch (1 = constant).
	LRDecay float64
	Loss    LossKind
	// Silent training has no progress callback; set OnEpoch to observe.
	OnEpoch func(epoch int, avgLoss float64)
}

// TrainShuffled runs minibatch SGD over samples, shuffling each epoch with
// the caller's shuffle (an *rand.Rand's Shuffle method, or a replay of
// recorded draws: the zoo builder pre-records every model's per-epoch
// shuffles from one shared stream so the models can then train in parallel).
// It returns the average training loss of the final epoch.
//
// Whole minibatches flow through the batched GEMM path
// (ForwardBatchTrain/BackwardBatch on one arena); the result is bit-for-bit
// identical to the per-sample reference loop (trainNaive) — same shuffle
// draws, same gradient and loss bits (train_equiv_test.go pins the
// serialized trained weights byte-identical).
//
// Per batch it assembles the shuffled samples into one [B, sampleShape...]
// arena tensor, runs ForwardBatchTrain, computes per-row losses and logit
// gradients, back-propagates the whole batch, and applies one SGD step.
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
	if cfg.Loss == 0 {
		cfg.Loss = LossCrossEntropy
	}
	if cfg.LRDecay == 0 {
		cfg.LRDecay = 1
	}
	sampleLen := samples[0].X.Len()
	for i := range samples {
		if samples[i].X.Len() != sampleLen {
			return 0, fmt.Errorf("nn: sample %d has %d features, want %d", i, samples[i].X.Len(), sampleLen)
		}
	}
	batchShape := append([]int{0}, samples[0].X.Shape...)

	idx := make([]int, len(samples))
	for i := range idx {
		idx[i] = i
	}
	a := NewArena()
	lr := cfg.LR
	lastAvg := 0.0
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		totalLoss := 0.0
		for start := 0; start < len(idx); start += cfg.BatchSize {
			end := min(start+cfg.BatchSize, len(idx))
			b := end - start
			net.ZeroGrads()
			a.Reset()
			batchShape[0] = b
			in := a.Tensor(batchShape...)
			for bi, si := range idx[start:end] {
				copy(in.Data[bi*sampleLen:(bi+1)*sampleLen], samples[si].X.Data)
			}
			logits := net.ForwardBatchTrain(in, a)
			classes := logits.Shape[1]
			grad := a.Tensor(b, classes)
			scratch := a.Floats(classes)
			for bi, si := range idx[start:end] {
				row := logits.Data[bi*classes : (bi+1)*classes]
				gradRow := grad.Data[bi*classes : (bi+1)*classes]
				switch cfg.Loss {
				case LossSquared:
					totalLoss += SquaredLossRowGrad(row, samples[si].Label, gradRow, scratch)
				default:
					totalLoss += CrossEntropyLossRow(row, samples[si].Label, gradRow)
				}
			}
			net.BackwardBatch(grad, a)
			net.Step(lr, float64(b))
		}
		lastAvg = totalLoss / float64(len(idx))
		if cfg.OnEpoch != nil {
			cfg.OnEpoch(epoch, lastAvg)
		}
		lr *= cfg.LRDecay
	}
	return lastAvg, nil
}

// trainNaive is the one-sample-at-a-time SGD loop over the layers'
// reference Forward/Backward: the reference implementation the equivalence
// tests pin TrainShuffled against (serialized trained weights must match
// byte for byte).
func trainNaive(net *Network, samples []Sample, cfg TrainConfig, rng *rand.Rand) (float64, error) {
	if len(samples) == 0 {
		return 0, fmt.Errorf("nn: no training samples")
	}
	if cfg.Epochs <= 0 || cfg.BatchSize <= 0 || cfg.LR <= 0 {
		return 0, fmt.Errorf("nn: invalid train config %+v", cfg)
	}
	if cfg.Loss == 0 {
		cfg.Loss = LossCrossEntropy
	}
	if cfg.LRDecay == 0 {
		cfg.LRDecay = 1
	}

	idx := make([]int, len(samples))
	for i := range idx {
		idx[i] = i
	}
	lr := cfg.LR
	lastAvg := 0.0
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		totalLoss := 0.0
		for start := 0; start < len(idx); start += cfg.BatchSize {
			end := start + cfg.BatchSize
			if end > len(idx) {
				end = len(idx)
			}
			net.ZeroGrads()
			for _, si := range idx[start:end] {
				s := samples[si]
				logits := net.Forward(s.X)
				var loss float64
				var grad *Tensor
				switch cfg.Loss {
				case LossSquared:
					loss, grad = SquaredLoss(logits, s.Label)
				default:
					loss, grad = CrossEntropyLoss(logits, s.Label)
				}
				totalLoss += loss
				net.Backward(grad)
			}
			net.Step(lr, float64(end-start))
		}
		lastAvg = totalLoss / float64(len(idx))
		if cfg.OnEpoch != nil {
			cfg.OnEpoch(epoch, lastAvg)
		}
		lr *= cfg.LRDecay
	}
	return lastAvg, nil
}

// evalChunk bounds Evaluate's batch size: big enough to amortize the GEMM
// setup (and the Dense weight transpose, which is rebuilt per chunk), small
// enough to keep the arena footprint modest. Chunking cannot change result
// bits — every sample's float ops are independent of its batch neighbours.
const evalChunk = 256

// Evaluate returns classification accuracy and mean squared loss of net over
// samples. Samples flow through the batched inference path in chunks; the
// row helpers replay the per-sample argmax and loss ops exactly, and the
// loss accumulates in sample order, so the result bits match the historical
// per-sample loop.
func Evaluate(net *Network, samples []Sample) (accuracy, meanSquaredLoss float64) {
	if len(samples) == 0 {
		return 0, 0
	}
	sampleLen := samples[0].X.Len()
	batchShape := append([]int{0}, samples[0].X.Shape...)
	a := NewArena()
	correct := 0
	totalLoss := 0.0
	for start := 0; start < len(samples); start += evalChunk {
		end := min(start+evalChunk, len(samples))
		b := end - start
		a.Reset()
		batchShape[0] = b
		in := a.Tensor(batchShape...)
		for bi := 0; bi < b; bi++ {
			x := samples[start+bi].X
			if x.Len() != sampleLen {
				//lint:allow panicpolicy mirrors the Forward shape guards: a ragged evaluation set is a programmer error and the historical signature has no error channel
				panic(fmt.Sprintf("nn: eval sample %d has %d features, want %d", start+bi, x.Len(), sampleLen))
			}
			copy(in.Data[bi*sampleLen:(bi+1)*sampleLen], x.Data)
		}
		logits := net.ForwardBatch(in, a)
		classes := logits.Shape[1]
		scratch := a.Floats(classes)
		for bi := 0; bi < b; bi++ {
			row := logits.Data[bi*classes : (bi+1)*classes]
			label := samples[start+bi].Label
			if ArgmaxRow(row) == label {
				correct++
			}
			totalLoss += SquaredLossRow(row, label, scratch)
		}
	}
	n := float64(len(samples))
	return float64(correct) / n, totalLoss / n
}
