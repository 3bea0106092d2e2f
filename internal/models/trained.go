package models

import (
	"fmt"
	"math/rand"
	"sync"

	"github.com/carbonedge/carbonedge/internal/dataset"
	"github.com/carbonedge/carbonedge/internal/energy"
	"github.com/carbonedge/carbonedge/internal/nn"
)

// TrainedZoo is the model zoo a run trains once and then streams from: per
// model its Info, its trained network, and per-sample loss/correctness caches
// over the test pool, so BatchLoss is O(batch) lookups. The test pool itself
// is dropped once the caches are filled. A quantized zoo's q8 arms hold only
// their Info and caches; their nets entries are nil.
type TrainedZoo struct {
	infos    []Info
	nets     []*nn.Network
	meanLoss []float64
	meanAcc  []float64

	// losses[n][s] is the squared loss of model n on test sample s;
	// correct[n][s] records prediction correctness.
	losses  [][]float64
	correct [][]bool
}

var _ Zoo = (*TrainedZoo)(nil)

// TrainedZooConfig controls zoo construction.
type TrainedZooConfig struct {
	// Dataset selects the family (dataset.MNISTLike or dataset.CIFARLike).
	Dataset dataset.Spec
	// Dist optionally pins the generative distribution D the zoo trains on,
	// so the edges of a deployment can draw their streams from the same D.
	// When nil a fresh D is drawn from the zoo's RNG.
	Dist *dataset.Distribution
	// TrainN and TestN are the pool sizes. TestN is the streamable pool
	// (the paper streams 8000 samples per edge; smaller pools keep tests
	// fast and only coarsen the loss distribution granularity).
	TrainN, TestN int
	// Epochs and LR drive SGD; BatchSize defaults to 16.
	Epochs    int
	LR        float64
	BatchSize int
	// Int8 opts the quantized arms into the true-INT8 execution engine
	// (nn.QuantizedNetwork): their score caches are produced by integer
	// kernels instead of the fake-quant float oracle. Off by default — the
	// committed results are the float oracle's and must not move.
	Int8 bool
}

// DefaultTrainedZooConfig returns a configuration sized for interactive use.
func DefaultTrainedZooConfig(spec dataset.Spec) TrainedZooConfig {
	return TrainedZooConfig{
		Dataset:   spec,
		TrainN:    1500,
		TestN:     2000,
		Epochs:    3,
		LR:        0.05,
		BatchSize: 16,
	}
}

// familySize is the number of models in every family zoo: two sizes each of
// three architectures.
const familySize = 6

// familyMembers is the paper's model family as constructors over an input
// shape: the four members both dataset families share, then the MNIST-like
// family's last two (MLPs), then the CIFAR-like family's last two
// (MobileNet-style). Channel counts are scaled down from the paper's (32/64
// and 64/128) so pure-Go training stays tractable; the capacity ordering —
// which is what differentiates model quality, energy, and size — is
// preserved. The small MobileNet variant is deliberately slim: it anchors the
// cheap end of the zoo's energy-accuracy trade-off (the model Greedy locks
// onto).
var familyMembers = [...]func(shape []int, k int, r *rand.Rand) *nn.Network{
	func(s []int, k int, r *rand.Rand) *nn.Network { return nn.BuildCNN("cnn-s", s, 8, 16, 32, k, r) },
	func(s []int, k int, r *rand.Rand) *nn.Network { return nn.BuildCNN("cnn-l", s, 16, 32, 64, k, r) },
	func(s []int, k int, r *rand.Rand) *nn.Network { return nn.BuildLeNet5("lenet-s", s, 1, k, r) },
	func(s []int, k int, r *rand.Rand) *nn.Network { return nn.BuildLeNet5("lenet-l", s, 2, k, r) },
	func(s []int, k int, r *rand.Rand) *nn.Network { return nn.BuildMLP("mlp-s", s, 64, 32, k, r) },
	func(s []int, k int, r *rand.Rand) *nn.Network { return nn.BuildMLP("mlp-l", s, 256, 128, k, r) },
	func(s []int, k int, r *rand.Rand) *nn.Network { return nn.BuildMobileCNN("mobile-s", s, 4, 8, k, r) },
	func(s []int, k int, r *rand.Rand) *nn.Network { return nn.BuildMobileCNN("mobile-l", s, 16, 32, k, r) },
}

// buildMember constructs model n (0 <= n < familySize) of spec's family with
// a fresh initialisation drawn from rng.
func buildMember(spec dataset.Spec, n int, rng *rand.Rand) *nn.Network {
	const own = len(familyMembers) - familySize // each family's last members are its own
	if n >= familySize-own && spec.Channels != 1 {
		n += own // skip the MNIST-like family's
	}
	return familyMembers[n]([]int{spec.Channels, spec.Height, spec.Width}, spec.Classes, rng)
}

// buildFamily constructs all six models in zoo order, drawing every
// initialisation from the one rng.
func buildFamily(spec dataset.Spec, rng *rand.Rand) []*nn.Network {
	nets := make([]*nn.Network, familySize)
	for n := range nets {
		nets[n] = buildMember(spec, n, rng)
	}
	return nets
}

// NewFamilyNetwork builds the untrained architecture of model n for the
// given dataset family — what an edge agent reconstructs locally before
// installing a checkpoint shipped by the cloud. Model indices match the
// zoo's ordering. The returned weights are an initialisation the caller
// overwrites (nn.ReadWeights, QuantizedWeights.ApplyTo): only model n is
// constructed, so they are not the values family construction would draw for
// it after its predecessors.
func NewFamilyNetwork(spec dataset.Spec, n int, rng *rand.Rand) (*nn.Network, error) {
	if n < 0 || n >= familySize {
		return nil, fmt.Errorf("models: family model index %d out of range [0, %d)", n, familySize)
	}
	return buildMember(spec, n, rng), nil
}

// FamilySize returns the number of models in every family zoo.
func FamilySize() int { return familySize }

// NewTrainedZoo generates the dataset, trains all six models, and
// precomputes the streaming caches. Deterministic given rng.
func NewTrainedZoo(cfg TrainedZooConfig, rng *rand.Rand) (*TrainedZoo, error) {
	z, _, err := trainZoo(cfg, rng)
	return z, err
}

// trainZoo is NewTrainedZoo, also handing back the test pool the caches were
// scored on, which the zoo itself does not keep.
func trainZoo(cfg TrainedZooConfig, rng *rand.Rand) (*TrainedZoo, []nn.Sample, error) {
	if cfg.Epochs <= 0 || cfg.LR <= 0 {
		return nil, nil, fmt.Errorf("models: invalid training config epochs=%d lr=%g", cfg.Epochs, cfg.LR)
	}
	if cfg.BatchSize == 0 {
		cfg.BatchSize = 16
	}
	if cfg.Dist == nil {
		dist, err := dataset.NewDistribution(cfg.Dataset, rng)
		if err != nil {
			return nil, nil, fmt.Errorf("distribution: %w", err)
		}
		cfg.Dist = dist
	}
	ds, err := dataset.GenerateFrom(cfg.Dist, cfg.TrainN, cfg.TestN, rng)
	if err != nil {
		return nil, nil, fmt.Errorf("generate dataset: %w", err)
	}
	nets := buildFamily(cfg.Dataset, rng)
	z := &TrainedZoo{
		nets:     nets,
		infos:    make([]Info, len(nets)),
		meanLoss: make([]float64, len(nets)),
		meanAcc:  make([]float64, len(nets)),
		losses:   make([][]float64, len(nets)),
		correct:  make([][]bool, len(nets)),
	}

	// Train every model and evaluate it over the full test pool once,
	// through the chunked batched scorer (bit-identical to the old
	// per-sample loop, just faster).
	//
	// The models train in parallel: the shared zoo RNG feeds nothing but the
	// per-epoch sample shuffles, so every shuffle's swap sequence is
	// pre-recorded here in the serial loop's exact draw order and replayed
	// inside the workers. Each model's arithmetic is otherwise independent
	// (family nets share no state), so the trained weights, the score caches,
	// and the RNG state handed back to the caller all match the serial build
	// bit for bit regardless of scheduling.
	swaps := make([][][][2]int, len(nets)) // [model][epoch][]{i, j}
	for n := range nets {
		swaps[n] = make([][][2]int, cfg.Epochs)
		for e := 0; e < cfg.Epochs; e++ {
			var rec [][2]int
			rng.Shuffle(len(ds.Train), func(i, j int) { rec = append(rec, [2]int{i, j}) })
			swaps[n][e] = rec
		}
	}
	errs := make([]error, len(nets))
	var wg sync.WaitGroup
	for n := range nets {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			epoch := 0
			replay := func(_ int, swap func(i, j int)) {
				for _, s := range swaps[n][epoch] {
					swap(s[0], s[1])
				}
				epoch++
			}
			if _, err := nn.TrainShuffled(nets[n], ds.Train, nn.TrainConfig{
				Epochs:    cfg.Epochs,
				BatchSize: cfg.BatchSize,
				LR:        cfg.LR,
			}, replay); err != nil {
				errs[n] = fmt.Errorf("train %s: %w", nets[n].Name, err)
				return
			}
			z.losses[n], z.correct[n], z.meanLoss[n], z.meanAcc[n] = nn.ScorePool(nets[n].ForwardBatch, ds.Test)
		}(n)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, nil, err
		}
	}

	// Derive the paper-calibrated metadata from real parameter/FLOP counts.
	minF, maxF := nets[0].ForwardFLOPs(), nets[0].ForwardFLOPs()
	for _, net := range nets[1:] {
		f := net.ForwardFLOPs()
		if f < minF {
			minF = f
		}
		if f > maxF {
			maxF = f
		}
	}
	for n, net := range nets {
		f := float64(net.ForwardFLOPs())
		z.infos[n] = Info{
			Name: net.Name,
			// W_n is the exact size of the serialized checkpoint the cloud
			// would ship to an edge.
			SizeBytes: nn.WireSize(net),
			PhiKWh: scaleToBand(f, float64(minF), float64(maxF),
				energy.MinInferEnergy, energy.MaxInferEnergy),
			BaseLatencySec: scaleToBand(f, float64(minF), float64(maxF),
				MinLatencySec, MaxLatencySec),
		}
	}
	return z, ds.Test, nil
}

// NumModels implements Zoo.
func (z *TrainedZoo) NumModels() int { return len(z.nets) }

// Info implements Zoo.
func (z *TrainedZoo) Info(n int) Info {
	validateIndex(n, len(z.infos))
	return z.infos[n]
}

// MeanLoss implements Zoo.
func (z *TrainedZoo) MeanLoss(n int) float64 {
	validateIndex(n, len(z.meanLoss))
	return z.meanLoss[n]
}

// MeanAccuracy returns the test-pool classification accuracy of model n.
func (z *TrainedZoo) MeanAccuracy(n int) float64 {
	validateIndex(n, len(z.meanAcc))
	return z.meanAcc[n]
}

// PoolSize implements Zoo.
func (z *TrainedZoo) PoolSize() int { return len(z.losses[0]) }

// BatchLoss implements Zoo via the precomputed per-sample caches.
func (z *TrainedZoo) BatchLoss(n int, indices []int, _ *rand.Rand) (float64, int) {
	validateIndex(n, len(z.losses))
	if len(indices) == 0 {
		return 0, 0
	}
	sum, correct := 0.0, 0
	for _, s := range indices {
		sum += z.losses[n][s]
		if z.correct[n][s] {
			correct++
		}
	}
	return sum / float64(len(indices)), correct
}

// Network returns the trained network of model n, the weights its checkpoint
// serializes. A quantized zoo's q8 arm holds no network and returns nil.
func (z *TrainedZoo) Network(n int) *nn.Network {
	validateIndex(n, len(z.nets))
	return z.nets[n]
}
