package bandit

import (
	"fmt"
	"math"
	"math/rand"

	"github.com/carbonedge/carbonedge/internal/numeric"
)

// BlockedTsallisINF is the paper's Algorithm 1: online model selection with
// bounded switching via block-wise Tsallis-INF.
//
// For edge i with download cost u and N models, block k has length
//
//	|B_k| = max(ceil(d_k), 1),  d_k = (3*u/2) * sqrt(k/N)
//
// and learning rate
//
//	eta_k = 2/(d_k + 1) * sqrt(2/k).
//
// The arm J_k is drawn once per block from the Tsallis OMD distribution over
// cumulative importance-weighted loss estimates; the per-block cumulative
// loss c_{k,J} is fed back through the unbiased estimator c_{k,J}/p_{k,J}.
//
// Setting u = 0 degenerates the block schedule to length-1 blocks and
// recovers plain (anytime) Tsallis-INF, which is exactly the paper's
// unblocked "Tsallis-INF" baseline; NewTsallisINF exposes that directly.
type BlockedTsallisINF struct {
	n   int
	u   float64
	rng *rand.Rand

	estLoss []float64 // \hat{C}: cumulative importance-weighted losses
	probs   []float64 // p_{k,n} of the current block

	k          int // current block index (1-based once started)
	remaining  int // slots remaining in the current block
	currentArm int
	currentP   float64 // probability with which currentArm was drawn
	blockLoss  float64 // accumulated loss within the current block

	awaitingUpdate bool
}

var _ Policy = (*BlockedTsallisINF)(nil)

// NewBlockedTsallisINF creates Algorithm 1 for one edge. u is the edge's
// model-download (switching) cost u_i; larger u yields longer blocks and
// fewer switches.
func NewBlockedTsallisINF(numArms int, u float64, rng *rand.Rand) (*BlockedTsallisINF, error) {
	if numArms <= 0 {
		return nil, fmt.Errorf("bandit: numArms must be positive, got %d", numArms)
	}
	if u < 0 || math.IsNaN(u) || math.IsInf(u, 0) {
		return nil, fmt.Errorf("bandit: invalid switching cost u=%g", u)
	}
	return &BlockedTsallisINF{
		n:          numArms,
		u:          u,
		rng:        rng,
		estLoss:    make([]float64, numArms),
		probs:      make([]float64, numArms),
		currentArm: -1,
	}, nil
}

// NewTsallisINF creates the paper's unblocked Tsallis-INF baseline (block
// length 1, anytime learning rate), which ignores switching cost.
func NewTsallisINF(numArms int, rng *rand.Rand) (*BlockedTsallisINF, error) {
	return NewBlockedTsallisINF(numArms, 0, rng)
}

// BlockLength returns |B_k| for 1-based block index k.
func (b *BlockedTsallisINF) BlockLength(k int) int {
	d := b.d(k)
	l := int(math.Ceil(d))
	if l < 1 {
		l = 1
	}
	return l
}

// LearningRate returns eta_k for 1-based block index k.
func (b *BlockedTsallisINF) LearningRate(k int) float64 {
	return 2 / (b.d(k) + 1) * math.Sqrt(2/float64(k))
}

// d computes d_k = (3u/2) sqrt(k/N).
func (b *BlockedTsallisINF) d(k int) float64 {
	return float64(1.5 * b.u * math.Sqrt(float64(k)/float64(b.n)))
}

// NumArms implements Policy.
func (b *BlockedTsallisINF) NumArms() int { return b.n }

// SelectArm implements Policy.
func (b *BlockedTsallisINF) SelectArm() int {
	if b.awaitingUpdate {
		//lint:allow panicpolicy Policy contract: SelectArm/Update must alternate; the interface has no error channel for misuse
		panic("bandit: SelectArm called twice without Update")
	}
	if b.remaining == 0 {
		b.startBlock()
	}
	b.awaitingUpdate = true
	return b.currentArm
}

// startBlock begins block k+1: recompute the OMD distribution and draw the
// block's arm.
func (b *BlockedTsallisINF) startBlock() {
	b.k++
	eta := b.LearningRate(b.k)
	if _, err := numeric.TsallisWeights(b.estLoss, eta, b.probs); err != nil {
		// The loss estimates are finite by construction, so the solver can
		// only fail on programmer error; fail loudly rather than silently
		// biasing exploration.
		//lint:allow panicpolicy solver failure on by-construction-finite inputs is a programmer error; Policy has no error channel
		panic(fmt.Sprintf("bandit: tsallis step failed: %v", err))
	}
	arm, err := numeric.SampleWeighted(b.rng, b.probs)
	if err != nil {
		//lint:allow panicpolicy solver failure on by-construction-finite inputs is a programmer error; Policy has no error channel
		panic(fmt.Sprintf("bandit: sampler: %v", err))
	}
	b.currentArm = arm
	b.currentP = b.probs[arm]
	b.remaining = b.BlockLength(b.k)
	b.blockLoss = 0
}

// Update implements Policy.
func (b *BlockedTsallisINF) Update(loss float64) {
	if !b.awaitingUpdate {
		//lint:allow panicpolicy Policy contract: SelectArm/Update must alternate; the interface has no error channel for misuse
		panic("bandit: Update called without SelectArm")
	}
	b.awaitingUpdate = false
	b.blockLoss += loss
	b.remaining--
	if b.remaining == 0 {
		// End of block: unbiased importance-weighted estimate.
		b.estLoss[b.currentArm] += b.blockLoss / b.currentP
	}
}

// Skip implements Policy: the slot counts against the current block (the
// block schedule tracks real time slots), but contributes no loss to the
// block's estimate, so the end-of-block importance-weighted estimator sums
// only the losses of slots actually served and stays unbiased for them.
func (b *BlockedTsallisINF) Skip() {
	if !b.awaitingUpdate {
		//lint:allow panicpolicy Policy contract: SelectArm/Update-or-Skip must alternate; the interface has no error channel for misuse
		panic("bandit: Skip called without SelectArm")
	}
	b.awaitingUpdate = false
	b.remaining--
	if b.remaining == 0 {
		b.estLoss[b.currentArm] += b.blockLoss / b.currentP
	}
}

// Blocks returns how many blocks have been started.
func (b *BlockedTsallisINF) Blocks() int { return b.k }

// Probabilities returns the sampling distribution of the current block
// (copy); useful for tests and diagnostics.
func (b *BlockedTsallisINF) Probabilities() []float64 {
	out := make([]float64, len(b.probs))
	copy(out, b.probs)
	return out
}

// EstimatedLosses returns the cumulative importance-weighted loss estimates
// (copy).
func (b *BlockedTsallisINF) EstimatedLosses() []float64 {
	out := make([]float64, len(b.estLoss))
	copy(out, b.estLoss)
	return out
}
