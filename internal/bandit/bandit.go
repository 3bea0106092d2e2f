// Package bandit implements the paper's model-selection subproblem P1.
//
// The centerpiece is Algorithm 1 — a switching-aware bandit that combines
// Tsallis-INF (online mirror descent with the alpha=1/2 Tsallis entropy
// regularizer) with a block schedule of increasing length: the arm (model) is
// resampled only at block boundaries, which bounds the number of model
// switches by the number of blocks and yields the paper's
// O((uN)^{2/3} T^{1/3} + u^2 + ln T) regret-plus-switching bound (Theorem 1).
//
// The package also carries the paper's comparison baselines: unblocked
// Tsallis-INF, UCB2 (which bounds switches via its own epoch schedule),
// Random, and energy-Greedy, all behind one Policy interface so the
// simulator can mix and match combinations exactly as the evaluation does.
package bandit

import (
	"fmt"
	"math/rand"
)

// Policy is a per-edge sequential model-selection strategy. Each time slot
// the simulator calls SelectArm exactly once and then either Update exactly
// once with the observed loss sample for the selected arm (the paper's
// L_{i,n}^t + v_{i,n}) or, for a slot that was never served, Skip.
type Policy interface {
	Skipper

	// NumArms returns the number of models the policy chooses between.
	NumArms() int
	// SelectArm returns the arm to play this slot.
	SelectArm() int
	// Update feeds back the loss observed for the arm returned by the
	// immediately preceding SelectArm call.
	Update(loss float64)
}

// Skipper is the Policy method that acknowledges a selected but
// never-served slot (an edge that was down produced no loss sample). Skip
// replaces the Update of the immediately preceding SelectArm: the slot
// contributes nothing to the policy's loss estimates, so importance-weighted
// estimators stay unbiased over the slots actually served, while internal
// block/epoch schedules still advance with real time.
type Skipper interface {
	// Skip acknowledges the preceding SelectArm without feeding back a loss.
	Skip()
}

// Random selects a uniformly random model each slot (paper baseline
// "Random").
type Random struct {
	n   int
	rng *rand.Rand
}

var _ Policy = (*Random)(nil)

// NewRandom creates the Random baseline.
func NewRandom(numArms int, rng *rand.Rand) (*Random, error) {
	if numArms <= 0 {
		return nil, fmt.Errorf("bandit: numArms must be positive, got %d", numArms)
	}
	return &Random{n: numArms, rng: rng}, nil
}

// NumArms implements Policy.
func (r *Random) NumArms() int { return r.n }

// SelectArm implements Policy.
func (r *Random) SelectArm() int { return r.rng.Intn(r.n) }

// Update implements Policy.
func (r *Random) Update(float64) {}

// Skip implements Policy; Random keeps no loss state.
func (r *Random) Skip() {}

// Greedy always selects the model with the lowest score (the paper's Greedy
// picks the model with the lowest energy consumption). It never explores.
type Greedy struct {
	best int
	n    int
}

var _ Policy = (*Greedy)(nil)

// NewGreedy creates the Greedy baseline over a static score vector
// (typically per-sample energy phi_n).
func NewGreedy(scores []float64) (*Greedy, error) {
	if len(scores) == 0 {
		return nil, fmt.Errorf("bandit: empty score vector")
	}
	best := 0
	for i, s := range scores {
		if s < scores[best] {
			best = i
		}
	}
	return &Greedy{best: best, n: len(scores)}, nil
}

// NumArms implements Policy.
func (g *Greedy) NumArms() int { return g.n }

// SelectArm implements Policy.
func (g *Greedy) SelectArm() int { return g.best }

// Update implements Policy.
func (g *Greedy) Update(float64) {}

// Skip implements Policy; Greedy keeps no loss state.
func (g *Greedy) Skip() {}

// Fixed always plays one arm; it implements the hindsight-best-arm
// comparator used for regret accounting and the Offline scheme.
type Fixed struct {
	arm int
	n   int
}

var _ Policy = (*Fixed)(nil)

// NewFixed pins the policy to one arm out of numArms.
func NewFixed(arm, numArms int) (*Fixed, error) {
	if numArms <= 0 || arm < 0 || arm >= numArms {
		return nil, fmt.Errorf("bandit: arm %d out of range [0, %d)", arm, numArms)
	}
	return &Fixed{arm: arm, n: numArms}, nil
}

// NumArms implements Policy.
func (f *Fixed) NumArms() int { return f.n }

// SelectArm implements Policy.
func (f *Fixed) SelectArm() int { return f.arm }

// Update implements Policy.
func (f *Fixed) Update(float64) {}

// Skip implements Policy; Fixed keeps no loss state.
func (f *Fixed) Skip() {}
