package bandit

import (
	"fmt"
	"math"
	"math/rand"

	"github.com/carbonedge/carbonedge/internal/numeric"
)

// EXP3 (Auer et al. 2002) is the classical adversarial bandit with
// exponential weights and importance-weighted loss estimates. It is not one
// of the paper's evaluated baselines but the standard reference point for
// adversarial bandits; it rounds out the policy set for ablations. Losses
// are normalized by lossScale into [0, 1].
type EXP3 struct {
	n         int
	gamma     float64 // exploration mix in (0, 1]
	lossScale float64
	rng       *rand.Rand

	weights []float64
	probs   []float64

	currentArm     int
	currentP       float64
	awaitingUpdate bool
	selections     []int
	switches       int
	prevArm        int
}

var _ Policy = (*EXP3)(nil)

// NewEXP3 creates an EXP3 policy. gamma in (0, 1] mixes uniform
// exploration; lossScale > 0 maps losses into [0, 1].
func NewEXP3(numArms int, gamma, lossScale float64, rng *rand.Rand) (*EXP3, error) {
	if numArms <= 0 {
		return nil, fmt.Errorf("bandit: numArms must be positive, got %d", numArms)
	}
	if gamma <= 0 || gamma > 1 {
		return nil, fmt.Errorf("bandit: gamma must be in (0,1], got %g", gamma)
	}
	if lossScale <= 0 {
		return nil, fmt.Errorf("bandit: lossScale must be positive, got %g", lossScale)
	}
	e := &EXP3{
		n:          numArms,
		gamma:      gamma,
		lossScale:  lossScale,
		rng:        rng,
		weights:    make([]float64, numArms),
		probs:      make([]float64, numArms),
		selections: make([]int, numArms),
		prevArm:    -1,
	}
	for i := range e.weights {
		e.weights[i] = 1
	}
	return e, nil
}

// Name implements Policy.
func (e *EXP3) Name() string { return "EXP3" }

// NumArms implements Policy.
func (e *EXP3) NumArms() int { return e.n }

// SelectArm implements Policy.
func (e *EXP3) SelectArm() int {
	if e.awaitingUpdate {
		//lint:allow panicpolicy Policy contract: SelectArm/Update must alternate; the interface has no error channel for misuse
		panic("bandit: SelectArm called twice without Update")
	}
	total := 0.0
	for _, w := range e.weights {
		total += w
	}
	for i, w := range e.weights {
		e.probs[i] = (1-e.gamma)*w/total + e.gamma/float64(e.n)
	}
	arm, err := numeric.SampleWeighted(e.rng, e.probs)
	if err != nil {
		//lint:allow panicpolicy solver failure on by-construction-finite inputs is a programmer error; Policy has no error channel
		panic(fmt.Sprintf("bandit: exp3 sampler: %v", err))
	}
	e.currentArm = arm
	e.currentP = e.probs[arm]
	e.awaitingUpdate = true
	e.selections[arm]++
	if arm != e.prevArm {
		e.switches++
		e.prevArm = arm
	}
	return arm
}

// Update implements Policy. The loss is clamped into [0, lossScale] before
// the exponential-weight update.
func (e *EXP3) Update(loss float64) {
	if !e.awaitingUpdate {
		//lint:allow panicpolicy Policy contract: SelectArm/Update must alternate; the interface has no error channel for misuse
		panic("bandit: Update called without SelectArm")
	}
	e.awaitingUpdate = false
	norm := numeric.Clamp(loss/e.lossScale, 0, 1)
	// Reward form: estimated gain of the played arm.
	gainEst := (1 - norm) / e.currentP
	e.weights[e.currentArm] *= math.Exp(e.gamma * gainEst / float64(e.n))
	// Keep weights bounded to avoid overflow on long horizons.
	const maxWeight = 1e150
	if e.weights[e.currentArm] > maxWeight {
		for i := range e.weights {
			e.weights[i] /= maxWeight
			if e.weights[i] < 1e-300 {
				e.weights[i] = 1e-300
			}
		}
	}
}

// Skip implements Skipper: the unserved slot leaves the weights untouched.
func (e *EXP3) Skip() {
	if !e.awaitingUpdate {
		//lint:allow panicpolicy Policy contract: SelectArm/Update-or-Skip must alternate; the interface has no error channel for misuse
		panic("bandit: Skip called without SelectArm")
	}
	e.awaitingUpdate = false
}

// Switches returns arm changes so far (counting the first pick).
func (e *EXP3) Switches() int { return e.switches }

// Selections returns per-arm play counts (copy).
func (e *EXP3) Selections() []int {
	out := make([]int, len(e.selections))
	copy(out, e.selections)
	return out
}

// EpsilonGreedy plays the empirically best arm with probability 1-epsilon
// and explores uniformly otherwise — the simplest stochastic-bandit
// reference point.
type EpsilonGreedy struct {
	n       int
	epsilon float64
	rng     *rand.Rand

	means  []float64
	counts []int

	currentArm     int
	awaitingUpdate bool
}

var _ Policy = (*EpsilonGreedy)(nil)

// NewEpsilonGreedy creates the policy; epsilon in [0, 1].
func NewEpsilonGreedy(numArms int, epsilon float64, rng *rand.Rand) (*EpsilonGreedy, error) {
	if numArms <= 0 {
		return nil, fmt.Errorf("bandit: numArms must be positive, got %d", numArms)
	}
	if epsilon < 0 || epsilon > 1 {
		return nil, fmt.Errorf("bandit: epsilon must be in [0,1], got %g", epsilon)
	}
	return &EpsilonGreedy{
		n:       numArms,
		epsilon: epsilon,
		rng:     rng,
		means:   make([]float64, numArms),
		counts:  make([]int, numArms),
	}, nil
}

// Name implements Policy.
func (e *EpsilonGreedy) Name() string { return "EpsilonGreedy" }

// NumArms implements Policy.
func (e *EpsilonGreedy) NumArms() int { return e.n }

// SelectArm implements Policy.
func (e *EpsilonGreedy) SelectArm() int {
	if e.awaitingUpdate {
		//lint:allow panicpolicy Policy contract: SelectArm/Update must alternate; the interface has no error channel for misuse
		panic("bandit: SelectArm called twice without Update")
	}
	arm := -1
	// Untried arms first.
	for i, c := range e.counts {
		if c == 0 {
			arm = i
			break
		}
	}
	if arm < 0 {
		if e.rng.Float64() < e.epsilon {
			arm = e.rng.Intn(e.n)
		} else {
			arm = numeric.ArgMin(e.means)
		}
	}
	e.currentArm = arm
	e.awaitingUpdate = true
	return arm
}

// Update implements Policy.
func (e *EpsilonGreedy) Update(loss float64) {
	if !e.awaitingUpdate {
		//lint:allow panicpolicy Policy contract: SelectArm/Update must alternate; the interface has no error channel for misuse
		panic("bandit: Update called without SelectArm")
	}
	e.awaitingUpdate = false
	j := e.currentArm
	e.counts[j]++
	e.means[j] += (loss - e.means[j]) / float64(e.counts[j])
}

// Skip implements Skipper: the unserved slot leaves means and counts alone.
func (e *EpsilonGreedy) Skip() {
	if !e.awaitingUpdate {
		//lint:allow panicpolicy Policy contract: SelectArm/Update-or-Skip must alternate; the interface has no error channel for misuse
		panic("bandit: Skip called without SelectArm")
	}
	e.awaitingUpdate = false
}
