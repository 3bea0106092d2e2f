package bandit

import (
	"fmt"
	"math"
)

// UCB2 is the paper's second switching-aware baseline (Auer, Cesa-Bianchi &
// Fischer 2002; applied with switching costs by Le, Szepesvari & Zheng
// 2014). Arms are played in epochs: when arm j enters its r-th epoch it is
// played for tau(r+1) - tau(r) consecutive slots with tau(r) =
// ceil((1+alpha)^r), which bounds the number of switches by O(log T).
//
// UCB2 assumes rewards in [0, 1]; losses are mapped to rewards via
// reward = 1 - loss/LossScale (clamped), so LossScale should upper-bound the
// per-slot loss.
type UCB2 struct {
	n         int
	alpha     float64
	lossScale float64

	means  []float64 // running mean reward per arm
	counts []int     // plays per arm
	epochs []int     // r_j: completed epochs per arm
	t      int       // total plays so far

	currentArm int
	remaining  int

	awaitingUpdate bool
}

var _ Policy = (*UCB2)(nil)

// NewUCB2 creates the UCB2 baseline. alpha in (0, 1) controls epoch growth
// (smaller alpha = longer epochs); lossScale > 0 normalizes losses.
func NewUCB2(numArms int, alpha, lossScale float64) (*UCB2, error) {
	if numArms <= 0 {
		return nil, fmt.Errorf("bandit: numArms must be positive, got %d", numArms)
	}
	if alpha <= 0 || alpha >= 1 {
		return nil, fmt.Errorf("bandit: alpha must be in (0,1), got %g", alpha)
	}
	if lossScale <= 0 {
		return nil, fmt.Errorf("bandit: lossScale must be positive, got %g", lossScale)
	}
	return &UCB2{
		n:          numArms,
		alpha:      alpha,
		lossScale:  lossScale,
		means:      make([]float64, numArms),
		counts:     make([]int, numArms),
		epochs:     make([]int, numArms),
		currentArm: -1,
	}, nil
}

// NumArms implements Policy.
func (u *UCB2) NumArms() int { return u.n }

// tau is the UCB2 epoch length function tau(r) = ceil((1+alpha)^r).
func (u *UCB2) tau(r int) int {
	return int(math.Ceil(math.Pow(1+u.alpha, float64(r))))
}

// bonus is the UCB2 exploration bonus a_{t,r}.
func (u *UCB2) bonus(r int) float64 {
	tr := float64(u.tau(r))
	t := math.Max(float64(u.t), 1)
	arg := math.E * t / tr
	if arg < math.E {
		arg = math.E
	}
	return math.Sqrt((1 + u.alpha) * math.Log(arg) / (2 * tr))
}

// SelectArm implements Policy.
func (u *UCB2) SelectArm() int {
	if u.awaitingUpdate {
		//lint:allow panicpolicy Policy contract: SelectArm/Update must alternate; the interface has no error channel for misuse
		panic("bandit: SelectArm called twice without Update")
	}
	if u.remaining == 0 {
		u.startEpoch()
	}
	u.awaitingUpdate = true
	return u.currentArm
}

// startEpoch picks the next arm. Each arm is tried once first; afterwards
// the arm with the highest mean reward + bonus wins and is played for
// tau(r+1) - tau(r) slots.
func (u *UCB2) startEpoch() {
	next := -1
	// Initialization phase: play every arm once.
	for j := 0; j < u.n; j++ {
		if u.counts[j] == 0 {
			next = j
			break
		}
	}
	if next < 0 {
		bestVal := math.Inf(-1)
		for j := 0; j < u.n; j++ {
			v := u.means[j] + u.bonus(u.epochs[j])
			if v > bestVal {
				bestVal, next = v, j
			}
		}
	}
	u.currentArm = next
	if u.counts[next] == 0 {
		u.remaining = 1
	} else {
		r := u.epochs[next]
		u.remaining = u.tau(r+1) - u.tau(r)
		if u.remaining < 1 {
			u.remaining = 1
		}
		u.epochs[next] = r + 1
	}
}

// Update implements Policy.
func (u *UCB2) Update(loss float64) {
	if !u.awaitingUpdate {
		//lint:allow panicpolicy Policy contract: SelectArm/Update must alternate; the interface has no error channel for misuse
		panic("bandit: Update called without SelectArm")
	}
	u.awaitingUpdate = false
	reward := 1 - loss/u.lossScale
	if reward < 0 {
		reward = 0
	}
	if reward > 1 {
		reward = 1
	}
	j := u.currentArm
	u.counts[j]++
	u.t++
	u.means[j] += (reward - u.means[j]) / float64(u.counts[j])
	u.remaining--
}

// Skip implements Policy: the unserved slot still consumes one slot of the
// current epoch (epochs track real time) but is not counted as a play, so
// the arm's mean reward reflects only served slots.
func (u *UCB2) Skip() {
	if !u.awaitingUpdate {
		//lint:allow panicpolicy Policy contract: SelectArm/Update-or-Skip must alternate; the interface has no error channel for misuse
		panic("bandit: Skip called without SelectArm")
	}
	u.awaitingUpdate = false
	u.remaining--
}
