package bandit

import (
	"math"
	"math/rand"
	"testing"
)

// runStochastic plays a policy for horizon slots against arms whose losses
// are Gaussian around the given means, returning the cumulative realized
// loss and the number of arm switches observed by the caller.
func runStochastic(t *testing.T, p Policy, means []float64, sigma float64, horizon int, rng *rand.Rand) (totalLoss float64, switches int, pulls []int) {
	t.Helper()
	pulls = make([]int, len(means))
	prev := -1
	for slot := 0; slot < horizon; slot++ {
		arm := p.SelectArm()
		if arm < 0 || arm >= len(means) {
			t.Fatalf("arm %d out of range", arm)
		}
		if arm != prev {
			switches++
			prev = arm
		}
		pulls[arm]++
		loss := means[arm] + sigma*rng.NormFloat64()
		if loss < 0 {
			loss = 0
		}
		totalLoss += loss
		p.Update(loss)
	}
	return totalLoss, switches, pulls
}

func TestRandomPolicy(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	p, err := NewRandom(4, rng)
	if err != nil {
		t.Fatal(err)
	}
	if p.Name() != "Random" || p.NumArms() != 4 {
		t.Error("metadata mismatch")
	}
	counts := make([]int, 4)
	for i := 0; i < 40000; i++ {
		arm := p.SelectArm()
		counts[arm]++
		p.Update(0)
	}
	for i, c := range counts {
		if math.Abs(float64(c)/40000-0.25) > 0.02 {
			t.Errorf("arm %d frequency %v, want ~0.25", i, float64(c)/40000)
		}
	}
	if _, err := NewRandom(0, rng); err == nil {
		t.Error("expected error for zero arms")
	}
}

func TestGreedyPolicy(t *testing.T) {
	p, err := NewGreedy([]float64{3, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if got := p.SelectArm(); got != 1 {
			t.Fatalf("Greedy selected %d, want 1", got)
		}
		p.Update(100) // feedback must not change the choice
	}
	if _, err := NewGreedy(nil); err == nil {
		t.Error("expected error for empty scores")
	}
}

func TestFixedPolicy(t *testing.T) {
	p, err := NewFixed(2, 5)
	if err != nil {
		t.Fatal(err)
	}
	if p.SelectArm() != 2 {
		t.Error("Fixed did not play its arm")
	}
	if _, err := NewFixed(5, 5); err == nil {
		t.Error("expected error for out-of-range arm")
	}
	if _, err := NewFixed(-1, 5); err == nil {
		t.Error("expected error for negative arm")
	}
}

func TestBlockedConstructorErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	if _, err := NewBlockedTsallisINF(0, 1, rng); err == nil {
		t.Error("expected error for zero arms")
	}
	if _, err := NewBlockedTsallisINF(3, -1, rng); err == nil {
		t.Error("expected error for negative u")
	}
	if _, err := NewBlockedTsallisINF(3, math.NaN(), rng); err == nil {
		t.Error("expected error for NaN u")
	}
}

// TestBlockScheduleMatchesTheorem1 holds the block schedule to Theorem 1's
// constants, |B_k| = max(1, ceil(d_k)) and eta_k = 2/(d_k + 1) * sqrt(2/k)
// with d_k = (3u/2) sqrt(k/N), computed by hand in 40-digit decimal
// arithmetic rather than with the expression under test, so a typo shared by
// both cannot pass.
func TestBlockScheduleMatchesTheorem1(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	type row struct {
		k   int
		len int
		eta float64
	}
	for _, c := range []struct {
		n    int
		u    float64
		rows []row
	}{
		{6, 2.5, []row{
			{1, 2, 1.11754410729376977578},
			{2, 3, 0.63189885258906935154},
			{7, 5, 0.21167266864243379765},
			{50, 11, 0.03382573012520446032},
			{100, 16, 0.01734240731204102506},
		}},
		{3, 1, []row{
			{1, 1, 1.51574952785204799762},
			{2, 2, 0.89897948556635619639},
			{7, 3, 0.32481053532552483751},
			{50, 7, 0.05615040391186789310},
			{100, 9, 0.02927901392308863633},
		}},
		{10, 0.4, []row{
			{1, 1, 2.37735561218489685732},
			{2, 1, 1.57687897133626128541},
			{7, 1, 0.71174953616276472139},
			{50, 2, 0.17082039324993690892},
			{100, 2, 0.09762061620205019899},
		}},
	} {
		b, err := NewBlockedTsallisINF(c.n, c.u, rng)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range c.rows {
			if got := b.BlockLength(r.k); got != r.len {
				t.Errorf("N=%d u=%g: BlockLength(%d) = %d, Theorem 1 says %d", c.n, c.u, r.k, got, r.len)
			}
			if got := b.LearningRate(r.k); math.Abs(got-r.eta) > 1e-12 {
				t.Errorf("N=%d u=%g: LearningRate(%d) = %.17g, Theorem 1 says %.17g", c.n, c.u, r.k, got, r.eta)
			}
		}
		// Learning rates are non-increasing as Theorem 1 requires.
		for k := 2; k <= 100; k++ {
			if b.LearningRate(k) > b.LearningRate(k-1) {
				t.Fatalf("N=%d u=%g: eta increased at k=%d", c.n, c.u, k)
			}
		}
	}
}

func TestBlockScheduleCoversHorizon(t *testing.T) {
	// Theorem 1's proof: the first K* = N^{1/3}(T/u)^{2/3} + 1 blocks cover
	// the horizon T.
	rng := rand.New(rand.NewSource(4))
	for _, tc := range []struct {
		n int
		u float64
		T int
	}{
		{6, 0.5, 160}, {6, 2, 1000}, {3, 5, 5000}, {10, 1, 200},
	} {
		b, err := NewBlockedTsallisINF(tc.n, tc.u, rng)
		if err != nil {
			t.Fatal(err)
		}
		kStar := int(math.Pow(float64(tc.n), 1.0/3)*math.Pow(float64(tc.T)/tc.u, 2.0/3)) + 1
		sum := 0
		for k := 1; k <= kStar; k++ {
			sum += b.BlockLength(k)
		}
		if sum < tc.T {
			t.Errorf("n=%d u=%v T=%d: first %d blocks cover only %d slots", tc.n, tc.u, tc.T, kStar, sum)
		}
	}
}

func TestUnblockedIsLengthOne(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	b, err := NewTsallisINF(4, rng)
	if err != nil {
		t.Fatal(err)
	}
	if b.Name() != "TsallisINF" {
		t.Errorf("Name = %q", b.Name())
	}
	for k := 1; k <= 50; k++ {
		if b.BlockLength(k) != 1 {
			t.Fatalf("unblocked BlockLength(%d) = %d", k, b.BlockLength(k))
		}
	}
}

func TestBlockedProtocolEnforced(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	b, err := NewBlockedTsallisINF(3, 1, rng)
	if err != nil {
		t.Fatal(err)
	}
	b.SelectArm()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("double SelectArm must panic")
			}
		}()
		b.SelectArm()
	}()
	b.Update(1)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Update without SelectArm must panic")
			}
		}()
		b.Update(1)
	}()
}

func TestBlockedConvergesToBestArm(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	means := []float64{1.0, 0.4, 0.9, 1.2, 0.8, 1.1} // best arm = 1
	b, err := NewBlockedTsallisINF(len(means), 1.0, rng)
	if err != nil {
		t.Fatal(err)
	}
	const horizon = 20000
	_, _, pulls := runStochastic(t, b, means, 0.2, horizon, rng)
	frac := float64(pulls[1]) / horizon
	if frac < 0.7 {
		t.Errorf("best-arm fraction = %v, want >= 0.7 (pulls=%v)", frac, pulls)
	}
}

func TestBlockedSublinearRegret(t *testing.T) {
	// Average per-slot regret must shrink as the horizon grows.
	means := []float64{0.6, 0.3, 0.8, 0.5}
	best := 0.3
	avgRegret := func(horizon int, seed int64) float64 {
		rng := rand.New(rand.NewSource(seed))
		b, err := NewBlockedTsallisINF(len(means), 0.8, rng)
		if err != nil {
			t.Fatal(err)
		}
		total, _, _ := runStochastic(t, b, means, 0.15, horizon, rng)
		return (total - best*float64(horizon)) / float64(horizon)
	}
	short := (avgRegret(500, 8) + avgRegret(500, 9) + avgRegret(500, 10)) / 3
	long := (avgRegret(20000, 8) + avgRegret(20000, 9) + avgRegret(20000, 10)) / 3
	if long > short*0.6 {
		t.Errorf("per-slot regret did not shrink: short=%v long=%v", short, long)
	}
}

func TestBlockedFewerSwitchesThanUnblocked(t *testing.T) {
	means := []float64{0.5, 0.45, 0.55, 0.5, 0.6, 0.4}
	const horizon = 5000
	rngA := rand.New(rand.NewSource(11))
	blocked, err := NewBlockedTsallisINF(len(means), 3, rngA)
	if err != nil {
		t.Fatal(err)
	}
	_, swBlocked, _ := runStochastic(t, blocked, means, 0.3, horizon, rngA)

	rngB := rand.New(rand.NewSource(11))
	plain, err := NewTsallisINF(len(means), rngB)
	if err != nil {
		t.Fatal(err)
	}
	_, swPlain, _ := runStochastic(t, plain, means, 0.3, horizon, rngB)

	if swBlocked*3 > swPlain {
		t.Errorf("blocked switches %d not clearly below unblocked %d", swBlocked, swPlain)
	}
	// Internal switch counter agrees with external observation.
	if got := blocked.Switches(); got != swBlocked {
		t.Errorf("internal switches %d != observed %d", got, swBlocked)
	}
}

func TestBlockedSwitchesBoundedByBlocks(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	b, err := NewBlockedTsallisINF(5, 2, rng)
	if err != nil {
		t.Fatal(err)
	}
	runStochastic(t, b, []float64{1, 2, 3, 4, 5}, 0.5, 3000, rng)
	if b.Switches() > b.Blocks() {
		t.Errorf("switches %d exceed blocks %d", b.Switches(), b.Blocks())
	}
}

func TestUnbiasedEstimator(t *testing.T) {
	// Over many independent one-block runs with a fixed loss vector, the
	// mean of the importance-weighted estimate must converge to the true
	// per-arm loss (the paper's Line 8 unbiasedness claim).
	const trials = 60000
	losses := []float64{2.0, 5.0, 3.0}
	sums := make([]float64, len(losses))
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < trials; trial++ {
		b, err := NewTsallisINF(len(losses), rng)
		if err != nil {
			t.Fatal(err)
		}
		arm := b.SelectArm()
		b.Update(losses[arm])
		est := b.EstimatedLosses()
		for i, e := range est {
			sums[i] += e
		}
	}
	for i, want := range losses {
		got := sums[i] / trials
		if math.Abs(got-want) > 0.15 {
			t.Errorf("E[estimate[%d]] = %v, want %v", i, got, want)
		}
	}
}

func TestBlockedSelectionsAccounting(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	b, err := NewBlockedTsallisINF(4, 1, rng)
	if err != nil {
		t.Fatal(err)
	}
	const horizon = 1234
	runStochastic(t, b, []float64{1, 1, 1, 1}, 0.1, horizon, rng)
	total := 0
	for _, c := range b.Selections() {
		total += c
	}
	if total != horizon {
		t.Errorf("selection counts sum to %d, want %d", total, horizon)
	}
	// Probabilities of the current block form a distribution.
	p := b.Probabilities()
	sum := 0.0
	for _, v := range p {
		if v < 0 {
			t.Fatal("negative probability")
		}
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("probabilities sum to %v", sum)
	}
}

func TestBlockedDeterministicGivenSeed(t *testing.T) {
	run := func() []int {
		rng := rand.New(rand.NewSource(15))
		b, err := NewBlockedTsallisINF(4, 1.5, rng)
		if err != nil {
			t.Fatal(err)
		}
		arms := make([]int, 200)
		for i := range arms {
			arms[i] = b.SelectArm()
			b.Update(float64(arms[i]) * 0.3)
		}
		return arms
	}
	a, bb := run(), run()
	for i := range a {
		if a[i] != bb[i] {
			t.Fatal("same seed produced different arm sequences")
		}
	}
}

// mustPanic asserts fn panics (the policies' protocol-misuse contract).
func mustPanic(t *testing.T, name string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: expected panic", name)
		}
	}()
	fn()
}

// TestSkipContract: every policy implements Skipper; Skip replaces the
// Update of the preceding SelectArm, and for stateful policies it obeys the
// same alternation contract Update does.
func TestSkipContract(t *testing.T) {
	rng := func(s int64) *rand.Rand { return rand.New(rand.NewSource(s)) }
	blocked, err := NewBlockedTsallisINF(3, 1, rng(1))
	if err != nil {
		t.Fatal(err)
	}
	ucb2, err := NewUCB2(3, 0.5, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []Policy{blocked, ucb2} {
		s, ok := p.(Skipper)
		if !ok {
			t.Fatalf("%s does not implement Skipper", p.Name())
		}
		mustPanic(t, p.Name()+" skip-before-select", s.Skip)
		for slot := 0; slot < 20; slot++ {
			arm := p.SelectArm()
			if arm < 0 || arm >= p.NumArms() {
				t.Fatalf("%s: arm %d out of range", p.Name(), arm)
			}
			if slot%3 == 0 {
				s.Skip()
			} else {
				p.Update(0.4)
			}
		}
		mustPanic(t, p.Name()+" double-skip", func() { _ = p.SelectArm(); s.Skip(); s.Skip() })
	}

	// Stateless baselines tolerate Skip at any time.
	random, err := NewRandom(3, rng(4))
	if err != nil {
		t.Fatal(err)
	}
	greedy, err := NewGreedy([]float64{0.3, 0.1, 0.2})
	if err != nil {
		t.Fatal(err)
	}
	fixed, err := NewFixed(1, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []Policy{random, greedy, fixed} {
		s, ok := p.(Skipper)
		if !ok {
			t.Fatalf("%s does not implement Skipper", p.Name())
		}
		s.Skip() // no-op, never panics
		_ = p.SelectArm()
		s.Skip()
	}
}

// TestBlockedSkipKeepsEstimatorUnbiased pins Algorithm 1's degraded-mode
// semantics: skipped slots advance the block schedule but contribute no loss,
// so a fully-skipped block leaves the importance-weighted estimates
// untouched, while served slots keep feeding them.
func TestBlockedSkipKeepsEstimatorUnbiased(t *testing.T) {
	p, err := NewBlockedTsallisINF(3, 2, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	// Skip the entire first block.
	_ = p.SelectArm()
	firstBlock := p.Blocks()
	for {
		p.Skip()
		if p.Blocks() != firstBlock {
			t.Fatal("Blocks advanced without SelectArm")
		}
		// The next SelectArm starts a new block once the current is spent.
		_ = p.SelectArm()
		if p.Blocks() != firstBlock {
			break
		}
	}
	for _, e := range p.EstimatedLosses() {
		if e != 0 {
			t.Fatalf("skipped block leaked into the estimator: %v", p.EstimatedLosses())
		}
	}
	// Serve the current block normally: the estimator must move.
	p.Update(0.9)
	for block := p.Blocks(); p.Blocks() == block; {
		_ = p.SelectArm()
		p.Update(0.9)
	}
	moved := false
	for _, e := range p.EstimatedLosses() {
		if e != 0 {
			moved = true
		}
	}
	if !moved {
		t.Error("served block did not feed the estimator")
	}
}
