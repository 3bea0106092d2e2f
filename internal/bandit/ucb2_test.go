package bandit

import (
	"math"
	"math/rand"
	"testing"
)

func TestUCB2ConstructorErrors(t *testing.T) {
	if _, err := NewUCB2(0, 0.5, 1); err == nil {
		t.Error("expected error for zero arms")
	}
	if _, err := NewUCB2(3, 0, 1); err == nil {
		t.Error("expected error for alpha = 0")
	}
	if _, err := NewUCB2(3, 1, 1); err == nil {
		t.Error("expected error for alpha = 1")
	}
	if _, err := NewUCB2(3, 0.5, 0); err == nil {
		t.Error("expected error for zero loss scale")
	}
}

func TestUCB2TriesEveryArmFirst(t *testing.T) {
	u, err := NewUCB2(5, 0.5, 1)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[int]bool)
	for i := 0; i < 5; i++ {
		arm := u.SelectArm()
		if seen[arm] {
			t.Fatalf("arm %d repeated before initialization finished", arm)
		}
		seen[arm] = true
		u.Update(0.5)
	}
}

func TestUCB2ConvergesToBestArm(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	means := []float64{0.8, 0.2, 0.6, 0.7} // best arm = 1 (lowest loss)
	u, err := NewUCB2(len(means), 0.3, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	const horizon = 20000
	_, _, pulls := runStochastic(t, u, means, 0.1, horizon, rng)
	frac := float64(pulls[1]) / horizon
	if frac < 0.7 {
		t.Errorf("best-arm fraction = %v (pulls=%v)", frac, pulls)
	}
}

func TestUCB2LogarithmicSwitches(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	means := []float64{0.5, 0.4, 0.6}
	u, err := NewUCB2(len(means), 0.5, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	const horizon = 30000
	_, switches, _ := runStochastic(t, u, means, 0.2, horizon, rng)
	// Epochs grow geometrically, so switches should be far below sqrt(T).
	if float64(switches) > math.Sqrt(horizon) {
		t.Errorf("switches = %d, want << sqrt(T) = %v", switches, math.Sqrt(horizon))
	}
	if got := u.switches; got != switches {
		t.Errorf("internal switches %d != observed %d", got, switches)
	}
}

func TestUCB2ProtocolEnforced(t *testing.T) {
	u, err := NewUCB2(2, 0.5, 1)
	if err != nil {
		t.Fatal(err)
	}
	u.SelectArm()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("double SelectArm must panic")
			}
		}()
		u.SelectArm()
	}()
	u.Update(0.3)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Update without SelectArm must panic")
			}
		}()
		u.Update(0.3)
	}()
}

func TestUCB2RewardClamping(t *testing.T) {
	u, err := NewUCB2(2, 0.5, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Losses above the scale or negative must not blow up the means.
	for i := 0; i < 10; i++ {
		u.SelectArm()
		u.Update(100)
	}
	for i := 0; i < 10; i++ {
		u.SelectArm()
		u.Update(-50)
	}
	for _, m := range u.means {
		if m < 0 || m > 1 {
			t.Errorf("mean reward %v escaped [0,1]", m)
		}
	}
}

func TestUCB2SelectionsAccounting(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	u, err := NewUCB2(3, 0.5, 1)
	if err != nil {
		t.Fatal(err)
	}
	const horizon = 777
	runStochastic(t, u, []float64{0.3, 0.3, 0.3}, 0.1, horizon, rng)
	total := 0
	for _, c := range u.selections {
		total += c
	}
	if total != horizon {
		t.Errorf("selections sum to %d, want %d", total, horizon)
	}
}

func TestUCB2TauMonotone(t *testing.T) {
	u, err := NewUCB2(2, 0.5, 1)
	if err != nil {
		t.Fatal(err)
	}
	prev := 0
	for r := 0; r < 30; r++ {
		cur := u.tau(r)
		if cur < prev {
			t.Fatalf("tau(%d) = %d < tau(%d) = %d", r, cur, r-1, prev)
		}
		prev = cur
	}
	if u.tau(0) != 1 {
		t.Errorf("tau(0) = %d, want 1", u.tau(0))
	}
}
