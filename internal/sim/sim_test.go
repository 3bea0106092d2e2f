package sim

import (
	"math"
	"testing"

	"github.com/carbonedge/carbonedge/internal/market"
	"github.com/carbonedge/carbonedge/internal/models"
	"github.com/carbonedge/carbonedge/internal/numeric"
)

// testScenario builds a small surrogate-backed scenario.
func testScenario(t testing.TB, edges, horizon int, seed int64) *Scenario {
	t.Helper()
	zoo, err := models.DefaultSurrogateZoo(numeric.SplitRNG(seed, "zoo"))
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(edges)
	cfg.Horizon = horizon
	cfg.Seed = seed
	s, err := NewScenario(cfg, zoo)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewScenarioErrors(t *testing.T) {
	zoo, err := models.DefaultSurrogateZoo(numeric.SplitRNG(1, "zoo"))
	if err != nil {
		t.Fatal(err)
	}
	bad := DefaultConfig(0)
	if _, err := NewScenario(bad, zoo); err == nil {
		t.Error("expected error for zero edges")
	}
	cfg := DefaultConfig(3)
	cfg.Horizon = 0
	if _, err := NewScenario(cfg, zoo); err == nil {
		t.Error("expected error for zero horizon")
	}
	cfg = DefaultConfig(3)
	if _, err := NewScenario(cfg, nil); err == nil {
		t.Error("expected error for nil zoo")
	}
	// Each scalar input refuses a negative or non-finite value.
	for _, v := range []float64{-1, math.NaN(), math.Inf(1)} {
		for _, field := range []*float64{&cfg.InitialCap, &cfg.EmissionRate, &cfg.SwitchWeight} {
			cfg = DefaultConfig(3)
			*field = v
			if _, err := NewScenario(cfg, zoo); err == nil {
				t.Errorf("cap %v, emission rate %v, switch weight %v accepted", cfg.InitialCap, cfg.EmissionRate, cfg.SwitchWeight)
			}
		}
	}
	cfg = DefaultConfig(3)
	cfg.MeanPeakWorkload = math.Inf(1)
	if _, err := NewScenario(cfg, zoo); err == nil {
		t.Error("expected error for an infinite mean workload")
	}
}

func TestNewScenarioWithTraces(t *testing.T) {
	zoo, err := models.DefaultSurrogateZoo(numeric.SplitRNG(1, "zoo"))
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(2)
	cfg.Horizon = 3
	wl := [][]int{{5, 6}, {7, 8}, {9, 10}}
	s, err := NewScenarioWithTraces(cfg, zoo, wl, nil)
	if err != nil {
		t.Fatalf("NewScenarioWithTraces: %v", err)
	}
	for tt := range wl {
		for i := range wl[tt] {
			if s.Workload[tt][i] != wl[tt][i] {
				t.Fatal("workload trace not honored")
			}
		}
	}
	// Dimension mismatches are rejected.
	if _, err := NewScenarioWithTraces(cfg, zoo, [][]int{{1, 2}}, nil); err == nil {
		t.Error("expected error for short workload trace")
	}
	if _, err := NewScenarioWithTraces(cfg, zoo, [][]int{{1}, {2}, {3}}, nil); err == nil {
		t.Error("expected error for wrong edge count")
	}
	badPrices := &market.Prices{Buy: []float64{8}, Sell: []float64{7}}
	if _, err := NewScenarioWithTraces(cfg, zoo, nil, badPrices); err == nil {
		t.Error("expected error for short price trace")
	}
	// A matching price trace is used verbatim.
	goodPrices := &market.Prices{Buy: []float64{8, 9, 10}, Sell: []float64{7.2, 8.1, 9}}
	s, err = NewScenarioWithTraces(cfg, zoo, nil, goodPrices)
	if err != nil {
		t.Fatal(err)
	}
	if s.Prices.Buy[0] != 8 {
		t.Errorf("price trace rescaled: %v", s.Prices.Buy[0])
	}
}

func TestScenarioShapes(t *testing.T) {
	s := testScenario(t, 5, 80, 2)
	if len(s.Delays) != 5 || len(s.CompCost) != 5 {
		t.Fatal("per-edge slices wrong length")
	}
	if len(s.Workload) != 80 {
		t.Fatalf("workload horizon = %d", len(s.Workload))
	}
	if s.Prices.Horizon() != 80 {
		t.Fatalf("price horizon = %d", s.Prices.Horizon())
	}
	for i := range s.CompCost {
		if len(s.CompCost[i]) != s.NumModels() {
			t.Fatal("CompCost row wrong length")
		}
		for _, v := range s.CompCost[i] {
			if v <= 0 {
				t.Fatal("non-positive computation cost")
			}
		}
	}
	if s.MeanEmissionPerSlot() <= 0 {
		t.Error("MeanEmissionPerSlot must be positive")
	}
	best := s.BestArm(0)
	if best < 0 || best >= s.NumModels() {
		t.Errorf("BestArm = %d", best)
	}
}

func TestRunProducesConsistentResult(t *testing.T) {
	s := testScenario(t, 5, 80, 3)
	res, err := Run(s, "Ours", PolicyOurs, TraderOurs)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(res.CumTotal) != 80 || len(res.Emissions) != 80 || len(res.Decisions) != 80 {
		t.Fatal("series lengths wrong")
	}
	// Cumulative cost is consistent with the breakdown.
	if math.Abs(res.CumTotal[79]-res.Cost.Total()) > 1e-9 {
		t.Errorf("CumTotal end %v != Cost.Total %v", res.CumTotal[79], res.Cost.Total())
	}
	// Each edge was always running exactly one model.
	for i, row := range res.Selections {
		total := 0
		for _, c := range row {
			total += c
		}
		if total != 80 {
			t.Errorf("edge %d selections sum to %d", i, total)
		}
	}
	// Emissions are positive whenever there is workload.
	for tt, e := range res.Emissions {
		if res.WorkloadTotal[tt] > 0 && e <= 0 {
			t.Errorf("slot %d: workload %d but emission %v", tt, res.WorkloadTotal[tt], e)
		}
	}
	if res.OverallAccuracy <= 0 || res.OverallAccuracy > 1 {
		t.Errorf("OverallAccuracy = %v", res.OverallAccuracy)
	}
	if res.Switches < 5 {
		t.Errorf("Switches = %d, want at least one initial download per edge", res.Switches)
	}
}

func TestRunDeterministic(t *testing.T) {
	s1 := testScenario(t, 4, 60, 4)
	s2 := testScenario(t, 4, 60, 4)
	r1, err := Run(s1, "Ours", PolicyOurs, TraderOurs)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(s2, "Ours", PolicyOurs, TraderOurs)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Cost.Total() != r2.Cost.Total() {
		t.Errorf("same seed, different totals: %v vs %v", r1.Cost.Total(), r2.Cost.Total())
	}
	if r1.Fit != r2.Fit {
		t.Errorf("same seed, different fits")
	}
}

func TestAllCombosRun(t *testing.T) {
	s := testScenario(t, 4, 60, 5)
	seen := make(map[string]bool)
	for _, combo := range Combos() {
		res, err := Run(s, combo.Name, combo.Policy, combo.Trader)
		if err != nil {
			t.Fatalf("combo %s: %v", combo.Name, err)
		}
		if seen[combo.Name] {
			t.Fatalf("duplicate combo name %s", combo.Name)
		}
		seen[combo.Name] = true
		if math.IsNaN(res.Cost.Total()) || math.IsInf(res.Cost.Total(), 0) {
			t.Fatalf("combo %s produced non-finite cost", combo.Name)
		}
	}
	if len(seen) != 13 { // Ours + 4 policies x 3 traders
		t.Errorf("got %d combos, want 13", len(seen))
	}
	if _, err := ComboByName("Ours"); err != nil {
		t.Error(err)
	}
	if _, err := ComboByName("nope"); err == nil {
		t.Error("expected error for unknown combo")
	}
}

func TestOfflineScheme(t *testing.T) {
	s := testScenario(t, 5, 80, 6)
	off, err := Offline(s)
	if err != nil {
		t.Fatalf("Offline: %v", err)
	}
	// Offline switches exactly once per edge.
	if off.Switches != 5 {
		t.Errorf("Offline switches = %d, want 5", off.Switches)
	}
	// Offline satisfies the long-term constraint exactly.
	if off.Fit > 1e-9 {
		t.Errorf("Offline fit = %v", off.Fit)
	}
	// Offline selections are pure per edge.
	for i, row := range off.Selections {
		nonzero := 0
		for _, c := range row {
			if c > 0 {
				nonzero++
			}
		}
		if nonzero != 1 {
			t.Errorf("edge %d used %d models", i, nonzero)
		}
	}
}

func TestOursBeatsBaselinesAndApproachesOffline(t *testing.T) {
	// The paper's headline (Figs. 3-4): Ours has the lowest total cost
	// among online schemes and is closest to Offline. Averaged over seeds
	// to wash out run noise.
	combosToBeat := []string{"Ran-Ran", "Ran-LY", "Greedy-Ran", "TINF-Ran", "UCB-Ran", "UCB-LY"}
	totals := make(map[string]float64)
	var offTotal, oursTotal float64
	const seeds = 3
	for seed := int64(10); seed < 10+seeds; seed++ {
		s := testScenario(t, 5, 160, seed)
		off, err := Offline(s)
		if err != nil {
			t.Fatal(err)
		}
		offTotal += off.Cost.Total()
		ours, err := Run(s, "Ours", PolicyOurs, TraderOurs)
		if err != nil {
			t.Fatal(err)
		}
		oursTotal += ours.Cost.Total()
		for _, name := range combosToBeat {
			combo, err := ComboByName(name)
			if err != nil {
				t.Fatal(err)
			}
			res, err := Run(s, combo.Name, combo.Policy, combo.Trader)
			if err != nil {
				t.Fatal(err)
			}
			totals[name] += res.Cost.Total()
		}
	}
	t.Logf("Offline total: %.2f", offTotal/seeds)
	t.Logf("Ours    total: %.2f", oursTotal/seeds)
	for name, total := range totals {
		t.Logf("%-10s total: %.2f", name, total/seeds)
		if oursTotal >= total {
			t.Errorf("Ours (%.2f) did not beat %s (%.2f)", oursTotal/seeds, name, total/seeds)
		}
	}
	if oursTotal < offTotal {
		t.Logf("note: Ours beat Offline (possible under transient constraint violations)")
	}
	// Ours tracks Offline within a factor of two at the paper's short
	// horizon (T=160 leaves real exploration cost on the table; the gap
	// closes as T grows, which TestRegretSublinear in the bench harness
	// verifies).
	if oursTotal > offTotal*2.0 {
		t.Errorf("Ours (%.2f) is not close to Offline (%.2f)", oursTotal/seeds, offTotal/seeds)
	}
}

func TestRegretP0(t *testing.T) {
	s := testScenario(t, 4, 80, 7)
	off, err := Offline(s)
	if err != nil {
		t.Fatal(err)
	}
	ours, err := Run(s, "Ours", PolicyOurs, TraderOurs)
	if err != nil {
		t.Fatal(err)
	}
	reg := RegretP0(ours, off)
	if math.IsNaN(reg) {
		t.Fatal("NaN regret")
	}
	if got := ours.Cost.Total() - off.Cost.Total(); math.Abs(reg-got) > 1e-12 {
		t.Errorf("RegretP0 = %v, want %v", reg, got)
	}
}

func TestNetBuySeries(t *testing.T) {
	s := testScenario(t, 3, 40, 8)
	res, err := Run(s, "Ours", PolicyOurs, TraderOurs)
	if err != nil {
		t.Fatal(err)
	}
	nb := res.NetBuySeries()
	if len(nb) != 40 {
		t.Fatalf("len = %d", len(nb))
	}
	for t2, v := range nb {
		want := res.Decisions[t2].Buy - res.Decisions[t2].Sell
		if v != want {
			t.Fatalf("net buy mismatch at %d", t2)
		}
	}
}
