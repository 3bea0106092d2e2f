package engine

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/carbonedge/carbonedge/internal/core"
	"github.com/carbonedge/carbonedge/internal/market"
)

// fakeStepper is a deterministic pure-function edge: every observation is
// derived from (edge, slot, arm) plus a private RNG stream, mimicking how
// real steppers confine randomness per edge.
type fakeStepper struct {
	edge int
	rng  *rand.Rand
	// failAt, when >= 0, makes Step fail at that slot.
	failAt int
}

func newFakeStepper(edge int, seed int64) *fakeStepper {
	return &fakeStepper{edge: edge, rng: rand.New(rand.NewSource(seed + int64(edge))), failAt: -1}
}

func (f *fakeStepper) Step(slot, arm int, download bool) (Observation, error) {
	if f.failAt == slot {
		return Observation{}, fmt.Errorf("injected failure")
	}
	m := 3 + (slot+f.edge)%4
	return Observation{
		Loss:        0.5 + 0.1*float64(arm) + 0.01*f.rng.Float64(),
		InferLoss:   0.4 + 0.1*float64(arm),
		Compute:     0.05 * float64(f.edge+1),
		Correct:     m - 1,
		Samples:     m,
		InferKWh:    1e-4 * float64(m),
		TransferKWh: 1e-3,
	}, nil
}

func testPrices(horizon int) *market.Prices {
	p := &market.Prices{Buy: make([]float64, horizon), Sell: make([]float64, horizon)}
	for t := range p.Buy {
		p.Buy[t] = 8 + math.Sin(float64(t))
		p.Sell[t] = p.Buy[t] * 0.9
	}
	return p
}

func testController(t *testing.T, edges, models, horizon int) *core.Controller {
	t.Helper()
	costs := make([]float64, edges)
	for i := range costs {
		costs[i] = 0.5 + 0.1*float64(i)
	}
	ctrl, err := core.New(core.Config{
		NumModels:     models,
		DownloadCosts: costs,
		Horizon:       horizon,
		InitialCap:    2,
		EmissionScale: 0.01,
		PriceScale:    8,
		Seed:          7,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ctrl
}

func testConfig(edges, horizon int) Config {
	costs := make([]float64, edges)
	for i := range costs {
		costs[i] = 0.5 + 0.1*float64(i)
	}
	return Config{
		Name:         "test",
		Horizon:      horizon,
		NumModels:    4,
		InitialCap:   2,
		EmissionRate: 500,
		Prices:       testPrices(horizon),
		SwitchCosts:  costs,
	}
}

func TestRunValidation(t *testing.T) {
	const edges, horizon = 3, 10
	mkSteppers := func() []EdgeStepper {
		out := make([]EdgeStepper, edges)
		for i := range out {
			out[i] = newFakeStepper(i, 1)
		}
		return out
	}
	tests := []struct {
		name string
		run  func() error
	}{
		{"nil controller", func() error {
			_, err := Run(testConfig(edges, horizon), nil, mkSteppers())
			return err
		}},
		{"no edges", func() error {
			_, err := Run(testConfig(edges, horizon), testController(t, edges, 4, horizon), nil)
			return err
		}},
		{"edge count mismatch", func() error {
			_, err := Run(testConfig(edges, horizon), testController(t, edges+1, 4, horizon), mkSteppers())
			return err
		}},
		{"nil stepper", func() error {
			s := mkSteppers()
			s[1] = nil
			_, err := Run(testConfig(edges, horizon), testController(t, edges, 4, horizon), s)
			return err
		}},
		{"zero horizon", func() error {
			cfg := testConfig(edges, horizon)
			cfg.Horizon = 0
			_, err := Run(cfg, testController(t, edges, 4, horizon), mkSteppers())
			return err
		}},
		{"zero models", func() error {
			cfg := testConfig(edges, horizon)
			cfg.NumModels = 0
			_, err := Run(cfg, testController(t, edges, 4, horizon), mkSteppers())
			return err
		}},
		{"switch cost mismatch", func() error {
			cfg := testConfig(edges, horizon)
			cfg.SwitchCosts = cfg.SwitchCosts[:1]
			_, err := Run(cfg, testController(t, edges, 4, horizon), mkSteppers())
			return err
		}},
		{"short prices", func() error {
			cfg := testConfig(edges, horizon)
			cfg.Prices = testPrices(horizon - 1)
			_, err := Run(cfg, testController(t, edges, 4, horizon), mkSteppers())
			return err
		}},
		{"negative rate", func() error {
			cfg := testConfig(edges, horizon)
			cfg.EmissionRate = -1
			_, err := Run(cfg, testController(t, edges, 4, horizon), mkSteppers())
			return err
		}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := tt.run(); err == nil {
				t.Error("expected error")
			}
		})
	}
}

func TestRunAccounting(t *testing.T) {
	const edges, horizon = 3, 40
	steppers := make([]EdgeStepper, edges)
	for i := range steppers {
		steppers[i] = newFakeStepper(i, 2)
	}
	res, err := Run(testConfig(edges, horizon), testController(t, edges, 4, horizon), steppers)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.CumTotal) != horizon || len(res.Emissions) != horizon || len(res.Decisions) != horizon {
		t.Fatal("series lengths wrong")
	}
	if math.Abs(res.CumTotal[horizon-1]-res.Cost.Total()) > 1e-9 {
		t.Errorf("CumTotal end %v != Cost.Total %v", res.CumTotal[horizon-1], res.Cost.Total())
	}
	for i, row := range res.Selections {
		total := 0
		for _, c := range row {
			total += c
		}
		if total != horizon {
			t.Errorf("edge %d selections sum to %d, want %d", i, total, horizon)
		}
	}
	if res.Switches < edges {
		t.Errorf("Switches = %d, want at least one initial download per edge", res.Switches)
	}
	if res.OverallAccuracy <= 0 || res.OverallAccuracy > 1 {
		t.Errorf("OverallAccuracy = %v", res.OverallAccuracy)
	}
	for tt, e := range res.Emissions {
		if e <= 0 {
			t.Errorf("slot %d emission %v, want positive", tt, e)
		}
	}
}

func TestRunDeterministicAcrossWorkerCounts(t *testing.T) {
	const edges, horizon = 8, 60
	runWith := func(workers int) *Result {
		steppers := make([]EdgeStepper, edges)
		for i := range steppers {
			steppers[i] = newFakeStepper(i, 3)
		}
		cfg := testConfig(edges, horizon)
		cfg.Workers = workers
		res, err := Run(cfg, testController(t, edges, 4, horizon), steppers)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	serial := runWith(1)
	for _, workers := range []int{2, 4, edges, edges + 5} {
		if got := runWith(workers); !reflect.DeepEqual(serial, got) {
			t.Errorf("workers=%d diverged from serial result", workers)
		}
	}
}

func TestRunReportsFirstFailingEdge(t *testing.T) {
	const edges, horizon = 4, 20
	steppers := make([]EdgeStepper, edges)
	for i := range steppers {
		f := newFakeStepper(i, 4)
		if i == 1 || i == 3 {
			f.failAt = 5
		}
		steppers[i] = f
	}
	cfg := testConfig(edges, horizon)
	cfg.Workers = edges
	_, err := Run(cfg, testController(t, edges, 4, horizon), steppers)
	if err == nil {
		t.Fatal("expected error")
	}
	if !strings.Contains(err.Error(), "edge 1 slot 5") {
		t.Errorf("err = %v, want deterministic first failure (edge 1 slot 5)", err)
	}
}

func TestResultWriteJSONAndNetBuy(t *testing.T) {
	const edges, horizon = 2, 15
	steppers := make([]EdgeStepper, edges)
	for i := range steppers {
		steppers[i] = newFakeStepper(i, 5)
	}
	res, err := Run(testConfig(edges, horizon), testController(t, edges, 4, horizon), steppers)
	if err != nil {
		t.Fatal(err)
	}
	nb := res.NetBuySeries()
	if len(nb) != horizon {
		t.Fatalf("net buy length %d", len(nb))
	}
	for t2, v := range nb {
		if want := res.Decisions[t2].Buy - res.Decisions[t2].Sell; v != want {
			t.Fatalf("net buy mismatch at %d", t2)
		}
	}
	var sb strings.Builder
	if err := res.WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{`"totalCost"`, `"cumTotal"`, `"selections"`} {
		if !strings.Contains(sb.String(), key) {
			t.Errorf("JSON missing %s", key)
		}
	}
}

// panicStepper panics at a chosen slot; other slots delegate to a fake.
type panicStepper struct {
	*fakeStepper
	panicAt int
}

func (p *panicStepper) Step(slot, arm int, download bool) (Observation, error) {
	if slot == p.panicAt {
		panic(fmt.Sprintf("edge %d exploded", p.fakeStepper.edge))
	}
	return p.fakeStepper.Step(slot, arm, download)
}

// TestRunSurvivesStepperPanic is the regression test for the worker pool's
// panic recovery: a stepper that panics mid-slot must not crash the process
// or deadlock the pool, and must surface as the slot's first error in edge
// order, for every worker count.
func TestRunSurvivesStepperPanic(t *testing.T) {
	const edges, horizon = 4, 20
	for _, workers := range []int{1, 2, edges} {
		steppers := make([]EdgeStepper, edges)
		for i := range steppers {
			f := newFakeStepper(i, 4)
			if i == 2 {
				steppers[i] = &panicStepper{fakeStepper: f, panicAt: 7}
			} else {
				steppers[i] = f
			}
		}
		cfg := testConfig(edges, horizon)
		cfg.Workers = workers
		done := make(chan error, 1)
		go func() {
			_, err := Run(cfg, testController(t, edges, 4, horizon), steppers)
			done <- err
		}()
		select {
		case err := <-done:
			if err == nil {
				t.Fatalf("workers=%d: expected error", workers)
			}
			for _, frag := range []string{"edge 2 slot 7", "stepper panic", "exploded"} {
				if !strings.Contains(err.Error(), frag) {
					t.Errorf("workers=%d: err = %v, want it to mention %q", workers, err, frag)
				}
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("workers=%d: Run deadlocked after stepper panic", workers)
		}
	}
}

// TestRunPanicBeatenByEarlierError pins the first-error-in-edge-order rule
// when a panic and an ordinary error land in the same slot: the lower edge
// index wins regardless of which goroutine finished first.
func TestRunPanicBeatenByEarlierError(t *testing.T) {
	const edges, horizon = 4, 20
	steppers := make([]EdgeStepper, edges)
	for i := range steppers {
		f := newFakeStepper(i, 4)
		switch i {
		case 1:
			f.failAt = 5
			steppers[i] = f
		case 3:
			steppers[i] = &panicStepper{fakeStepper: f, panicAt: 5}
		default:
			steppers[i] = f
		}
	}
	cfg := testConfig(edges, horizon)
	cfg.Workers = edges
	_, err := Run(cfg, testController(t, edges, 4, horizon), steppers)
	if err == nil {
		t.Fatal("expected error")
	}
	if !strings.Contains(err.Error(), "edge 1 slot 5") || strings.Contains(err.Error(), "panic") {
		t.Errorf("err = %v, want the ordinary edge-1 error to win over edge 3's panic", err)
	}
}

// retryStepper reports transport retries alongside success or failure.
type retryStepper struct {
	*fakeStepper
	retriesPerSlot int
}

func (r *retryStepper) Step(slot, arm int, download bool) (Observation, error) {
	obs, err := r.fakeStepper.Step(slot, arm, download)
	obs.Retries = r.retriesPerSlot
	return obs, err
}

// TestRunDegradeMarksEdgeDown pins graceful degradation: a failing edge is
// marked down once, serves nothing afterwards, and contributes exactly the
// documented fallback — no selections, no emissions, no switch charges —
// while the surviving edges and the run's determinism are untouched.
func TestRunDegradeMarksEdgeDown(t *testing.T) {
	const edges, horizon, failAt = 4, 30, 5
	runWith := func(workers int) *Result {
		steppers := make([]EdgeStepper, edges)
		for i := range steppers {
			f := newFakeStepper(i, 6)
			if i == 1 {
				f.failAt = failAt
				steppers[i] = &retryStepper{fakeStepper: f, retriesPerSlot: 2}
			} else {
				steppers[i] = f
			}
		}
		cfg := testConfig(edges, horizon)
		cfg.Workers = workers
		cfg.Policy = Degrade
		res, err := Run(cfg, testController(t, edges, 4, horizon), steppers)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	res := runWith(1)
	if got, want := res.Downtime[1], horizon-failAt; got != want {
		t.Errorf("Downtime[1] = %d, want %d", got, want)
	}
	if got, want := res.DroppedSlots, horizon-failAt; got != want {
		t.Errorf("DroppedSlots = %d, want %d", got, want)
	}
	if !strings.Contains(res.DownErrors[1], "injected failure") {
		t.Errorf("DownErrors[1] = %q, want the stepper's error", res.DownErrors[1])
	}
	// The down slot keeps the retries the stepper burned; served slots add
	// theirs: failAt slots at 2 retries each plus the failing one.
	if got, want := res.Retries[1], (failAt+1)*2; got != want {
		t.Errorf("Retries[1] = %d, want %d", got, want)
	}
	for i, row := range res.Selections {
		total := 0
		for _, c := range row {
			total += c
		}
		want := horizon
		if i == 1 {
			want = failAt
		}
		if total != want {
			t.Errorf("edge %d selections sum to %d, want %d", i, total, want)
		}
	}
	for i := range res.Downtime {
		if i != 1 && (res.Downtime[i] != 0 || res.DownErrors[i] != "") {
			t.Errorf("healthy edge %d shows fault accounting", i)
		}
	}

	// The degraded result is deterministic across worker counts.
	for _, workers := range []int{2, edges} {
		if got := runWith(workers); !reflect.DeepEqual(res, got) {
			t.Errorf("workers=%d degraded run diverged from serial", workers)
		}
	}

	// The JSON export surfaces the fault counters on faulted runs.
	var sb strings.Builder
	if err := res.WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{`"downtime"`, `"droppedSlots"`, `"retries"`, `"downErrors"`} {
		if !strings.Contains(sb.String(), key) {
			t.Errorf("faulted JSON export missing %s", key)
		}
	}
}

// TestRunDegradeSurvivesPanic extends the panic-recovery contract to the
// Degrade policy: a panicking stepper is marked down like any failing one —
// the process survives, the pool drains, and the run completes without it.
func TestRunDegradeSurvivesPanic(t *testing.T) {
	const edges, horizon, panicAt = 4, 20, 7
	for _, workers := range []int{1, 2, edges} {
		steppers := make([]EdgeStepper, edges)
		for i := range steppers {
			f := newFakeStepper(i, 4)
			if i == 2 {
				steppers[i] = &panicStepper{fakeStepper: f, panicAt: panicAt}
			} else {
				steppers[i] = f
			}
		}
		cfg := testConfig(edges, horizon)
		cfg.Workers = workers
		cfg.Policy = Degrade
		done := make(chan *Result, 1)
		go func() {
			res, err := Run(cfg, testController(t, edges, 4, horizon), steppers)
			if err != nil {
				t.Errorf("workers=%d: %v", workers, err)
			}
			done <- res
		}()
		select {
		case res := <-done:
			if res == nil {
				return // error already reported
			}
			if got, want := res.Downtime[2], horizon-panicAt; got != want {
				t.Errorf("workers=%d: Downtime[2] = %d, want %d", workers, got, want)
			}
			if !strings.Contains(res.DownErrors[2], "stepper panic") {
				t.Errorf("workers=%d: DownErrors[2] = %q, want the recovered panic", workers, res.DownErrors[2])
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("workers=%d: Run deadlocked after stepper panic under Degrade", workers)
		}
	}
}

// TestRunDegradeAllEdgesDown drives every edge down and checks the run still
// completes with a fully-dropped tail instead of wedging or dividing by zero.
func TestRunDegradeAllEdgesDown(t *testing.T) {
	const edges, horizon, failAt = 2, 10, 3
	steppers := make([]EdgeStepper, edges)
	for i := range steppers {
		f := newFakeStepper(i, 8)
		f.failAt = failAt
		steppers[i] = f
	}
	cfg := testConfig(edges, horizon)
	cfg.Policy = Degrade
	res, err := Run(cfg, testController(t, edges, 4, horizon), steppers)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := res.DroppedSlots, edges*(horizon-failAt); got != want {
		t.Errorf("DroppedSlots = %d, want %d", got, want)
	}
	for t2 := failAt; t2 < horizon; t2++ {
		if res.WorkloadTotal[t2] != 0 {
			t.Errorf("slot %d served %d samples with all edges down", t2, res.WorkloadTotal[t2])
		}
		if res.Emissions[t2] != 0 {
			t.Errorf("slot %d emitted %v with all edges down", t2, res.Emissions[t2])
		}
	}
}

func TestCostBreakdown(t *testing.T) {
	c := CostBreakdown{InferLoss: 1, Compute: 2, Switching: 3, Trading: -0.5}
	if got := c.Total(); got != 5.5 {
		t.Errorf("Total = %v", got)
	}
	c.Add(CostBreakdown{InferLoss: 1, Compute: 1, Switching: 1, Trading: 1})
	if got := c.Total(); got != 9.5 {
		t.Errorf("after Add, Total = %v", got)
	}
}
