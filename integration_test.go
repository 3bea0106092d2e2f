// Top-level integration tests: the whole system exercised through its
// public seams — scenario construction, every scheme combination, the
// Offline comparator, JSON export, trace round-trips, and the headline
// cost ordering the paper reports.
package carbonedge_test

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"

	"github.com/carbonedge/carbonedge/internal/dataset"
	"github.com/carbonedge/carbonedge/internal/models"
	"github.com/carbonedge/carbonedge/internal/numeric"
	"github.com/carbonedge/carbonedge/internal/sim"
	"github.com/carbonedge/carbonedge/internal/trace"
)

func TestEndToEndSurrogatePipeline(t *testing.T) {
	zoo, err := models.DefaultSurrogateZoo(numeric.SplitRNG(42, "zoo"))
	if err != nil {
		t.Fatal(err)
	}
	cfg := sim.DefaultConfig(6)
	cfg.Horizon = 120
	cfg.Seed = 42
	scenario, err := sim.NewScenario(cfg, zoo)
	if err != nil {
		t.Fatal(err)
	}

	totals := make(map[string]float64)
	for _, combo := range sim.Combos() {
		res, err := sim.Run(scenario, combo.Name, combo.Policy, combo.Trader)
		if err != nil {
			t.Fatalf("%s: %v", combo.Name, err)
		}
		totals[combo.Name] = res.Cost.Total()
	}
	offline, err := sim.Offline(scenario)
	if err != nil {
		t.Fatal(err)
	}
	totals["Offline"] = offline.Cost.Total()

	// The paper's headline ordering: Offline < Ours < every online
	// baseline.
	for name, total := range totals {
		saved := total - totals["Ours"]
		switch name {
		case "Ours":
		case "Offline":
			if saved > 0 {
				t.Errorf("Offline (%v) should beat Ours", totals[name])
			}
		default:
			if saved <= 0 {
				t.Errorf("Ours does not beat %s (%.1f vs %.1f)", name, totals["Ours"], totals[name])
			}
		}
	}
}

func TestEndToEndJSONAndTraceRoundTrip(t *testing.T) {
	zoo, err := models.DefaultSurrogateZoo(numeric.SplitRNG(7, "zoo"))
	if err != nil {
		t.Fatal(err)
	}
	cfg := sim.DefaultConfig(3)
	cfg.Horizon = 40
	cfg.Seed = 7
	scenario, err := sim.NewScenario(cfg, zoo)
	if err != nil {
		t.Fatal(err)
	}

	// Export the scenario's traces and reload them; the rebuilt scenario
	// must produce the identical run.
	var wbuf, pbuf bytes.Buffer
	if err := trace.WriteWorkload(&wbuf, scenario.Workload); err != nil {
		t.Fatal(err)
	}
	if err := trace.WritePrices(&pbuf, scenario.Prices); err != nil {
		t.Fatal(err)
	}
	wl, err := trace.ReadWorkload(&wbuf)
	if err != nil {
		t.Fatal(err)
	}
	prices, err := trace.ReadPrices(&pbuf)
	if err != nil {
		t.Fatal(err)
	}
	rebuilt, err := sim.NewScenarioWithTraces(cfg, zoo, wl, prices)
	if err != nil {
		t.Fatal(err)
	}

	res1, err := sim.Run(scenario, "Ours", sim.PolicyOurs, sim.TraderOurs)
	if err != nil {
		t.Fatal(err)
	}
	res2, err := sim.Run(rebuilt, "Ours", sim.PolicyOurs, sim.TraderOurs)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res1.Cost.Total()-res2.Cost.Total()) > 1e-9 {
		t.Errorf("trace round-trip changed the run: %v vs %v", res1.Cost.Total(), res2.Cost.Total())
	}

	// JSON export parses back and carries the headline numbers.
	var jbuf bytes.Buffer
	if err := res1.WriteJSON(&jbuf); err != nil {
		t.Fatal(err)
	}
	var decoded map[string]interface{}
	if err := json.Unmarshal(jbuf.Bytes(), &decoded); err != nil {
		t.Fatalf("exported JSON does not parse: %v", err)
	}
	if decoded["name"] != "Ours" {
		t.Errorf("json name = %v", decoded["name"])
	}
	if got := decoded["totalCost"].(float64); math.Abs(got-res1.Cost.Total()) > 1e-9 {
		t.Errorf("json totalCost = %v, want %v", got, res1.Cost.Total())
	}
}

func TestEndToEndTrainedZooPipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a neural zoo")
	}
	zooCfg := models.TrainedZooConfig{
		Dataset: dataset.MNISTLike,
		TrainN:  300, TestN: 300, Epochs: 1, LR: 0.05, BatchSize: 16,
	}
	zoo, err := models.NewTrainedZoo(zooCfg, numeric.SplitRNG(5, "zoo"))
	if err != nil {
		t.Fatal(err)
	}
	cfg := sim.DefaultConfig(3)
	cfg.Horizon = 60
	cfg.Seed = 5
	scenario, err := sim.NewScenario(cfg, zoo)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(scenario, "Ours", sim.PolicyOurs, sim.TraderOurs)
	if err != nil {
		t.Fatal(err)
	}
	if res.OverallAccuracy <= 0.2 {
		t.Errorf("trained-zoo accuracy = %v, want well above chance", res.OverallAccuracy)
	}
	off, err := sim.Offline(scenario)
	if err != nil {
		t.Fatal(err)
	}
	if res.OverallAccuracy > off.OverallAccuracy+0.05 {
		t.Errorf("online accuracy %v implausibly above Offline %v", res.OverallAccuracy, off.OverallAccuracy)
	}
}
