package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"

	"github.com/carbonedge/carbonedge/internal/deploy"
	"github.com/carbonedge/carbonedge/internal/engine"
)

var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// runSmoke plays one workload at the -smoke size and returns the decoded
// result line. The raw JSON is decoded strictly, so a metric printed twice or
// a key outside the contract fails here.
func runSmoke(t *testing.T, workload string, trace string) resultLine {
	t.Helper()
	var stdout, stderr bytes.Buffer
	args := []string{"-workload", workload, "-seed", "3", "-seconds", "0.01", "-trace", trace, "-smoke", "-trace-dir", t.TempDir()}
	if err := run(args, &stdout, &stderr); err != nil {
		t.Fatalf("%s trace=%s: %v\n%s", workload, trace, err, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	if len(lines) < 2 || !strings.HasPrefix(lines[len(lines)-2], "result_digest ") {
		t.Fatalf("%s trace=%s: no result_digest line before the result:\n%s", workload, trace, stdout.String())
	}
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	var line resultLine
	if err := dec.Decode(&line); err != nil {
		t.Fatalf("%s trace=%s: result line: %v", workload, trace, err)
	}
	// encoding/json keeps the last of duplicate keys silently; count them.
	for name := range line.Metrics {
		if n := strings.Count(lines[len(lines)-1], `"`+name+`":`); n != 1 {
			t.Errorf("%s trace=%s: metric %q printed %d times", workload, trace, name, n)
		}
	}
	return line
}

// TestSmokeAllWorkloads runs every workload untraced and traced at the smoke
// size and holds the output to the contract: correct, nothing failed, and
// exactly the metrics BENCHMARK.json names, each once, with its unit.
func TestSmokeAllWorkloads(t *testing.T) {
	for _, workload := range workloadNames {
		for _, mode := range []struct {
			trace string
			defs  []metricDef
		}{{"0", endToEnd}, {"1", perLayer}} {
			t.Run(workload+"/trace="+mode.trace, func(t *testing.T) {
				line := runSmoke(t, workload, mode.trace)
				if !line.Correct {
					t.Error("correct = false")
				}
				if line.Attempted < 1 || line.Failed != 0 {
					t.Errorf("attempted %d, failed %d", line.Attempted, line.Failed)
				}
				if len(line.Metrics) != len(mode.defs) {
					t.Errorf("%d metrics printed, want %d", len(line.Metrics), len(mode.defs))
				}
				for _, def := range mode.defs {
					got, ok := line.Metrics[def.name]
					if !ok {
						t.Errorf("metric %q missing", def.name)
						continue
					}
					if got.Unit != def.unit {
						t.Errorf("metric %q unit %q, want %q", def.name, got.Unit, def.unit)
					}
					if !metricName.MatchString(def.name) {
						t.Errorf("metric name %q outside [A-Za-z0-9_.-]+", def.name)
					}
					if mode.trace == "0" && got.Value <= 0 {
						t.Errorf("end-to-end metric %q = %v, must never be 0", def.name, got.Value)
					}
				}
			})
		}
	}
}

// TestSmokeDigestRepeats pins that a seed names its inputs: two runs of one
// seed print the same digest, another seed prints another.
func TestSmokeDigestRepeats(t *testing.T) {
	digest := func(seed string) string {
		var stdout, stderr bytes.Buffer
		if err := run([]string{"-workload", "region-fleet", "-seed", seed, "-seconds", "0.01", "-smoke"}, &stdout, &stderr); err != nil {
			t.Fatalf("seed %s: %v\n%s", seed, err, stderr.String())
		}
		for _, l := range strings.Split(stdout.String(), "\n") {
			if strings.HasPrefix(l, "result_digest ") {
				return l
			}
		}
		t.Fatalf("seed %s: no digest printed", seed)
		return ""
	}
	a, b, c := digest("5"), digest("5"), digest("6")
	if a != b {
		t.Errorf("seed 5 printed two digests: %s, %s", a, b)
	}
	if a == c {
		t.Errorf("seeds 5 and 6 printed the same digest %s", a)
	}
}

// benchmarkJSON mirrors the keys of BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// TestMetricTableMatchesBenchmarkJSON keeps the harness's metric table and
// the committed BENCHMARK.json saying the same thing.
func TestMetricTableMatchesBenchmarkJSON(t *testing.T) {
	body, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	var bj benchmarkJSON
	if err := dec.Decode(&bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(workloadNames) {
		t.Fatalf("%d workloads in BENCHMARK.json, harness has %d", len(bj.Workloads), len(workloadNames))
	}
	for i, w := range bj.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d is %q, harness has %q", i, w.Name, workloadNames[i])
		}
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %q: why must be one line of at most 200 characters", w.Name)
		}
	}
	if len(bj.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, harness has %d", len(bj.EndToEnd), len(endToEnd))
	}
	for i, m := range bj.EndToEnd {
		want := endToEnd[i]
		if m.Name != want.name || m.Unit != want.unit || m.Better != want.better || m.Bound != want.bound {
			t.Errorf("end-to-end metric %d is %+v, harness has %+v", i, m, want)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("metric %q bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if len(bj.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, harness has %d", len(bj.PerLayer), len(perLayer))
	}
	seen := map[string]bool{}
	for i, m := range bj.PerLayer {
		want := perLayer[i]
		if m.Name != want.name || m.Unit != want.unit || m.Better != want.better {
			t.Errorf("per-layer metric %d is %+v, harness has %+v", i, m, want)
		}
		if seen[m.Name] {
			t.Errorf("metric %q listed twice", m.Name)
		}
		seen[m.Name] = true
	}
}

// TestFrameTypeMatchesWriteMessage pins what frameType relies on: WriteMessage
// puts the message type first in the body.
func TestFrameTypeMatchesWriteMessage(t *testing.T) {
	for typ := deploy.MsgHello; typ <= deploy.MsgShardAdopt; typ++ {
		var buf bytes.Buffer
		msg := &deploy.Message{Type: typ, Slot: 7, Weights: []byte{1, 2, 3}, Delta: &engine.SlotDelta{}}
		if err := deploy.WriteMessage(&buf, msg); err != nil {
			t.Fatal(err)
		}
		if got := frameType(buf.Bytes()[4:]); got != typ {
			t.Errorf("frameType = %d for a type-%d frame", got, typ)
		}
	}
	if got := frameType([]byte(`{"slot":1}`)); got != 0 {
		t.Errorf("frameType of a body without a leading type = %d, want 0", got)
	}
}

// TestFrameScannerChunking feeds three frames one byte at a time and in one
// piece: both must count three frames and tee the same bodies.
func TestFrameScannerChunking(t *testing.T) {
	var stream bytes.Buffer
	msgs := []*deploy.Message{
		{Type: deploy.MsgAssign, Slot: 1},
		{Type: deploy.MsgAssign, Slot: 2, Switch: true, Weights: bytes.Repeat([]byte{9}, 300)},
		{Type: deploy.MsgReport, Slot: 2, AvgLoss: 0.25},
	}
	for _, m := range msgs {
		if err := deploy.WriteMessage(&stream, m); err != nil {
			t.Fatal(err)
		}
	}
	whole, bytewise := newFrameTee(), newFrameTee()
	var a, b frameScanner
	if n := a.feed(stream.Bytes(), whole); n != len(msgs) {
		t.Errorf("whole stream: %d frames, want %d", n, len(msgs))
	}
	n := 0
	for _, c := range stream.Bytes() {
		n += b.feed([]byte{c}, bytewise)
	}
	if n != len(msgs) {
		t.Errorf("byte by byte: %d frames, want %d", n, len(msgs))
	}
	for _, tee := range []*frameTee{whole, bytewise} {
		small, large := tee.frames(deploy.MsgAssign)
		if len(small) >= len(large) || len(large) < 300 {
			t.Errorf("assign frames: smallest %d bytes, largest %d bytes", len(small), len(large))
		}
		if small, large := tee.frames(deploy.MsgReport); !bytes.Equal(small, large) || small == nil {
			t.Errorf("one report frame teed as %q and %q", small, large)
		}
	}
}

// TestSelfTimes checks that a parent's self time excludes its children.
func TestSelfTimes(t *testing.T) {
	tr := &tracer{spans: []span{
		{ID: 1, Name: "slot", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "core.select", Start: 0, End: 30},
		{ID: 3, Parent: 1, Name: "engine.step", Start: 30, End: 90},
		{ID: 4, Name: "slot", Start: 100, End: 150},
		{ID: 5, Parent: 4, Name: "engine.step", Start: 110, End: 150},
	}}
	self := tr.selfTimes()
	if self["slot"] != 20 || self["core.select"] != 30 || self["engine.step"] != 100 {
		t.Errorf("self times %v", self)
	}
	var nilTracer *tracer
	if id := nilTracer.begin("x", 0, 0); id != 0 {
		t.Errorf("nil tracer handed out span %d", id)
	}
	nilTracer.end(0)
}
