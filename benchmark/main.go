// Command benchmark is the repository's slot-cost benchmark: four
// slot-synchronous closed-loop workloads driven through the product's real
// entry points, five end-to-end metrics from an untraced run, and a
// stage-attributed traced run that says where a slot's time goes. See
// README.md in this directory.
//
//	go run ./benchmark -workload sim-fleet -seed 1
//	go run ./benchmark -workload region-fleet -seed 2 -trace 1
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// bench is one closed-loop workload. Each pass sets the system up from
// scratch and plays the full horizon, so the passes of one seed do identical
// work and must produce identical digests.
type bench interface {
	// pass plays one untraced pass.
	pass() (*passResult, error)
	// reference checks an untraced pass's digest against an independent
	// computation of the same run.
	reference(digest string) error
	// traced plays one traced pass, recording spans into tr, and returns the
	// per-layer metrics this workload exercises. ref is an untraced pass of
	// the same process; traced makes its own reference check against it (the
	// span-per-call loop must reproduce ref's digest).
	traced(tr *tracer, ref *passResult) (*passResult, map[string]float64, error)
}

// workloadNames lists the workloads in the order BENCHMARK.json does.
var workloadNames = []string{"sim-fleet", "region-fleet", "edge-serving", "edge-serving-int8"}

func newWorkload(name string, sz sizes, seed int64) (bench, error) {
	switch name {
	case "sim-fleet":
		return &simFleet{sz: sz, seed: seed}, nil
	case "region-fleet":
		return &regionFleet{sz: sz, seed: seed}, nil
	case "edge-serving":
		return &edgeServing{sz: sz, seed: seed}, nil
	case "edge-serving-int8":
		return &edgeServing{sz: sz, seed: seed, int8: true}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

// minPasses is the fewest passes an untraced run plays whatever -seconds
// says: setup_s and the throughput are medians over passes.
const minPasses = 3

// metricValue is one entry of the result line's "metrics" object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: sim-fleet, region-fleet, edge-serving or edge-serving-int8")
	seed := fs.Int64("seed", 1, "seed every input of the workload is generated from")
	secs := fs.Float64("seconds", 20, "how long the untraced run plays passes for (at least three passes)")
	trace := fs.Int("trace", 0, "1 runs the traced pass and prints the per-layer metrics; 0 prints the end-to-end metrics")
	smoke := fs.Bool("smoke", false, "tiny fleets and horizons, for tests")
	traceDir := fs.String("trace-dir", ".bench_build", "directory the traced run writes its spans to")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %v", fs.Args())
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("-trace must be 0 or 1, got %d", *trace)
	}
	if *secs <= 0 {
		return fmt.Errorf("-seconds must be positive, got %g", *secs)
	}
	sz := fullSizes
	if *smoke {
		sz = smokeSizes
	}
	w, err := newWorkload(*name, sz, *seed)
	if err != nil {
		return err
	}

	var line *resultLine
	if *trace == 1 {
		line, err = runTraced(w, newHostProbe(sz), *name, *seed, *traceDir, stdout, stderr)
	} else {
		line, err = runTimed(w, newHostProbe(sz), time.Duration(*secs*float64(time.Second)), stdout, stderr)
	}
	if err != nil {
		return err
	}
	body, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s\n", body)
	if !line.Correct {
		return fmt.Errorf("%s: outputs are not correct", *name)
	}
	return nil
}

// runTimed plays untraced passes for the given time and reduces them to the
// end-to-end metrics.
func runTimed(w bench, probe *hostProbe, budget time.Duration, stdout, stderr io.Writer) (*resultLine, error) {
	var passes []*passResult
	var played time.Duration
	// Stop when one more pass of the mean length would overrun the budget.
	for len(passes) < minPasses || played+played/time.Duration(len(passes)) <= budget {
		// Collect the previous pass's garbage outside the timed region, so
		// every pass starts from the same heap, and probe the host's speed.
		runtime.GC()
		probe.measure()
		pr, err := w.pass()
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(stderr, "pass %d: setup %.3f s, slots %.3f s, %.5g edge-slots/s\n",
			len(passes), seconds(pr.setup), seconds(pr.wall), pr.rate())
		passes = append(passes, pr)
		played += pr.setup + pr.wall
	}
	probe.measure()

	line := &resultLine{Correct: true, Metrics: make(map[string]metricValue)}
	var setup, rate, alloc, gaps []float64
	for i, pr := range passes {
		line.Attempted += pr.attempted
		line.Failed += pr.failed
		if pr.digest != passes[0].digest {
			fmt.Fprintf(stderr, "pass %d digest %s differs from pass 0 digest %s\n", i, pr.digest, passes[0].digest)
			line.Correct = false
		}
		setup = append(setup, seconds(pr.setup))
		rate = append(rate, pr.rate())
		alloc = append(alloc, float64(pr.allocBytes)/float64(pr.attempted))
		gaps = append(gaps, pr.gapsMS()...)
	}
	if line.Failed > 0 {
		fmt.Fprintf(stderr, "%d of %d edge-slots failed\n", line.Failed, line.Attempted)
		line.Correct = false
	}
	if err := w.reference(passes[0].digest); err != nil {
		fmt.Fprintf(stderr, "reference check: %v\n", err)
		line.Correct = false
	}

	slot := newSample(gaps)
	p90, err := slot.percentile(0.90)
	if err != nil {
		return nil, err
	}
	overPasses := map[string]sample{
		"setup_s":                   newSample(setup),
		"edge_slots_per_s":          newSample(rate),
		"alloc_bytes_per_edge_slot": newSample(alloc),
	}
	values := map[string]float64{"slot_p50_ms": slot.median(), "slot_p90_ms": p90}
	fmt.Fprintln(stderr, "as measured (raw):")
	for _, name := range sortedNames(overPasses) {
		values[name] = overPasses[name].median()
		fmt.Fprintf(stderr, "  %-26s %s\n", name, overPasses[name].describe())
	}
	fmt.Fprintf(stderr, "  %-26s p50 %.4g ms, p90 %.4g ms over %d slot gaps in %d passes\n",
		"slot latency", slot.median(), p90, len(slot), len(passes))

	// Times are reported in the seconds of the nominal host (see hostProbe);
	// counts are reported as counted.
	slow := probe.slowdown()
	fmt.Fprintf(stderr, "host slowdown %.4f over %d probes: times are divided by it, the rate multiplied\n", slow, probe.samples)
	for _, def := range endToEnd {
		v := values[def.name]
		switch def.unit {
		case "s", "ms":
			v /= slow
		case "1/s":
			v *= slow
		}
		line.Metrics[def.name] = metricValue{v, def.unit}
	}
	fmt.Fprintf(stdout, "result_digest %s\n", passes[0].digest)
	return line, nil
}

// runTraced plays one untraced reference pass and one traced pass, checks
// that tracing changed no result bit, writes the spans out, and prints every
// per-layer metric (0 for layers the workload does not exercise).
func runTraced(w bench, probe *hostProbe, name string, seed int64, traceDir string, stdout, stderr io.Writer) (*resultLine, error) {
	probe.measure()
	ref, err := w.pass()
	if err != nil {
		return nil, err
	}
	tr := &tracer{}
	tp, layer, err := w.traced(tr, ref)
	if err != nil {
		return nil, err
	}
	probe.measure()
	line := &resultLine{
		Correct:   true,
		Attempted: ref.attempted + tp.attempted,
		Failed:    ref.failed + tp.failed,
		Metrics:   make(map[string]metricValue),
	}
	if tp.digest != ref.digest {
		fmt.Fprintf(stderr, "traced digest %s differs from untraced digest %s\n", tp.digest, ref.digest)
		line.Correct = false
	}
	if line.Failed > 0 {
		fmt.Fprintf(stderr, "%d of %d edge-slots failed\n", line.Failed, line.Attempted)
		line.Correct = false
	}

	gaps := newSample(ref.gapsMS())
	tail, rank := gaps.tail()
	layer["harness.slot_tail_ms"] = tail
	fmt.Fprintf(stderr, "slot tail is p%.1f of %d slot gaps\n", 100*rank, len(gaps))
	layer["harness.trace_overhead_pct"] = 100 * (float64(tp.wall)/float64(ref.wall) - 1)
	// Per-layer times are as measured; this is the factor the end-to-end
	// times of an untraced run at this moment would be divided by.
	layer["harness.host_slowdown_x"] = probe.slowdown()
	layer["harness.cpu_s"] = cpuSeconds()
	layer["harness.peak_rss_mib"] = peakRSSMiB()

	known := make(map[string]bool, len(perLayer))
	for _, def := range perLayer {
		known[def.name] = true
		line.Metrics[def.name] = metricValue{layer[def.name], def.unit}
		fmt.Fprintf(stderr, "%-34s %12.4f %s\n", def.name, layer[def.name], def.unit)
	}
	for _, k := range sortedNames(layer) {
		if !known[k] {
			return nil, fmt.Errorf("%s: traced run reported unknown metric %q", name, k)
		}
	}
	path, err := tr.write(traceDir, name, seed)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(stderr, "spans written to %s\n", path)
	fmt.Fprintf(stdout, "result_digest %s\n", ref.digest)
	return line, nil
}
