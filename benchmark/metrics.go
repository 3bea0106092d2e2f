package main

// metricDef names one metric the benchmark prints. BENCHMARK.json lists the
// same names, units and directions (TestMetricTableMatchesBenchmarkJSON);
// README.md says which end-to-end metric each per-layer metric should move.
type metricDef struct {
	name, unit, better string
	// bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression.
	bound float64
}

// endToEnd are the metrics of the untraced run, the same on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"edge_slots_per_s", "1/s", "higher", 0.25},
	{"slot_p50_ms", "ms", "lower", 0.25},
	{"slot_p90_ms", "ms", "lower", 0.25},
	{"alloc_bytes_per_edge_slot", "B", "lower", 0.10},
}

// perLayer are the metrics of the traced run. A workload reports 0 for a
// layer it does not exercise.
var perLayer = []metricDef{
	// Controller and algorithms.
	{name: "core.select_us_per_slot", unit: "us", better: "lower"},
	{name: "core.complete_us_per_slot", unit: "us", better: "lower"},
	{name: "core.trade_us_per_slot", unit: "us", better: "lower"},
	{name: "market.ledger_us_per_slot", unit: "us", better: "lower"},
	{name: "bandit.cycle_ns", unit: "ns", better: "lower"},
	{name: "trading.cycle_ns", unit: "ns", better: "lower"},
	{name: "core.controller_build_s", unit: "s", better: "lower"},
	// Engine and simulator.
	{name: "engine.step_us_per_slot", unit: "us", better: "lower"},
	{name: "engine.merge_us_per_slot", unit: "us", better: "lower"},
	{name: "engine.fold_us_per_slot", unit: "us", better: "lower"},
	{name: "engine.alloc_bytes_per_slot", unit: "B", better: "lower"},
	{name: "sim.stream_draw_us_per_slot", unit: "us", better: "lower"},
	{name: "models.batchloss_us_per_slot", unit: "us", better: "lower"},
	{name: "sim.scenario_build_s", unit: "s", better: "lower"},
	{name: "engine.shards2_speedup_x", unit: "x", better: "higher"},
	{name: "engine.workers2_speedup_x", unit: "x", better: "higher"},
	// Wire codec, per frame kind, from frames teed off the traced run.
	{name: "deploy.assign_encode_ns", unit: "ns", better: "lower"},
	{name: "deploy.assign_decode_ns", unit: "ns", better: "lower"},
	{name: "deploy.assign_bytes", unit: "B", better: "lower"},
	{name: "deploy.report_encode_ns", unit: "ns", better: "lower"},
	{name: "deploy.report_decode_ns", unit: "ns", better: "lower"},
	{name: "deploy.report_bytes", unit: "B", better: "lower"},
	{name: "deploy.shardassign_encode_ns", unit: "ns", better: "lower"},
	{name: "deploy.shardassign_decode_ns", unit: "ns", better: "lower"},
	{name: "deploy.shardassign_bytes", unit: "B", better: "lower"},
	{name: "deploy.sharddelta_encode_ns", unit: "ns", better: "lower"},
	{name: "deploy.sharddelta_decode_ns", unit: "ns", better: "lower"},
	{name: "deploy.sharddelta_bytes", unit: "B", better: "lower"},
	{name: "deploy.ckpt_encode_ns", unit: "ns", better: "lower"},
	{name: "deploy.ckpt_decode_ns", unit: "ns", better: "lower"},
	{name: "deploy.ckpt_bytes", unit: "B", better: "lower"},
	{name: "deploy.report_validate_ns", unit: "ns", better: "lower"},
	{name: "deploy.sharddelta_validate_ns", unit: "ns", better: "lower"},
	{name: "deploy.ckpt_inflation_x", unit: "x", better: "lower"},
	// Deployed run: bytes, frames, and where a slot's wall time goes.
	{name: "deploy.wire_bytes_per_edge_slot", unit: "B", better: "lower"},
	{name: "deploy.root_link_bytes_per_slot", unit: "B", better: "lower"},
	{name: "deploy.edge_link_bytes_per_slot", unit: "B", better: "lower"},
	{name: "deploy.frames_per_slot", unit: "count", better: "lower"},
	{name: "deploy.codec_ms_per_slot", unit: "ms", better: "lower"},
	{name: "deploy.runtime_ms_per_slot", unit: "ms", better: "lower"},
	{name: "deploy.controller_ms_per_slot", unit: "ms", better: "lower"},
	{name: "deploy.unattributed_ms_per_slot", unit: "ms", better: "lower"},
	{name: "deploy.region_skew_ms_p50", unit: "ms", better: "lower"},
	{name: "deploy.edge_read_wait_share", unit: "%", better: "lower"},
	{name: "deploy.handshake_s", unit: "s", better: "lower"},
	{name: "deploy.switches", unit: "count", better: "lower"},
	{name: "deploy.retries", unit: "count", better: "lower"},
	{name: "deploy.resumes", unit: "count", better: "lower"},
	{name: "deploy.dropped_slots", unit: "count", better: "lower"},
	// Neural-network kernels and model install.
	{name: "nn.f32.forward_us_per_sample", unit: "us", better: "lower"},
	{name: "nn.f32.conv_us_per_sample", unit: "us", better: "lower"},
	{name: "nn.f32.dense_us_per_sample", unit: "us", better: "lower"},
	{name: "nn.f32.pool_us_per_sample", unit: "us", better: "lower"},
	{name: "nn.f32.relu_us_per_sample", unit: "us", better: "lower"},
	{name: "nn.q8.forward_us_per_sample", unit: "us", better: "lower"},
	{name: "nn.f32.runslot_us_per_sample", unit: "us", better: "lower"},
	{name: "nn.q8.runslot_us_per_sample", unit: "us", better: "lower"},
	{name: "nn.q8_speedup_x", unit: "x", better: "higher"},
	{name: "nn.readweights_ms", unit: "ms", better: "lower"},
	{name: "nn.quantize_compile_ms", unit: "ms", better: "lower"},
	{name: "deploy.loadmodel_ms", unit: "ms", better: "lower"},
	{name: "deploy.loadmodel_q8_ms", unit: "ms", better: "lower"},
	{name: "models.zoo_build_s", unit: "s", better: "lower"},
	{name: "dataset.pool_build_ms", unit: "ms", better: "lower"},
	// Harness diagnostics, never gated.
	{name: "harness.trace_overhead_pct", unit: "%", better: "lower"},
	{name: "harness.span_coverage_pct", unit: "%", better: "higher"},
	{name: "harness.slot_tail_ms", unit: "ms", better: "lower"},
	{name: "harness.host_slowdown_x", unit: "x", better: "lower"},
	{name: "harness.cpu_s", unit: "s", better: "lower"},
	{name: "harness.peak_rss_mib", unit: "MiB", better: "lower"},
}
