package main

// metricDef names one metric the benchmark emits. The tables below are the
// single source of the names, units and directions; BENCHMARK.json repeats
// them for the driver and TestManifestMatchesCode keeps the two equal.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"` // "higher" or "lower"
	Bound  float64 `json:"bound"`  // relative worsening that counts as a regression (end-to-end only)
	// Exact marks a per-layer count that is a pure function of the seed:
	// two runs of one commit must report it identically.
	Exact bool `json:"-"`
}

// endToEnd are the gated metrics, measured with tracing off. Every
// workload emits every one of them, and none can be zero.
var endToEnd = []metricDef{
	{Name: "inj_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "report_wall_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "cpu_ms_per_inj", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.25},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
}

// perLayer are the metrics of the traced run. A layer a workload does not
// exercise reports 0 there, which is the prediction a bypass workload
// exists to check.
var perLayer = []metricDef{
	// One injection on the workload's engine, re-driven through the public
	// engine.Backend protocol.
	{Name: "engine.restore_ns", Unit: "ns", Better: "lower"},
	{Name: "engine.delay_step_ns", Unit: "ns", Better: "lower"},
	{Name: "engine.inject_ns", Unit: "ns", Better: "lower"},
	{Name: "engine.propagate_ns", Unit: "ns", Better: "lower"},
	{Name: "engine.verdict_ns", Unit: "ns", Better: "lower"},
	{Name: "engine.sim_cycles_per_inj", Unit: "count", Better: "lower", Exact: true},
	{Name: "engine.barriers_per_inj", Unit: "count", Better: "lower", Exact: true},
	{Name: "engine.host_ns_per_sim_cycle", Unit: "ns", Better: "lower"},
	{Name: "engine.injection_vs_golden_ratio", Unit: "ratio", Better: "lower"},
	{Name: "engine.build_ms", Unit: "ms", Better: "lower"},
	{Name: "engine.clone_us", Unit: "us", Better: "lower"},
	{Name: "engine.batch_pass_ns", Unit: "ns", Better: "lower"},
	{Name: "engine.batch_restore_ns", Unit: "ns", Better: "lower"},
	{Name: "engine.batch_run_ns", Unit: "ns", Better: "lower"},
	{Name: "engine.lane_occupancy", Unit: "ratio", Better: "higher", Exact: true},
	{Name: "proc.golden_step_ns", Unit: "ns", Better: "lower"},
	{Name: "proc.cpi", Unit: "ratio", Better: "lower", Exact: true},
	{Name: "awan.step_ns", Unit: "ns", Better: "lower"},
	{Name: "awan.eval_ns_per_gate", Unit: "ns", Better: "lower"},
	{Name: "latch.restore_delta_ns", Unit: "ns", Better: "lower"},
	{Name: "latch.capture_delta_ns", Unit: "ns", Better: "lower"},
	// The campaign layer around the engine.
	{Name: "core.run_injection_ns", Unit: "ns", Better: "lower"},
	{Name: "core.runner_overhead_ns", Unit: "ns", Better: "lower"},
	{Name: "core.parallel_efficiency", Unit: "ratio", Better: "higher"},
	{Name: "core.sample_us", Unit: "us", Better: "lower"},
	{Name: "core.plan_build_ms", Unit: "ms", Better: "lower"},
	{Name: "core.merge_us", Unit: "us", Better: "lower"},
	{Name: "core.report_json_us", Unit: "us", Better: "lower"},
	{Name: "stats.observe_ns", Unit: "ns", Better: "lower"},
	{Name: "stats.snapshot_us", Unit: "us", Better: "lower"},
	{Name: "stats.allocate_us", Unit: "us", Better: "lower"},
	{Name: "stats.epochs_to_stop", Unit: "count", Better: "lower", Exact: true},
	{Name: "stats.injections_to_margin", Unit: "count", Better: "lower", Exact: true},
	// The distributed control plane, seen from the workers' HTTP client.
	{Name: "dist.lease_rtt_ms", Unit: "ms", Better: "lower"},
	{Name: "dist.complete_rtt_ms", Unit: "ms", Better: "lower"},
	{Name: "dist.requests", Unit: "count", Better: "lower"},
	{Name: "dist.empty_lease_frac", Unit: "ratio", Better: "lower"},
	{Name: "dist.shard_run_ms", Unit: "ms", Better: "lower"},
	{Name: "dist.worker_idle_frac", Unit: "ratio", Better: "lower"},
	{Name: "dist.journal_bytes_per_shard", Unit: "count", Better: "lower"},
	{Name: "dist.requeues", Unit: "count", Better: "lower"},
	{Name: "dist.control_overhead_frac", Unit: "ratio", Better: "lower"},
	// The campaign server, seen from its REST clients.
	{Name: "server.submit_ms", Unit: "ms", Better: "lower"},
	{Name: "server.queue_wait_ms", Unit: "ms", Better: "lower"},
	{Name: "server.boot_hit_ms", Unit: "ms", Better: "lower"},
	{Name: "server.boot_miss_ms", Unit: "ms", Better: "lower"},
	{Name: "server.run_ms", Unit: "ms", Better: "lower"},
	{Name: "server.report_get_ms", Unit: "ms", Better: "lower"},
	{Name: "server.status_polls_per_op", Unit: "count", Better: "lower"},
	{Name: "server.report_wall_tail_ms", Unit: "ms", Better: "lower"},
	{Name: "server.dedup_hit_ms", Unit: "ms", Better: "lower"},
	{Name: "server.dedup_frac", Unit: "ratio", Better: "higher"},
	{Name: "server.image_hit_frac", Unit: "ratio", Better: "higher"},
	{Name: "store.put_object_us", Unit: "us", Better: "lower"},
	{Name: "store.get_object_us", Unit: "us", Better: "lower"},
	{Name: "store.put_report_us", Unit: "us", Better: "lower"},
	{Name: "store.save_campaign_us", Unit: "us", Better: "lower"},
	{Name: "store.image_clone_us", Unit: "us", Better: "lower"},
	// The cost of the benchmark's own spans; reported, never gated.
	{Name: "bench.trace_overhead_frac", Unit: "ratio", Better: "lower"},
}

// metricValue is one reported number, in the driver's result-line shape.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// fill builds the reported metric set for defs from the measured values;
// a metric nobody measured reports 0 (a bypassed layer).
func fill(defs []metricDef, measured map[string]float64) map[string]metricValue {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		out[d.Name] = metricValue{Value: measured[d.Name], Unit: d.Unit}
	}
	return out
}
