package main

// metricDef declares one reported metric. BENCHMARK.json declares the
// same names, units and directions, and a test keeps the two in step.
// Which layer each per-layer metric times, the end-to-end metric it
// should move and the workloads whose measured path runs it are in
// README.md.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
}

// endToEnd are the metrics a user of the simulator waits on, reported by
// untraced runs. All are host time except sim_mips, whose numerator is
// simulated instructions.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"op_p50_us", "us", "lower"},
	{"op_p99_us", "us", "lower"},
	{"ops_per_s", "1/s", "higher"},
	{"sim_mips", "Minst/s", "higher"},
	{"mem_heap_mb", "MB", "lower"},
}

// perLayer are the traced run's metrics, each timed or counted by the
// benchmark around calls into one layer's public functions.
var perLayer = []metricDef{
	{"sim.boot_ms", "ms", "lower"},
	{"sim.snapshot_ms", "ms", "lower"},
	{"sim.fork_us", "us", "lower"},
	{"sim.release_us", "us", "lower"},
	{"sim.forks_per_op", "count", "lower"},
	{"sim.cold_boots", "count", "lower"},

	{"cpu.call_us", "us", "lower"},
	{"cpu.op_share_pct", "%", "higher"},
	{"cpu.ns_per_inst", "ns", "lower"},
	{"cpu.insts_per_op", "count", "lower"},
	{"cpu.chain_pct", "%", "higher"},
	{"cpu.ichain_pct", "%", "higher"},
	{"cpu.block_miss_pct", "%", "lower"},

	{"mm.tlb_miss_pct", "%", "lower"},
	{"mm.cow_detaches_per_op", "count", "lower"},
	{"mm.shootdowns_per_op", "count", "lower"},

	{"engine.residual_us_per_round", "us", "lower"},
	{"engine.lane_skew_pct", "%", "lower"},

	{"rerand.steps_per_kop", "count", "lower"},
	{"rerand.step_us", "us", "lower"},

	{"bus.irqs_per_op", "count", "lower"},
	{"kernel.isr_us", "us", "lower"},

	{"workload.point_ms", "ms", "lower"},
	{"workload.render_us", "us", "lower"},
	{"workload.worker_busy_pct", "%", "higher"},

	{"service.pre_run_p50_us", "us", "lower"},
	{"service.pre_run_p99_us", "us", "lower"},
	{"service.run_p50_us", "us", "lower"},
	{"service.noop_p50_us", "us", "lower"},
	{"service.noop_p99_us", "us", "lower"},
	{"service.gen_late_p99_us", "us", "lower"},

	{"obs.trace_overhead_pct", "%", "lower"},

	{"go.gc_cpu_pct", "%", "lower"},
	{"go.alloc_kb_per_op", "KB", "lower"},

	{"bench.trace_overhead_pct", "%", "lower"},
}

// metricsFor returns the metric set a run reports.
func metricsFor(traced bool) []metricDef {
	if traced {
		return perLayer
	}
	return endToEnd
}
