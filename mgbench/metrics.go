package main

// metricSpec names one reported metric. Every workload reports every metric
// of the list its run mode selects; a layer a workload does not exercise
// reports 0 (see METRICS.md for which workload moves which metric).
type metricSpec struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
}

// endToEnd is what an untraced run (--trace 0) reports. Each is measured on
// all three workloads, so a regression in any of them shows on every
// workload that exercises it.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower"},
	{"rss_peak_mb", "MB", "lower"},
	{"decided_per_s", "1/s", "higher"},
	{"cpu_ms_per_decision", "ms", "lower"},
}

// perLayer is what a traced run (--trace 1) reports. The first block holds
// the workload-specific user-facing figures, taken from the run's untraced
// phase; the rest come from its traced phase.
var perLayer = []metricSpec{
	// User-facing, untraced phase.
	{"failed_frac", "ratio", "lower"},
	{"submit_p50_ms", "ms", "lower"},
	{"submit_p99_ms", "ms", "lower"},
	{"read_p99_ms", "ms", "lower"},
	{"turnaround_p50_ms", "ms", "lower"},
	{"turnaround_p99_ms", "ms", "lower"},
	{"hotfix_turnaround_p50_ms", "ms", "lower"},
	{"sim_turnaround_p50_min", "min", "lower"},
	{"sim_turnaround_p99_min", "min", "lower"},
	{"sim_worker_min_per_commit", "min", "lower"},

	// api
	{"api.submit_server_p50_ms", "ms", "lower"},
	{"api.submit_server_p99_ms", "ms", "lower"},
	{"api.read_server_p99_ms", "ms", "lower"},
	{"api.refused", "count", "lower"},
	// store
	{"store.appends", "count", "lower"},
	{"store.fsyncs", "count", "lower"},
	{"store.fsyncs_per_append", "ratio", "lower"},
	// shard
	{"shard.adopt_wait_p50_ms", "ms", "lower"},
	{"shard.partitions", "count", "lower"},
	{"shard.heavy_partitions", "count", "lower"},
	{"shard.rebalanced", "count", "lower"},
	// conflict
	{"conflict.analyses", "count", "lower"},
	{"conflict.graph_builds", "count", "lower"},
	{"conflict.pairs_rescanned", "count", "lower"},
	{"conflict.pair_cache_hits", "count", "higher"},
	{"conflict.reused_analyses", "count", "higher"},
	// planner
	{"planner.plan_wait_p50_ms", "ms", "lower"},
	{"planner.plan_wait_p99_ms", "ms", "lower"},
	{"planner.plans_computed", "count", "lower"},
	{"planner.plans_skipped", "count", "higher"},
	{"planner.prep_ops_per_build", "ratio", "lower"},
	// speculation / predict
	{"predict.calls", "count", "lower"},
	{"predict.busy_ms", "ms", "lower"},
	// buildsys
	{"buildsys.build_p50_ms", "ms", "lower"},
	{"buildsys.builds_per_decision", "ratio", "lower"},
	{"buildsys.aborted", "count", "lower"},
	{"buildsys.cache_hit_frac", "ratio", "higher"},
	{"buildsys.useful_frac", "ratio", "higher"},
	{"buildsys.step_calls", "count", "lower"},
	// arbiter
	{"arbiter.commit_wait_p50_ms", "ms", "lower"},
	{"arbiter.commits", "count", "higher"},
	{"arbiter.cross_shard_rejects", "count", "lower"},
	{"arbiter.max_queue_depth", "count", "lower"},
	// sched
	{"sched.hotfix_plan_wait_p50_ms", "ms", "lower"},
	// events
	{"events.published", "count", "lower"},
	{"events.dropped", "count", "lower"},
	// sim / strategies
	{"sim.run_ms", "ms", "lower"},
	{"strategies.plan_calls", "count", "lower"},
	{"strategies.plan_busy_ms", "ms", "lower"},
	{"sim.engine_self_ms", "ms", "lower"},
	{"sim.builds_started", "count", "lower"},
	{"sim.builds_aborted", "count", "lower"},
	{"sim.useful_frac", "ratio", "higher"},
	// Go runtime
	{"go.gc_cycles", "count", "lower"},
	{"go.gc_pause_ms", "ms", "lower"},
	{"go.alloc_mb", "MB", "lower"},
	// core
	{"core.turnaround_drift", "ratio", "lower"},
	// harness
	{"gen.late_max_ms", "ms", "lower"},
	{"trace.unattributed_frac", "ratio", "lower"},
	{"trace.overhead_frac", "ratio", "lower"},
}

// untracedLayerMetrics are the perLayer entries a traced run copies from its
// untraced phase: they are user-facing figures, and tracing would skew them.
var untracedLayerMetrics = map[string]bool{
	"failed_frac": true, "submit_p50_ms": true, "submit_p99_ms": true,
	"read_p99_ms": true, "turnaround_p50_ms": true, "turnaround_p99_ms": true,
	"hotfix_turnaround_p50_ms": true, "sim_turnaround_p50_min": true,
	"sim_turnaround_p99_min": true, "sim_worker_min_per_commit": true,
}
