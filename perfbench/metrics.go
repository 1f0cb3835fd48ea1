package main

// metricDef names one reported metric: its unit, which direction is
// better and the layer (package) it measures. README.md tables each with
// the end-to-end metric it should move; the self-test checks this list
// against BENCHMARK.json.
type metricDef struct {
	Name, Unit, Better, Layer string
}

// endToEnd are the metrics a user of the simulator sees. Every workload
// reports every one of them, with tracing off, and none is ever zero.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", "e2e"},
	{"wall_s", "s", "lower", "e2e"},
	{"sim_msgs_per_s", "1/s", "higher", "e2e"},
	{"max_rss_mb", "MB", "lower", "e2e"},
}

// perLayer are the metrics a traced run reports. A layer a workload does
// not exercise reports 0 (the stream workload runs no service job).
var perLayer = []metricDef{
	// Workload-specific end-to-end figures, measured with tracing off.
	{"fail_ratio", "ratio", "lower", "e2e"},
	{"speedup_geomean_tuned", "x", "higher", "e2e"},
	{"cold_p50_ms", "ms", "lower", "e2e"},
	{"cold_tail_ms", "ms", "lower", "e2e"},
	{"hit_p50_ms", "ms", "lower", "e2e"},
	{"hit_tail_ms", "ms", "lower", "e2e"},
	{"jobs_per_s", "1/s", "higher", "e2e"},
	{"trace.overhead_ratio", "ratio", "lower", "perfbench"},

	{"sim.events", "count", "lower", "sim"},
	{"sim.ns_per_event", "ns", "lower", "sim"},
	{"spamer.build_s", "s", "lower", "spamer"},
	{"spamer.run_p50_s", "s", "lower", "spamer"},
	{"spamer.run_tail_s", "s", "lower", "spamer"},

	{"vl.push_nack_ratio", "ratio", "lower", "vl"},
	{"vl.fetches", "count", "lower", "vl"},
	{"core.spec_hit_ratio", "ratio", "higher", "core"},
	{"noc.packets", "count", "lower", "noc"},
	{"noc.utilization", "ratio", "lower", "noc"},
	{"mem.empty_ticks", "count", "lower", "mem"},

	{"harness.queue_wait_s", "s", "lower", "harness"},
	{"harness.busy_ratio", "ratio", "higher", "harness"},
	{"harness.straggler_s", "s", "lower", "harness"},

	{"experiments.hash_s", "s", "lower", "experiments"},
	{"experiments.validate_s", "s", "lower", "experiments"},
	{"dag.compile_s", "s", "lower", "dag"},

	{"service.submit_ms", "ms", "lower", "service"},
	{"service.queue_wait_ms", "ms", "lower", "service"},
	{"service.exec_ms", "ms", "lower", "service"},
	{"service.notify_ms", "ms", "lower", "service"},
	{"service.cache_hit_ratio", "ratio", "higher", "service"},
	{"service.rejected", "count", "lower", "service"},

	{"fabric.placements", "count", "lower", "fabric"},
	{"fabric.local_fallbacks", "count", "lower", "fabric"},
	{"fabric.retries", "count", "lower", "fabric"},
	{"fabric.store_hit_ratio", "ratio", "higher", "fabric"},

	{"go.mallocs_per_msg", "count", "lower", "runtime"},
	{"go.alloc_bytes_per_msg", "B", "lower", "runtime"},
	{"go.gc_cycles", "count", "lower", "runtime"},
}

func findDef(name string) (metricDef, bool) {
	for _, list := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range list {
			if d.Name == name {
				return d, true
			}
		}
	}
	return metricDef{}, false
}
