package main

// metrics.go is the benchmark's metric catalogue: every name it prints,
// with its unit. BENCHMARK.json lists the same names (a test keeps the
// two in step); README.md says what each one measures on each workload.

// metricDef is one reported metric.
type metricDef struct {
	name, unit string
}

// endToEnd are printed by untraced runs (--trace 0), on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"heap_peak_mb", "MB"},
	{"throughput_per_s", "1/s"},
	{"call_ms", "ms"},
}

// workloadMetrics are the per-workload end-to-end figures (the
// latencies under their own names, their tails, the failure ratio, and
// the machine speed with the two timings it scaled). Traced runs report
// them from their untraced pass.
var workloadMetrics = []metricDef{
	{"results_per_s", "1/s"},
	{"sync_p50_ms", "ms"},
	{"sync_p99_ms", "ms"},
	{"turnaround_p50_ms", "ms"},
	{"turnaround_p90_ms", "ms"},
	{"query_p50_ms", "ms"},
	{"query_p90_ms", "ms"},
	{"queries_per_s", "1/s"},
	{"sweep_s", "s"},
	{"fail_ratio", "ratio"},
	{"machine.speed", "ratio"},
	{"raw.setup_s", "s"},
	{"raw.throughput_per_s", "1/s"},
	{"raw.call_ms", "ms"},
}

// layerMetrics are the per-layer diagnostics of traced runs.
var layerMetrics = []metricDef{
	{"core.http.sync.mean_us", "us"},
	{"core.http.sync.count", "count"},
	{"core.mutator.sync.mean_us", "us"},
	{"core.sync.outside_mutator_us", "us"},
	{"core.sync.results_per_sync", "ratio"},
	{"core.sync.empty_ratio", "ratio"},
	{"core.submit.mean_ms", "ms"},

	{"journal.append.count", "count"},
	{"journal.append.mean_us", "us"},
	{"journal.fsync.mean_us", "us"},
	{"journal.encode_write.mean_us", "us"},
	{"journal.fsync.busy_share", "ratio"},
	{"journal.fsyncs_per_result", "ratio"},
	{"journal.bytes_per_result", "B"},

	{"store.ingest.mean_us", "us"},
	{"store.flush.count", "count"},
	{"store.flush.mean_ms", "ms"},
	{"store.flush.busy_share", "ratio"},
	{"store.bytes_per_result", "B"},
	{"store.scan.mean_ms", "ms"},
	{"store.aggregate.mean_ms", "ms"},
	{"store.segments", "count"},

	{"federation.shard_call.mean_ms", "ms"},
	{"federation.query.merge_ms", "ms"},
	{"federation.sync.route_us", "us"},
	{"federation.hedge_ratio", "ratio"},
	{"federation.degraded_ratio", "ratio"},

	{"go.alloc_bytes_per_result", "B"},
	{"go.gc_cycles", "count"},
	{"go.gc_cpu_share", "ratio"},

	{"env.topology_s", "s"},
	{"env.bgp_s", "s"},
	{"env.netsim_s", "s"},
	{"env.registry_s", "s"},
	{"env.routed_table_s", "s"},
	{"env.dnssim_s", "s"},
	{"env.content_s", "s"},
	{"env.geoloc_s", "s"},
	{"env.ixp_s", "s"},
	{"dnssim.chain_cache_hit_ratio", "ratio"},
}

// selfLayers are the layers whose self time the traced run reports as a
// share of client time (wall time x client goroutines).
var selfLayers = []string{
	"client",
	"core.http",
	"federation.http",
	"federation.shard",
	"core.mutator",
	"journal.encode_write",
	"journal.fsync",
	"store.ingest",
	"store.flush",
	"store.query",
	"env",
	"exp",
}

// perLayer is every metric a traced run prints, in order.
func perLayer() []metricDef {
	out := append([]metricDef(nil), workloadMetrics...)
	out = append(out, layerMetrics...)
	for _, e := range reproList {
		out = append(out, metricDef{"exp." + e.id + "_s", "s"})
	}
	for _, l := range selfLayers {
		out = append(out, metricDef{"self." + l + ".share", "ratio"})
	}
	for _, m := range endToEnd {
		out = append(out, metricDef{"trace.overhead." + m.name, "ratio"})
	}
	return out
}
