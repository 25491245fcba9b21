package main

// metricDef is one metric as BENCHMARK.json declares it.
type metricDef struct {
	name, unit, better string
}

// endToEnd are the metrics of an untraced run (--trace 0).
var endToEnd = []metricDef{
	{"rps", "req/s", "higher"},
	{"p50_ms", "ms", "lower"},
	{"setup_s", "s", "lower"},
	{"sim_gbps", "Gbit/s", "higher"},
	{"sim_speedup_xeon", "x", "higher"},
}

// perLayer are the metrics of a traced run (--trace 1). Every workload
// prints all of them; a layer a workload's requests do not cross reads 0
// there (transport on fleet-inproc, elements and cluster off
// cluster-cached).
var perLayer = []metricDef{
	{"codec.unmarshal_ns", "ns", "lower"},
	{"codec.marshal_ns", "ns", "lower"},
	{"codec.allocs_per_op", "count", "lower"},
	{"core.batch_us", "us", "lower"},
	{"core.reset_us", "us", "lower"},
	{"core.ns_per_sim_cycle", "ns", "lower"},
	{"core.allocs_per_batch", "count", "lower"},
	{"core.systems_built", "count", "lower"},
	{"core.heap_mb", "MB", "lower"},
	{"serve.queue_wait_us", "us", "lower"},
	{"serve.coalesce_wait_us", "us", "lower"},
	{"serve.build_us", "us", "lower"},
	{"serve.execute_us", "us", "lower"},
	{"serve.respond_us", "us", "lower"},
	{"serve.e2e_us", "us", "lower"},
	{"serve.batch_size", "count", "higher"},
	{"serve.shed", "count", "lower"},
	{"serve.deadline", "count", "lower"},
	{"transport.do_us", "us", "lower"},
	{"transport.residual_us", "us", "lower"},
	{"transport.allocs_per_req", "count", "lower"},
	{"elements.cache_hit_ratio", "ratio", "higher"},
	{"elements.throttled", "count", "lower"},
	{"elements.breaker_trips", "count", "lower"},
	{"cluster.do_us", "us", "lower"},
	{"cluster.overhead_us", "us", "lower"},
	{"cluster.node_share_max", "ratio", "lower"},
	{"cluster.retries", "count", "lower"},
	{"cluster.redials", "count", "lower"},
	{"workloads.synth_ms", "ms", "lower"},
	{"workloads.calibrate_ms", "ms", "lower"},
	{"client.p99_ms", "ms", "lower"},
	{"client.p99_beyond", "count", "higher"},
	{"gen.late_ms", "ms", "lower"},
	{"runtime.cpu_us_per_req", "us", "lower"},
	{"runtime.gc_count", "count", "lower"},
	{"trace.overhead_ratio", "ratio", "higher"},
}

// newResult builds the result line: the run is correct when every
// attempted request ended in a verified OK, and it reports exactly the
// metrics of defs, with their units.
func newResult(t tally, values map[string]float64, defs []metricDef) *result {
	r := &result{Correct: t.failed() == 0, Attempted: t.attempted, Failed: t.failed(), Metrics: map[string]metric{}}
	for _, d := range defs {
		r.Metrics[d.name] = metric{values[d.name], d.unit}
	}
	return r
}
