package harness

// MetricDef declares one metric: BENCHMARK.json carries the same list
// (TestBenchmarkJSONMatchesDeclarations keeps the two in step).
type MetricDef struct {
	Name, Unit, Better string
	// Bound is the share of the baseline median an end-to-end metric
	// may worsen by before a change counts as a regression; per-layer
	// metrics have none.
	Bound float64
}

// EndToEnd are the metrics a user of the system sees; every workload
// reports all of them from the untraced window. fail_ratio is not
// among them because a metric must never be 0: failures are counted in
// the result's attempted/failed fields, and any failure makes the run
// incorrect.
var EndToEnd = []MetricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"op_p50_ms", "ms", "lower", 0.25},
	{"op_p95_ms", "ms", "lower", 0.25},
	{"queries_per_op", "count", "lower", 0.02},
	{"rows_per_op", "count", "lower", 0.05},
	{"cpu_ms_per_op", "ms", "lower", 0.25},
	{"alloc_kb_per_op", "KiB", "lower", 0.05},
	{"rss_peak_mb", "MiB", "lower", 0.25},
}

// PerLayer are the single-layer metrics, reported from the traced
// window and the replay rungs. A metric that does not apply to a
// workload (candidates.* without a candidate index, shard.* without a
// federation) reads 0 there.
var PerLayer = []MetricDef{
	{"synth.fixture_build_s", "s", "lower", 0},
	{"kb.snapshot_open_ms", "ms", "lower", 0},
	{"kb.walk_ns_per_row", "ns", "lower", 0},
	{"kb.rows_walked_per_query", "count", "lower", 0},
	{"sparql.exec_us_per_query", "us", "lower", 0},
	{"sparql.rows_per_query", "count", "lower", 0},
	{"sparql.allocs_per_query", "count", "lower", 0},
	{"sparql.prepare_us_per_template", "us", "lower", 0},
	{"endpoint.local_us_per_query", "us", "lower", 0},
	{"endpoint.local_self_us_per_query", "us", "lower", 0},
	{"endpoint.cache_hit_ratio", "ratio", "higher", 0},
	{"endpoint.coalesced_per_op", "count", "higher", 0},
	{"endpoint.decorator_self_us_per_query", "us", "lower", 0},
	{"endpoint.admission_self_us_per_req", "us", "lower", 0},
	{"endpoint.admission_shed", "count", "lower", 0},
	{"endpoint.http_client_self_us_per_req", "us", "lower", 0},
	{"endpoint.http_ttfb_us_per_req", "us", "lower", 0},
	{"endpoint.http_body_read_us_per_req", "us", "lower", 0},
	{"endpoint.http_conns_dialed", "count", "lower", 0},
	{"endpoint.http_conn_reuse_ratio", "ratio", "higher", 0},
	{"endpoint.wire_req_bytes_per_req", "B", "lower", 0},
	{"endpoint.wire_resp_bytes_per_row", "B", "lower", 0},
	{"endpoint.wire_flushes_per_req", "count", "lower", 0},
	{"endpoint.server_handler_us_per_req", "us", "lower", 0},
	{"endpoint.server_self_us_per_req", "us", "lower", 0},
	{"endpoint.server_exec_us_per_req", "us", "lower", 0},
	{"endpoint.early_close_ratio", "ratio", "lower", 0},
	{"shard.fanout_per_query", "count", "lower", 0},
	{"shard.merge_self_us_per_query", "us", "lower", 0},
	{"shard.rows_pulled_per_row_out", "ratio", "lower", 0},
	{"shard.straggler_us_per_query", "us", "lower", 0},
	{"cluster.self_us_per_call", "us", "lower", 0},
	{"cluster.attempts_per_call", "count", "lower", 0},
	{"cluster.failed_attempts", "count", "lower", 0},
	{"candidates.index_open_ms", "ms", "lower", 0},
	{"candidates.sidecar_mb", "MiB", "lower", 0},
	{"candidates.topk_us_per_rel", "us", "lower", 0},
	{"candidates.recall_at_k", "ratio", "higher", 0},
	{"core.self_ms_per_op", "ms", "lower", 0},
	{"core.probe_wait_share", "ratio", "lower", 0},
	{"core.parallel_overlap", "ratio", "higher", 0},
	{"core.probes_per_op.sample", "count", "lower", 0},
	{"core.probes_per_op.objects", "count", "lower", 0},
	{"core.probes_per_op.overlap", "count", "lower", 0},
	{"core.probes_per_op.between", "count", "lower", 0},
	{"core.probes_per_op.literals", "count", "lower", 0},
	{"core.probes_per_op.other", "count", "lower", 0},
	{"core.f1_d2y", "ratio", "higher", 0},
	{"core.f1_y2d", "ratio", "higher", 0},
	{"core.accepted_per_pass", "count", "higher", 0},
	{"op.wall_share.core", "ratio", "lower", 0},
	{"op.wall_share.federation", "ratio", "lower", 0},
	{"op.wall_share.decorators", "ratio", "lower", 0},
	{"op.wall_share.client", "ratio", "lower", 0},
	{"op.wall_share.wire", "ratio", "lower", 0},
	{"op.wall_share.server", "ratio", "lower", 0},
	{"op.wall_share.local", "ratio", "lower", 0},
	{"proc.allocs_per_op", "count", "lower", 0},
	{"proc.gc_cycles", "count", "lower", 0},
	{"proc.gc_pause_ms", "ms", "lower", 0},
	{"proc.goroutines_peak", "count", "lower", 0},
	{"trace.overhead_ratio", "ratio", "higher", 0},
	{"trace.spans", "count", "lower", 0},
	{"trace.misparented_spans", "count", "lower", 0},
}

// goldens are the quality floors of the full spec, measured when the
// benchmark was defined. A run whose value falls below one is
// incorrect, whatever its speed.
var goldens = map[string]map[string]float64{
	OnTheFlyLocal:  {"core.f1_d2y": 0.75, "core.f1_y2d": 0.94},
	OnTheFlyHTTP3:  {"core.f1_d2y": 0.75, "core.f1_y2d": 0.94},
	BatchTopKScale: {"core.f1_d2y": 0.90, "candidates.recall_at_k": 0.94},
}
