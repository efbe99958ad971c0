package main

// metricDecl is one line of BENCHMARK.json: a metric's name, unit and
// direction, and for end-to-end metrics the share of the parent's
// median by which it may worsen before a change counts as a
// regression. TestBenchmarkJSONMatches holds the file to these tables.
type metricDecl struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
}

// endToEnd are the metrics every workload reports untraced. The
// acceptance contract wants one set for all workloads, so the two
// measured slots are filled per workload (workloadSpec.throughput and
// .latency); the metrics ISSUE 12 names are reported under e2e.* below.
var endToEnd = []metricDecl{
	{"throughput_per_s", "1/s", "higher", 0.25},
	{"latency_p50_ms", "ms", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer are the metrics a traced run reports, for every workload; a
// layer a workload bypasses reads 0.
var perLayer = []metricDecl{
	// The end-to-end metrics under the names ISSUE 12 gave them, from
	// the untraced half of the traced run.
	{"e2e.captures_per_s", "1/s", "higher", 0},
	{"e2e.view_lag_p50_ms", "ms", "lower", 0},
	{"e2e.ingest_ack_p50_ms", "ms", "lower", 0},
	{"e2e.ingest_records_per_s", "1/s", "higher", 0},
	{"e2e.query_p50_ms", "ms", "lower", 0},
	{"e2e.queries_per_s", "1/s", "higher", 0},
	{"e2e.sweep_rows_per_s", "1/s", "higher", 0},
	{"e2e.replay_records_per_s", "1/s", "higher", 0},
	{"e2e.reread_records_per_s", "1/s", "higher", 0},
	{"e2e.reopen_p50_ms", "ms", "lower", 0},
	{"e2e.decisions_per_s", "1/s", "higher", 0},
	{"e2e.decide_batch_p50_ms", "ms", "lower", 0},
	{"e2e.disk_bytes_per_user_byte", "ratio", "lower", 0},
	{"e2e.failed_ops_share", "ratio", "lower", 0},

	{"crawler.self_s", "s", "lower", 0},
	{"crawler.visit_busy_s", "s", "lower", 0},
	{"crawler.visit_p50_us", "us", "lower", 0},
	{"crawler.visits", "count", "lower", 0},
	{"crawler.retries", "count", "lower", 0},
	{"crawler.dead_lettered", "count", "lower", 0},

	{"fleet.self_s", "s", "lower", 0},
	{"fleet.coord_busy_s", "s", "lower", 0},
	{"fleet.leases", "count", "lower", 0},
	{"fleet.reassigned", "count", "lower", 0},
	{"fleet.shed", "count", "lower", 0},
	{"fleet.worker_idle_share", "ratio", "lower", 0},

	{"capturedb.encode_ns_per_rec", "ns", "lower", 0},
	{"capturedb.decode_ns_per_rec", "ns", "lower", 0},
	{"capturedb.encode_allocs_per_rec", "count", "lower", 0},
	{"capturedb.decode_allocs_per_rec", "count", "lower", 0},
	{"capturedb.bytes_per_rec", "bytes", "lower", 0},

	{"capstore.self_s", "s", "lower", 0},
	{"capstore.ingest_busy_s", "s", "lower", 0},
	{"capstore.ingest_batches", "count", "lower", 0},
	{"capstore.ingest_duplicates", "count", "lower", 0},
	{"capstore.ingest_tail_ms", "ms", "lower", 0},
	{"capstore.query_busy_s", "s", "lower", 0},
	{"capstore.rows_scanned_per_result", "ratio", "lower", 0},
	{"capstore.rows_skipped_share", "ratio", "higher", 0},
	{"capstore.local_sweep_rows_per_s", "1/s", "higher", 0},
	{"capstore.open_ms_per_node", "ms", "lower", 0},
	{"capstore.open_tail_records", "count", "lower", 0},

	{"replica.self_s", "s", "lower", 0},
	{"replica.ingest_self_s", "s", "lower", 0},
	{"replica.fanout_bytes_per_user_byte", "ratio", "lower", 0},
	{"replica.converge_tail_s", "s", "lower", 0},
	{"replica.handoff_max", "count", "lower", 0},
	{"replica.ingest_ack_tail_ms", "ms", "lower", 0},
	{"replica.reader_busy_s", "s", "lower", 0},
	{"replica.busiest_node_read_share", "ratio", "lower", 0},
	{"replica.sweep_vs_local_ratio", "ratio", "lower", 0},
	{"replica.query_tail_ms", "ms", "lower", 0},
	{"replica.query_p50_q1_ms", "ms", "lower", 0},
	{"replica.query_p50_q4_ms", "ms", "lower", 0},

	{"ring.placement_skew", "ratio", "lower", 0},

	{"pack.compactions", "count", "higher", 0},
	{"pack.packs", "count", "lower", 0},
	{"pack.packed_share", "ratio", "higher", 0},
	{"pack.bytes_rewritten_per_user_byte", "ratio", "lower", 0},
	{"pack.compact_mb_per_s", "MB/s", "higher", 0},
	{"pack.pace_sleep_s", "s", "lower", 0},

	{"analytics.self_s", "s", "lower", 0},
	{"analytics.sweep_busy_s", "s", "lower", 0},
	{"analytics.fold_ns_per_rec", "ns", "lower", 0},
	{"analytics.records_folded", "count", "higher", 0},
	{"analytics.max_lag_records", "count", "lower", 0},
	{"analytics.view_lag_tail_ms", "ms", "lower", 0},
	{"analytics.snapshot_rebuild_ms", "ms", "lower", 0},
	{"analytics.state_bytes", "bytes", "lower", 0},

	{"decision.self_s", "s", "lower", 0},
	{"decision.batch_busy_s", "s", "lower", 0},
	{"decision.cache_hit_ratio", "ratio", "higher", 0},
	{"decision.compile_misses", "count", "lower", 0},
	{"decision.ns_per_decision", "ns", "lower", 0},
	{"decision.decide_batch_p99_ms", "ms", "lower", 0},

	{"proc.cpu_s", "s", "lower", 0},
	{"proc.peak_rss_mb", "MB", "lower", 0},
	{"proc.mallocs_per_op", "count", "lower", 0},
	{"proc.gc_pause_ms", "ms", "lower", 0},

	{"bench.self_s", "s", "lower", 0},
	{"bench.unattributed_share", "ratio", "lower", 0},
	{"bench.slowest_layer_share", "ratio", "lower", 0},
	{"bench.trace_overhead_share", "ratio", "lower", 0},
}

// layerUnit is each per-layer metric's declared unit.
var layerUnit = func() map[string]string {
	m := make(map[string]string, len(perLayer))
	for _, d := range perLayer {
		m[d.Name] = d.Unit
	}
	return m
}()
