package main

import (
	_ "embed"
	"encoding/json"
	"strconv"
)

// metricDef names one metric of the benchmark. README.md defines each.
type metricDef struct {
	name   string
	unit   string
	better string // "lower" or "higher"
	// bound is the share of the baseline's median by which an end-to-end
	// metric may get worse before -compare reports it regressed.
	bound float64
}

// documentEndToEnd are the end-to-end metrics of ISSUE 11 with its bounds,
// none above 10%: what the document carries and -compare judges, between two
// documents of one seed. serving_rss_mb is added as the steady companion of
// peak_rss_mb, which follows the collector's timing during the index builds.
var documentEndToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.10},
	{"query_p50_ms", "ms", "lower", 0.10},
	{"query_p95_ms", "ms", "lower", 0.10},
	{"throughput_qps", "1/s", "higher", 0.10},
	{"knn_p50_ms", "ms", "lower", 0.10},  // mixed only
	{"scan_p50_ms", "ms", "lower", 0.10}, // mixed only
	{"error_rate", "ratio", "lower", 0},  // any increase
	{"index_bytes_per_value", "B", "lower", 0.01},
	{"peak_rss_mb", "MB", "lower", 0.10},
	{"serving_rss_mb", "MB", "lower", 0.10},
}

// contractEndToEnd are the end-to-end metrics BENCHMARK.json lists, which the
// driver gates across ten seeds; a -trace 0 pass prints exactly these. By the
// issue's rule a metric whose spread exceeds its 10% bound is demoted, not
// given a wider bound, and on the builder's box every timed metric of the
// window did (14–60%, README.md "Reference numbers"): they stay in the
// document, and the traced pass reports workload.call_* per layer. Two bounds
// differ from the issue's because the driver's rules differ from -compare's:
// it requires setup_s and advises its widest bound for it, and it takes the
// spread of index_bytes_per_value across seeds, hence across datasets (3%).
var contractEndToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"index_bytes_per_value", "B", "lower", 0.10},
}

// layerMetrics are the per-layer metrics, named after the repository's
// modules; a -trace 1 pass prints exactly these, 0 where one does not apply
// to the workload.
var layerMetrics = []metricDef{
	// Set-up spans, which add up to setup_s.
	{name: "workload.generate_s", unit: "s", better: "lower"},
	{name: "seqdb.ingest_s", unit: "s", better: "lower"},
	{name: "seqdb.build_index_s", unit: "s", better: "lower"},
	{name: "shard.partition_s", unit: "s", better: "lower"},
	{name: "seqdb.open_s", unit: "s", better: "lower"},
	{name: "server.start_s", unit: "s", better: "lower"},
	{name: "workload.warmup_s", unit: "s", better: "lower"},
	{name: "seqdb.first_query_ms", unit: "ms", better: "lower"},
	// Build probes and sizes.
	{name: "categorize.fit_s", unit: "s", better: "lower"},
	{name: "suffixtree.build_ns_per_symbol", unit: "ns", better: "lower"},
	{name: "disktree.write_ns_per_node", unit: "ns", better: "lower"},
	{name: "disktree.file_pages", unit: "count", better: "lower"},
	{name: "disktree.bytes_per_node", unit: "B", better: "lower"},
	{name: "storage.pool_pages", unit: "count", better: "lower"},
	// Serving stack.
	{name: "serving.self_ms_p50", unit: "ms", better: "lower"},
	{name: "serving.bytes_out_per_query", unit: "B", better: "lower"},
	{name: "wire.match_encode_ns", unit: "ns", better: "lower"},
	{name: "wire.match_decode_ns", unit: "ns", better: "lower"},
	{name: "wire.match_bytes", unit: "B", better: "lower"},
	{name: "server.errors", unit: "count", better: "lower"},
	{name: "server.overloaded", unit: "count", better: "lower"},
	{name: "server.deadlines", unit: "count", better: "lower"},
	{name: "server.matches_streamed", unit: "count", better: "higher"},
	// Engine.
	{name: "seqdb.search_ms_p50", unit: "ms", better: "lower"},
	{name: "seqdb.self_ms_p50", unit: "ms", better: "lower"},
	{name: "seqdb.knn_ms_p50", unit: "ms", better: "lower"},
	{name: "seqdb.scan_ms_p50", unit: "ms", better: "lower"},
	{name: "core.search_ms_p50", unit: "ms", better: "lower"},
	{name: "core.nodes_visited", unit: "count", better: "lower"},
	{name: "core.filter_cells", unit: "count", better: "lower"},
	{name: "core.post_cells", unit: "count", better: "lower"},
	{name: "core.lb_cells", unit: "count", better: "lower"},
	{name: "core.envelope_pruned", unit: "count", better: "higher"},
	{name: "core.candidates", unit: "count", better: "lower"},
	{name: "core.false_alarms", unit: "count", better: "lower"},
	{name: "core.answers", unit: "count", better: "higher"},
	{name: "core.answers_per_candidate", unit: "ratio", better: "higher"},
	{name: "core.pruned_per_lb_cell", unit: "ratio", better: "higher"},
	// Kernels.
	{name: "dtw.addrow_value_ns_per_cell", unit: "ns", better: "lower"},
	{name: "dtw.addrow_interval_ns_per_cell", unit: "ns", better: "lower"},
	{name: "dtw.addrow_banded_ns_per_cell", unit: "ns", better: "lower"},
	{name: "dtw.lbkeogh_ns_per_point", unit: "ns", better: "lower"},
	{name: "dtw.envelope_bind_ns", unit: "ns", better: "lower"},
	{name: "disktree.decode_ns_per_node", unit: "ns", better: "lower"},
	// Storage.
	{name: "storage.pages_read", unit: "count", better: "lower"},
	{name: "storage.pool_hit_ratio", unit: "ratio", better: "higher"},
	{name: "storage.pool_evictions", unit: "count", better: "lower"},
	{name: "storage.view_hit_ns", unit: "ns", better: "lower"},
	{name: "storage.view_miss_ns", unit: "ns", better: "lower"},
	// Sharding.
	{name: "shard.leg_ms_max", unit: "ms", better: "lower"},
	{name: "shard.leg_ms_sum", unit: "ms", better: "lower"},
	{name: "shard.merge_self_ms_p50", unit: "ms", better: "lower"},
	// Attribution of core.search_ms_p50, as estimates.
	{name: "core.filter_dp_ms_est", unit: "ms", better: "lower"},
	{name: "core.post_dp_ms_est", unit: "ms", better: "lower"},
	{name: "core.decode_ms_est", unit: "ms", better: "lower"},
	{name: "core.unattributed_ms", unit: "ms", better: "lower"},
	// The whole call as the workload's user makes it, one client, untraced:
	// where the window's latency and throughput show in a -trace 1 line.
	{name: "workload.call_ms_p50", unit: "ms", better: "lower"},
	{name: "workload.call_ms_p95", unit: "ms", better: "lower"},
	{name: "workload.calls_per_s", unit: "1/s", better: "higher"},
	// The trace itself.
	{name: "trace.spans", unit: "count", better: "lower"},
	{name: "trace.overhead_pct", unit: "%", better: "lower"},
}

//go:embed golden.json
var goldenJSON []byte

// golden holds the pinned answer digests: seed → workload → digest.
var golden = func() map[string]map[string]string {
	var pinned map[string]map[string]string
	if err := json.Unmarshal(goldenJSON, &pinned); err != nil {
		panic("bench: golden.json, embedded at build time, is malformed: " + err.Error())
	}
	return pinned
}()

// goldenDigest returns the pinned answer digest of a workload, if the run is
// canonical and its seed is pinned. A later change that alters answers then
// fails the benchmark instead of posting a time.
func goldenDigest(cfg config, workload string) (string, bool) {
	if !cfg.canonical() {
		return "", false
	}
	d, ok := golden[strconv.FormatInt(cfg.seed, 10)][workload]
	return d, ok
}
