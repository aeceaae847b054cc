package main

// metricDef names one reported metric and its unit.  The lists match
// the end_to_end and per_layer entries of BENCHMARK.json.
type metricDef struct{ Name, Unit string }

var endToEndMetrics = []metricDef{
	{"setup_s", "s"},
	{"job_p50_s", "s"},
	{"peak_rss_mb", "MB"},
}

// closedLoopMetrics are printed beside the end-to-end metrics but not
// gated: under a closed loop they follow from the latencies, and as
// means over the window they spread more between runs than the median.
var closedLoopMetrics = []metricDef{
	{"rowperms_per_s", "1/s"},
	{"jobs_per_s", "1/s"},
}

var layerMetrics = []metricDef{
	{"perm.labels_ns_per_perm", "ns"},
	{"stat.batch_ns_per_rowperm", "ns"},
	{"stat.computed_bytes_per_rowperm", "B"},
	{"stat.delta_ns_per_rowperm", "ns"},
	{"maxt.process_ns_per_rowperm", "ns"},
	{"maxt.count_ns_per_rowperm", "ns"},
	{"maxt.subset_ms", "ms"},
	{"maxt.finalize_ms", "ms"},
	{"core.prepare_ms", "ms"},
	{"core.run_ns_per_rowperm", "ns"},
	{"core.scaling_eff", "ratio"},
	{"seqstop.observe_us", "us"},
	{"seqstop.b_eff_median", "count"},
	{"seqstop.perms_saved_frac", "ratio"},
	{"jobs.submit_ms_p50", "ms"},
	{"jobs.queue_wait_ms_p50", "ms"},
	{"jobs.service_ms_p50", "ms"},
	{"jobs.prep_hit_ratio", "ratio"},
	{"jobs.cache_hit_ratio", "ratio"},
	{"jobs.checkpoint_writes_per_job", "count"},
	{"httpapi.polls_per_job", "count"},
	{"httpapi.client_gap_ms_p50", "ms"},
	{"httpapi.result_bytes", "B"},
	{"httpapi.decode_submit_us", "us"},
	{"httpapi.put_dataset_ms", "ms"},
	{"matrix.spb_decode_ms", "ms"},
	{"cluster.shard_ms_p50", "ms"},
	{"cluster.overhead_frac", "ratio"},
	{"cluster.shards_per_job", "count"},
	{"cluster.retries_per_job", "count"},
	{"cluster.response_bytes_per_shard", "B"},
}
