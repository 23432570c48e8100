//! The metric names, units and directions — the same set `BENCHMARK.json`
//! lists (a test diffs the two).

/// `(name, unit, better)`.
pub type Def = (&'static str, &'static str, &'static str);

pub const WORKLOADS: [&str; 4] = [
    "ingest_heavy",
    "query_heavy",
    "served_mixed",
    "sharded_weighted",
];

pub const END_TO_END: [Def; 15] = [
    ("setup_s", "s", "lower"),
    ("ingest_items_per_s", "1/s", "higher"),
    ("step_close_p50_ms", "ms", "lower"),
    ("step_close_p95_ms", "ms", "lower"),
    ("query_p50_us", "us", "lower"),
    ("query_p99_us", "us", "lower"),
    ("window_query_p50_us", "us", "lower"),
    ("window_query_p99_us", "us", "lower"),
    ("epoch_open_p50_us", "us", "lower"),
    ("rank_err_frac_max", "frac", "lower"),
    ("disk_reads_per_query", "count", "lower"),
    ("round_trips_per_query", "count", "lower"),
    ("write_amp", "ratio", "lower"),
    ("summary_memory_words", "words", "lower"),
    ("peak_rss_mb", "MB", "lower"),
];

pub const PER_LAYER: [Def; 58] = [
    ("sketch.radix.sort_ns_per_item", "ns", "lower"),
    ("sketch.gk.insert_sorted_ns_per_item", "ns", "lower"),
    ("sketch.gk.memory_words", "words", "lower"),
    ("sketch.kll.insert_sorted_ns_per_item", "ns", "lower"),
    ("sketch.kll.memory_words", "words", "lower"),
    ("stream.summary_extract_us", "us", "lower"),
    ("engine.extend_ns_per_item", "ns", "lower"),
    ("engine.end_step_ms_p50", "ms", "lower"),
    ("engine.end_step_ms_p95", "ms", "lower"),
    ("engine.snapshot_us", "us", "lower"),
    ("warehouse.sort_s", "s", "lower"),
    ("warehouse.load_s", "s", "lower"),
    ("warehouse.merge_s", "s", "lower"),
    ("warehouse.summary_s", "s", "lower"),
    ("warehouse.merges", "count", "lower"),
    ("warehouse.merge_bytes_rewritten", "bytes", "lower"),
    ("warehouse.cascade_max_ms", "ms", "lower"),
    ("warehouse.partitions_final", "count", "lower"),
    ("manifest.append_us_p50", "us", "lower"),
    ("manifest.append_us_p95", "us", "lower"),
    ("manifest.log_bytes", "bytes", "lower"),
    ("manifest.blocking_syncs", "count", "lower"),
    ("device.writes", "count", "lower"),
    ("device.syncs", "count", "lower"),
    ("device.seq_reads", "count", "lower"),
    ("device.rand_reads", "count", "lower"),
    ("device.bytes_written", "bytes", "lower"),
    ("device.bytes_read", "bytes", "lower"),
    ("device.retries", "count", "lower"),
    ("retention.retired_partitions", "count", "higher"),
    ("retention.retained_bytes", "bytes", "lower"),
    ("query.bisection_steps_p50", "count", "lower"),
    ("query.bisection_steps_p99", "count", "lower"),
    ("query.reads_p50", "count", "lower"),
    ("query.reads_p99", "count", "lower"),
    ("query.rand_read_share", "frac", "lower"),
    ("bounds.combined_build_us", "us", "lower"),
    ("sharded.extend_ns_per_item", "ns", "lower"),
    ("sharded.end_step_ms_p50", "ms", "lower"),
    ("sharded.snapshot_us", "us", "lower"),
    ("sharded.probe_bounds_us", "us", "lower"),
    ("sharded.shard_skew", "ratio", "lower"),
    ("parallel.workers", "count", "higher"),
    ("proto.request_encode_ns", "ns", "lower"),
    ("proto.request_decode_ns", "ns", "lower"),
    ("proto.response_encode_ns", "ns", "lower"),
    ("proto.response_decode_ns", "ns", "lower"),
    ("proto.ingest_frame_bytes", "bytes", "lower"),
    ("coordinator.ping_rtt_us_p50", "us", "lower"),
    ("coordinator.probe_rounds_p50", "count", "lower"),
    ("coordinator.probe_rounds_p99", "count", "lower"),
    ("coordinator.ingest_frame_us_p50", "us", "lower"),
    ("coordinator.end_step_ms_p50", "ms", "lower"),
    ("coordinator.refresh_us_p50", "us", "lower"),
    ("coordinator.failovers", "count", "lower"),
    ("server.session_open_us", "us", "lower"),
    ("trace.overhead_frac", "frac", "lower"),
    ("trace.spans", "count", "lower"),
];

/// Per-layer metrics that are a percentile of one span name's durations:
/// `(metric, span, percentile, nanoseconds per reported unit)`.
pub const SPAN_PERCENTILES: [(&str, &str, f64, f64); 14] = [
    ("engine.end_step_ms_p50", "engine.end_time_step", 0.50, 1e6),
    ("engine.end_step_ms_p95", "engine.end_time_step", 0.95, 1e6),
    ("engine.snapshot_us", "engine.snapshot", 0.50, 1e3),
    ("manifest.append_us_p50", "manifest.append", 0.50, 1e3),
    ("manifest.append_us_p95", "manifest.append", 0.95, 1e3),
    (
        "bounds.combined_build_us",
        "bounds.combined_summary",
        0.50,
        1e3,
    ),
    (
        "sharded.end_step_ms_p50",
        "sharded.end_time_step",
        0.50,
        1e6,
    ),
    ("sharded.snapshot_us", "sharded.snapshot", 0.50, 1e3),
    ("sharded.probe_bounds_us", "sharded.probe_bounds", 0.50, 1e3),
    ("coordinator.ping_rtt_us_p50", "coordinator.ping", 0.50, 1e3),
    (
        "coordinator.ingest_frame_us_p50",
        "coordinator.ingest",
        0.50,
        1e3,
    ),
    (
        "coordinator.end_step_ms_p50",
        "coordinator.end_step",
        0.50,
        1e6,
    ),
    (
        "coordinator.refresh_us_p50",
        "coordinator.refresh",
        0.50,
        1e3,
    ),
    ("server.session_open_us", "server.open_session", 0.50, 1e3),
];

#[cfg(test)]
mod tests {
    use super::*;

    /// The objects of the JSON array under `"key"`, as raw text. The file
    /// holds flat objects only, so brace matching is enough.
    fn objects<'a>(json: &'a str, key: &str) -> Vec<&'a str> {
        let start = json.find(&format!("\"{key}\"")).expect("section present");
        let open = start + json[start..].find('[').expect("array opens");
        let close = open + json[open..].find(']').expect("array closes");
        json[open + 1..close]
            .split('}')
            .filter_map(|o| o.split_once('{').map(|(_, body)| body))
            .collect()
    }

    fn field<'a>(object: &'a str, key: &str) -> &'a str {
        let rest = &object[object.find(&format!("\"{key}\"")).expect("field present")..];
        let rest = &rest[rest.find(':').expect("colon") + 1..];
        let open = rest.find('"').expect("string opens") + 1;
        &rest[open..open + rest[open..].find('"').expect("string closes")]
    }

    fn defs(json: &str, key: &str) -> Vec<(String, String, String)> {
        objects(json, key)
            .into_iter()
            .map(|o| {
                (
                    field(o, "name").to_string(),
                    field(o, "unit").to_string(),
                    field(o, "better").to_string(),
                )
            })
            .collect()
    }

    fn owned(defs: &[Def]) -> Vec<(String, String, String)> {
        defs.iter()
            .map(|&(n, u, b)| (n.to_string(), u.to_string(), b.to_string()))
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics_and_workloads() {
        let json = include_str!("../../BENCHMARK.json");
        assert_eq!(defs(json, "end_to_end"), owned(&END_TO_END));
        assert_eq!(defs(json, "per_layer"), owned(&PER_LAYER));
        let workloads: Vec<&str> = objects(json, "workloads")
            .into_iter()
            .map(|o| field(o, "name"))
            .collect();
        assert_eq!(workloads, WORKLOADS);
    }

    #[test]
    fn names_are_unique_and_span_metrics_exist() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(&PER_LAYER).map(|d| d.0).collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before, "a metric name is used twice");
        for (metric, ..) in SPAN_PERCENTILES {
            assert!(
                PER_LAYER.iter().any(|d| d.0 == metric),
                "{metric} not listed"
            );
        }
    }
}
