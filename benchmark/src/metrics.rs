//! Metric names and units, in the order they are printed. `BENCHMARK.json`
//! at the repository root lists the same names (a unit test holds the two
//! together) and fixes each end-to-end metric's direction and bound.

use std::collections::BTreeMap;

/// `(name, unit)` of every end-to-end metric; a `--trace 0` run reports
/// all of them, measured with the optional instrumentation off.
pub const END_TO_END: [(&str, &str); 6] = [
    ("throughput_rps", "1/s"),
    ("cpu_us_per_reading", "us"),
    ("epoch_latency_p50_ms", "ms"),
    ("output_err", "ratio"),
    ("peak_rss_mb", "MiB"),
    ("setup_s", "s"),
];

/// `(name, unit)` of every per-layer metric; a `--trace 1` run reports all
/// of them, 0 where the layer does not run on the workload. The prefix is
/// the crate the number belongs to (`esp-` dropped).
pub const PER_LAYER: [(&str, &str); 56] = [
    ("receptors.decode_ns_per_frame", "ns"),
    ("receptors.bytes_per_reading", "B"),
    ("receptors.corrupt_rejected_frac", "ratio"),
    ("gateway.route_ns_per_reading", "ns"),
    ("gateway.append_ns_per_reading", "ns"),
    ("gateway.queue_blocked_frac", "ratio"),
    ("gateway.queue_wait_p95_us", "us"),
    ("gateway.shard_skew", "ratio"),
    ("gateway.flush_p50_us", "us"),
    ("gateway.flush_p95_us", "us"),
    ("gateway.spawn_ms", "ms"),
    ("gateway.drain_ms", "ms"),
    ("gateway.scrape_ms", "ms"),
    ("gateway.readings", "count"),
    ("gateway.corrupt_frames", "count"),
    ("gateway.unroutable", "count"),
    ("gateway.io_errors", "count"),
    ("stream.epoch_step_busy_frac", "ratio"),
    ("stream.window_chunk_push_frac", "ratio"),
    ("stream.window_push_ns_per_row", "ns"),
    ("stream.window_advance_us_per_epoch", "us"),
    ("stream.window_rows_peak", "count"),
    ("query.compile_ms", "ms"),
    ("query.tick_ns_per_row", "ns"),
    ("query.tick_p95_us", "us"),
    ("query.chunk_tick_frac", "ratio"),
    ("query.groups_peak", "count"),
    ("query.live_ticks", "count"),
    ("core.step_ns_per_reading", "ns"),
    ("core.step_p95_ms", "ms"),
    ("core.single_thread_rps", "1/s"),
    ("core.stage_point_share", "ratio"),
    ("core.stage_smooth_share", "ratio"),
    ("core.stage_merge_share", "ratio"),
    ("core.snapshot_bytes", "B"),
    ("core.snapshot_ms", "ms"),
    ("core.restore_ms", "ms"),
    ("types.chunk_to_tuples_ns_per_row", "ns"),
    ("durability.wal_append_ns_per_record", "ns"),
    ("durability.wal_bytes_per_reading", "B"),
    ("durability.wal_sync_p95_us", "us"),
    ("durability.checkpoints", "count"),
    ("durability.checkpoint_cpu_ms", "ms"),
    ("durability.replay_ns_per_record", "ns"),
    ("durability.snapshot_load_ms", "ms"),
    ("durability.recover_ms", "ms"),
    ("lint.deploy_check_ms", "ms"),
    ("obs.render_ms", "ms"),
    ("obs.trace_overhead_pct", "%"),
    ("generator.lag_p95_ms", "ms"),
    ("generator.gen_ms", "ms"),
    ("paced.epoch_latency_p50_ms", "ms"),
    ("paced.epoch_latency_p95_ms", "ms"),
    ("share.edge_cpu", "ratio"),
    ("share.core_cpu", "ratio"),
    ("share.query_cpu", "ratio"),
];

/// The metrics a run of the given kind reports, in print order.
pub fn reported(traced: bool) -> &'static [(&'static str, &'static str)] {
    if traced {
        &PER_LAYER
    } else {
        &END_TO_END
    }
}

/// Metric values by name.
pub type Values = BTreeMap<&'static str, f64>;

/// Render `values` in `order` as the `metrics` object of the result line.
/// Every name in `order` must be present; floats print with every digit
/// they carry.
pub fn to_json(order: &[(&'static str, &'static str)], values: &Values) -> Result<String, String> {
    let mut parts = Vec::with_capacity(order.len());
    for (name, unit) in order {
        let v = values
            .get(name)
            .copied()
            .ok_or_else(|| format!("metric '{name}' was not measured"))?;
        if !v.is_finite() {
            return Err(format!("metric '{name}' is not finite ({v})"));
        }
        parts.push(format!(
            "\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"
        ));
    }
    Ok(format!("{{{}}}", parts.join(", ")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::Value;

    fn names(doc: &Value, key: &str) -> Vec<(String, String)> {
        doc.get(key)
            .and_then(Value::as_array)
            .expect(key)
            .iter()
            .map(|m| {
                let s = |k: &str| m.get(k).and_then(Value::as_str).expect(k).to_string();
                (s("name"), s("unit"))
            })
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics_and_workloads() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc: Value = serde_json::from_str(&text).expect("valid JSON");
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(names(&doc, "end_to_end"), own(&END_TO_END));
        assert_eq!(names(&doc, "per_layer"), own(&PER_LAYER));
        let workloads: Vec<String> = doc
            .get("workloads")
            .and_then(Value::as_array)
            .expect("workloads")
            .iter()
            .map(|w| {
                w.get("name")
                    .and_then(Value::as_str)
                    .expect("name")
                    .to_string()
            })
            .collect();
        let ours: Vec<String> = crate::workloads::ALL
            .iter()
            .map(|s| s.name.to_string())
            .collect();
        assert_eq!(workloads, ours);
    }

    #[test]
    fn result_metrics_need_every_name_and_finite_values() {
        let order = [("a", "ms"), ("b", "count")];
        let mut v = Values::new();
        v.insert("a", 1.25);
        assert!(to_json(&order, &v).is_err());
        v.insert("b", f64::NAN);
        assert!(to_json(&order, &v).is_err());
        v.insert("b", 3.0);
        assert_eq!(
            to_json(&order, &v).unwrap(),
            "{\"a\": {\"value\": 1.25, \"unit\": \"ms\"}, \"b\": {\"value\": 3.0, \"unit\": \"count\"}}"
        );
    }
}
