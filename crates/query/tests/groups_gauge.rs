//! The `esp_query_groups` gauge, read through the process-global
//! registry. Alone in its test binary: any other grouped tick running in
//! parallel would overwrite the gauge between a tick and its read.

use esp_query::Engine;
use esp_types::{DataType, Schema, Ts, Tuple, Value};

fn row(k: &str) -> Tuple {
    let schema = Schema::builder().field("k", DataType::Str).build().unwrap();
    Tuple::new(schema, Ts::ZERO, vec![Value::str(k)]).unwrap()
}

/// `esp_query_groups` reports the live groups, before HAVING, on both
/// paths.
#[test]
fn groups_gauge_counts_groups_not_rows() {
    esp_obs::set_enabled(true);
    let sql = "SELECT k, count(*) FROM s [Range By '5 sec'] GROUP BY k HAVING count(*) > 1";
    let engine = Engine::new();
    let batch = vec![row("p"), row("q"), row("p"), row("r")];
    for reference in [false, true] {
        let mut q = engine.compile(sql).unwrap();
        q.set_reference_mode(reference);
        q.push("s", &batch).unwrap();
        let out = q.tick(Ts::ZERO).unwrap();
        assert_eq!(out.len(), 1, "only p passes HAVING");
        let groups = esp_obs::global().gauge_value("esp_query_groups", &[]);
        assert_eq!(groups, Some(3), "reference mode {reference}");
    }
}
