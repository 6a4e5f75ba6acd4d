//! Cross-crate property-based tests: invariants that must hold for any
//! input, not just the paper's scenarios.

use std::sync::Arc;

use proptest::prelude::*;

use esp_core::{ArbitrateStage, DeclarativeStage, SmoothStage, Stage, TieBreak};
use esp_query::Engine;
use esp_types::{DataType, Schema, TimeDelta, Ts, Tuple, TupleBuilder, Value};

fn sighting_schema() -> std::sync::Arc<Schema> {
    Schema::builder()
        .field("spatial_granule", DataType::Str)
        .field("tag_id", DataType::Str)
        .build()
        .unwrap()
}

fn sighting(ts: Ts, granule: &str, tag: &str) -> Tuple {
    TupleBuilder::new(&sighting_schema(), ts)
        .set("spatial_granule", granule)
        .unwrap()
        .set("tag_id", tag)
        .unwrap()
        .build()
        .unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Arbitrate conservation: with a priority tie-break, every tag in the
    /// input appears in the output exactly once, attributed to exactly one
    /// granule.
    #[test]
    fn arbitrate_assigns_each_tag_exactly_once(
        readings in proptest::collection::vec((0usize..3, 0usize..6), 1..60),
    ) {
        let mut stage = ArbitrateStage::new(
            "arb",
            TieBreak::Priority(vec![Arc::from("g0"), Arc::from("g1"), Arc::from("g2")]),
        );
        let input: Vec<Tuple> = readings
            .iter()
            .map(|(g, t)| sighting(Ts::ZERO, &format!("g{g}"), &format!("tag{t}")))
            .collect();
        let distinct_tags: std::collections::HashSet<&str> =
            input.iter().map(|t| t.get("tag_id").unwrap().as_str().unwrap()).collect();
        let out = stage
            .process(Ts::ZERO, input.clone().into())
            .unwrap()
            .into_rows();
        prop_assert_eq!(out.len(), distinct_tags.len());
        let out_tags: std::collections::HashSet<String> = out
            .iter()
            .map(|t| t.get("tag_id").unwrap().as_str().unwrap().to_string())
            .collect();
        prop_assert_eq!(out_tags.len(), out.len(), "no tag appears twice");
    }

    /// Arbitrate with KeepAll never loses a tag either; it may multiply
    /// assign, but each (granule, tag) pair appears at most once.
    #[test]
    fn arbitrate_keep_all_unique_pairs(
        readings in proptest::collection::vec((0usize..2, 0usize..5), 1..40),
    ) {
        let mut stage = ArbitrateStage::new("arb", TieBreak::KeepAll);
        let input: Vec<Tuple> = readings
            .iter()
            .map(|(g, t)| sighting(Ts::ZERO, &format!("g{g}"), &format!("tag{t}")))
            .collect();
        let out = stage.process(Ts::ZERO, input.into()).unwrap().into_rows();
        let pairs: std::collections::HashSet<(String, String)> = out
            .iter()
            .map(|t| {
                (
                    t.get("spatial_granule").unwrap().as_str().unwrap().to_string(),
                    t.get("tag_id").unwrap().as_str().unwrap().to_string(),
                )
            })
            .collect();
        prop_assert_eq!(pairs.len(), out.len());
    }

    /// The built-in Smooth stage and the paper's declarative Query 2
    /// produce identical (tag → count) maps on any input schedule.
    #[test]
    fn builtin_and_declarative_smooth_agree(
        schedule in proptest::collection::vec(
            proptest::collection::vec(0usize..5, 0..6),
            1..20,
        ),
    ) {
        let mut builtin =
            SmoothStage::count_by_key("smooth", TimeDelta::from_secs(5), ["tag_id"]);
        let engine = Engine::new();
        let q = engine
            .compile(
                "SELECT tag_id, count(*) FROM smooth_input [Range By '5 sec'] GROUP BY tag_id",
            )
            .unwrap();
        let mut declarative = DeclarativeStage::new("smooth", q).unwrap();
        let schema = Schema::builder().field("tag_id", DataType::Str).build().unwrap();
        for (i, tags) in schedule.iter().enumerate() {
            let epoch = Ts::from_millis(i as u64 * 700);
            let batch: Vec<Tuple> = tags
                .iter()
                .map(|t| {
                    TupleBuilder::new(&schema, epoch)
                        .set("tag_id", format!("tag{t}"))
                        .unwrap()
                        .build()
                        .unwrap()
                })
                .collect();
            let a = builtin
                .process(epoch, batch.clone().into())
                .unwrap()
                .into_rows();
            let b = declarative.process(epoch, batch.into()).unwrap().into_rows();
            let to_map = |out: &[Tuple]| -> std::collections::BTreeMap<String, i64> {
                out.iter()
                    .map(|t| {
                        (
                            t.get("tag_id").unwrap().as_str().unwrap().to_string(),
                            t.get("count").unwrap().as_i64().unwrap(),
                        )
                    })
                    .collect()
            };
            prop_assert_eq!(to_map(&a), to_map(&b), "epoch {}", i);
        }
    }

    /// Smoothed counts are bounded by the number of sightings in the
    /// window, and every reported tag was actually seen.
    #[test]
    fn smooth_counts_are_conservative(
        schedule in proptest::collection::vec(
            proptest::collection::vec(0usize..4, 0..5),
            1..15,
        ),
    ) {
        let mut stage =
            SmoothStage::count_by_key("smooth", TimeDelta::from_secs(3), ["tag_id"]);
        let schema = Schema::builder().field("tag_id", DataType::Str).build().unwrap();
        let mut seen: std::collections::HashSet<String> = std::collections::HashSet::new();
        for (i, tags) in schedule.iter().enumerate() {
            let epoch = Ts::from_secs(i as u64);
            let batch: Vec<Tuple> = tags
                .iter()
                .map(|t| {
                    let name = format!("tag{t}");
                    seen.insert(name.clone());
                    TupleBuilder::new(&schema, epoch)
                        .set("tag_id", name)
                        .unwrap()
                        .build()
                        .unwrap()
                })
                .collect();
            let out = stage.process(epoch, batch.into()).unwrap().into_rows();
            for t in &out {
                let tag = t.get("tag_id").unwrap().as_str().unwrap();
                prop_assert!(seen.contains(tag), "reported tag {} never seen", tag);
                let count = t.get("count").unwrap().as_i64().unwrap();
                prop_assert!(count >= 1);
            }
        }
    }

    /// Windowed-mean smoothing is always within the min..max of the values
    /// that entered the window.
    #[test]
    fn windowed_mean_bounded_by_inputs(
        values in proptest::collection::vec(-50.0f64..150.0, 1..40),
    ) {
        let mut stage = SmoothStage::windowed_mean(
            "smooth",
            TimeDelta::from_secs(1_000),
            ["receptor_id"],
            "temp",
        );
        let schema = esp_types::well_known::temp_schema();
        let batch: Vec<Tuple> = values
            .iter()
            .map(|v| {
                TupleBuilder::new(&schema, Ts::ZERO)
                    .set("receptor_id", 1i64)
                    .unwrap()
                    .set("temp", *v)
                    .unwrap()
                    .build()
                    .unwrap()
            })
            .collect();
        let out = stage.process(Ts::ZERO, batch.into()).unwrap().into_rows();
        let mean = out[0].get("temp").unwrap().as_f64().unwrap();
        let lo = values.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = values.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(mean >= lo - 1e-9 && mean <= hi + 1e-9);
    }

    /// Query-engine sanity under random projections: any windowed count
    /// query over N pushed tuples reports exactly N for count(*).
    #[test]
    fn count_star_matches_pushed_tuples(n in 0usize..50) {
        let engine = Engine::new();
        let mut q = engine
            .compile("SELECT count(*) FROM s [Range By 'NOW']")
            .unwrap();
        let schema = Schema::builder().field("tag_id", DataType::Str).build().unwrap();
        let batch: Vec<Tuple> = (0..n)
            .map(|i| {
                TupleBuilder::new(&schema, Ts::ZERO)
                    .set("tag_id", format!("t{i}"))
                    .unwrap()
                    .build()
                    .unwrap()
            })
            .collect();
        q.push("s", &batch).unwrap();
        let out = q.tick(Ts::ZERO).unwrap();
        prop_assert_eq!(out[0].get("count"), Some(&Value::Int(n as i64)));
    }
}
