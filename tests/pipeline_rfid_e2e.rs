//! End-to-end §4 RFID pipeline: scenario → ESP → application query →
//! scored against ground truth, exercising every crate together.

use std::collections::HashSet;
use std::sync::Arc;

use esp_core::{ArbitrateStage, Pipeline, SmoothStage, TieBreak};
use esp_integration_tests::{build_processor, with_type};
use esp_metrics::average_relative_error;
use esp_receptors::rfid::ShelfScenario;
use esp_types::{ReceptorType, TimeDelta, Ts, Value};

fn paper_pipeline(granule: TimeDelta) -> Pipeline {
    Pipeline::builder()
        .per_receptor("smooth", move |_| {
            Ok(Box::new(SmoothStage::count_by_key(
                "smooth",
                granule,
                ["spatial_granule", "tag_id"],
            )))
        })
        .global("arbitrate", |_| {
            Ok(Box::new(ArbitrateStage::new(
                "arbitrate",
                TieBreak::Priority(vec![Arc::from("shelf1"), Arc::from("shelf0")]),
            )))
        })
        .build()
}

fn shelf_error(pipeline: &Pipeline, seed: u64, secs: u64) -> f64 {
    let scenario = ShelfScenario::paper(seed);
    let period = scenario.config().sample_period;
    let proc = build_processor(
        &scenario.groups(),
        pipeline,
        with_type(scenario.sources(), ReceptorType::Rfid),
    )
    .unwrap();
    let out = proc
        .run(Ts::ZERO, period, secs * 1000 / period.as_millis())
        .unwrap();
    let mut pairs = Vec::new();
    for (epoch, batch) in &out.trace {
        for shelf in 0..2 {
            let tags: HashSet<&str> = batch
                .iter()
                .filter(|t| {
                    t.get("spatial_granule").and_then(Value::as_str)
                        == Some(format!("shelf{shelf}").as_str())
                })
                .filter_map(|t| t.get("tag_id").and_then(Value::as_str))
                .collect();
            pairs.push((tags.len() as f64, scenario.true_count(shelf, *epoch) as f64));
        }
    }
    average_relative_error(pairs)
}

#[test]
fn cleaned_error_is_an_order_of_magnitude_below_raw() {
    let raw = shelf_error(&Pipeline::raw(), 5, 120);
    let cleaned = shelf_error(&paper_pipeline(TimeDelta::from_secs(5)), 5, 120);
    assert!(raw > 0.3, "raw error {raw}");
    assert!(cleaned < 0.1, "cleaned error {cleaned}");
    assert!(cleaned < raw / 4.0, "cleaned {cleaned} vs raw {raw}");
}

#[test]
fn result_is_deterministic_across_runs() {
    let a = shelf_error(&paper_pipeline(TimeDelta::from_secs(5)), 9, 60);
    let b = shelf_error(&paper_pipeline(TimeDelta::from_secs(5)), 9, 60);
    assert_eq!(a, b, "same seed must give identical results");
    let c = shelf_error(&paper_pipeline(TimeDelta::from_secs(5)), 10, 60);
    assert_ne!(a, c, "different seeds should differ");
}

#[test]
fn tiny_granule_cannot_straddle_gaps() {
    // Figure 6's left side: a 0.4 s window is below the device reliability
    // floor, so error increases vs the 5 s granule.
    let tiny = shelf_error(&paper_pipeline(TimeDelta::from_millis(400)), 5, 120);
    let right = shelf_error(&paper_pipeline(TimeDelta::from_secs(5)), 5, 120);
    assert!(
        tiny > right,
        "tiny-granule error {tiny} should exceed {right}"
    );
}

#[test]
fn huge_granule_lags_relocations() {
    // Figure 6's right side: a 30 s window straddles relocation events.
    let huge = shelf_error(&paper_pipeline(TimeDelta::from_secs(30)), 5, 200);
    let right = shelf_error(&paper_pipeline(TimeDelta::from_secs(5)), 5, 200);
    assert!(
        huge > right,
        "huge-granule error {huge} should exceed {right}"
    );
}

#[test]
fn every_output_tuple_is_well_formed() {
    let scenario = ShelfScenario::paper(2);
    let period = scenario.config().sample_period;
    let proc = build_processor(
        &scenario.groups(),
        &paper_pipeline(TimeDelta::from_secs(5)),
        with_type(scenario.sources(), ReceptorType::Rfid),
    )
    .unwrap();
    let out = proc.run(Ts::ZERO, period, 100).unwrap();
    let all_tags: HashSet<String> = scenario.all_tags().into_iter().collect();
    for (epoch, batch) in &out.trace {
        for t in batch {
            // Arbitrated tuples carry granule, tag, count; tags exist.
            let granule = t.get("spatial_granule").and_then(Value::as_str).unwrap();
            assert!(granule == "shelf0" || granule == "shelf1");
            let tag = t.get("tag_id").and_then(Value::as_str).unwrap();
            assert!(all_tags.contains(tag), "unknown tag {tag}");
            assert!(t.get("count").and_then(Value::as_i64).unwrap() >= 1);
            assert_eq!(t.ts(), *epoch, "outputs restamped at the epoch");
        }
    }
}
