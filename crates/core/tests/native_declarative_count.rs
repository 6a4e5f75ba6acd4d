//! Native Smooth ≡ declarative Smooth, for the paper's Query 2.
//!
//! `SmoothStage::count_by_key(keys)` and a `DeclarativeStage` over
//! `SELECT keys…, count(*) AS count FROM s [Range By w] GROUP BY keys…`
//! run on the same keyed pane fold. Over any non-empty key set they must
//! emit the same rows in the same order, timestamps and values bit for bit
//! (NULL, NaN and `-0.0` keys included), whether each is fed rows or
//! chunks cut anywhere. Values are compared, not schemas: CQL types its
//! key columns `ANY`, Smooth keeps the input's types. An empty key set is
//! left out on purpose: SQL's global aggregate emits `count = 0` over an
//! empty window, where Smooth emits nothing.
//!
//! `PROPTEST_CASES` sets the number of generated cases (default 128).

use std::sync::Arc;

use esp_core::{DeclarativeStage, SmoothStage, Stage};
use esp_query::Engine;
use esp_stream::Payload;
use esp_types::{chunk_batch, registry, DataType, Schema, TimeDelta, Ts, Tuple, Value};
use proptest::prelude::*;

const PERIOD_MS: u64 = 1_000;

/// Packed key columns (`tag`, `id`) beside a float key with NaN and
/// `-0.0` (`fkey`) and an untyped one (`mixed`).
fn schema() -> Arc<Schema> {
    registry::intern(
        &Schema::builder()
            .field("tag", DataType::Str)
            .field("id", DataType::Int)
            .field("fkey", DataType::Float)
            .field("mixed", DataType::Any)
            .build()
            .unwrap(),
    )
}

type RawRow = (Option<u8>, Option<i64>, Option<u8>, u8);

fn arb_row() -> impl Strategy<Value = RawRow> {
    (
        prop_oneof![1 => Just(None), 5 => (0u8..4).prop_map(Some)],
        prop_oneof![1 => Just(None), 5 => (0i64..3).prop_map(Some)],
        prop_oneof![1 => Just(None), 5 => (0u8..6).prop_map(Some)],
        0u8..7,
    )
}

fn build_row((tag, id, fkey, mixed): RawRow) -> Tuple {
    let floats = [
        0.0,
        -0.0,
        f64::NAN,
        -f64::NAN,
        2.5,
        f64::from_bits(0x7ff8_0000_0000_0001),
    ];
    Tuple::new_unchecked(
        schema(),
        Ts::ZERO, // both stages fold an arrival into the epoch it arrives at
        vec![
            tag.map_or(Value::Null, |n| Value::str(format!("tag-{n}"))),
            id.map_or(Value::Null, Value::Int),
            fkey.map_or(Value::Null, |n| Value::Float(floats[n as usize])),
            match mixed {
                0 => Value::Null,
                1 => Value::Int(1),
                2 => Value::Float(1.0),
                3 => Value::str("1"),
                4 => Value::Bool(true),
                5 => Value::Float(-0.0),
                _ => Value::Float(0.0),
            },
        ],
    )
}

fn arb_keys() -> impl Strategy<Value = Vec<&'static str>> {
    prop_oneof![
        Just(vec!["tag"]),
        Just(vec!["tag", "id"]),
        Just(vec!["id"]),
        Just(vec!["fkey"]),
        Just(vec!["mixed"]),
        Just(vec!["fkey", "tag"]),
        Just(vec!["tag", "mixed", "fkey", "id"]),
    ]
}

/// `NOW`, and one to six epochs.
fn arb_width() -> impl Strategy<Value = u64> {
    prop_oneof![Just(0u64), 1u64..7]
}

/// One epoch: how far the clock moves (0 repeats the epoch) and what
/// arrives.
type Step = (u64, Vec<RawRow>);

fn arb_steps() -> impl Strategy<Value = Vec<Step>> {
    proptest::collection::vec(
        (
            prop_oneof![2 => Just(0u64), 10 => Just(1u64), 2 => Just(2u64), 1 => Just(9u64)],
            prop_oneof![
                1 => Just(Vec::new()),
                5 => proptest::collection::vec(arb_row(), 0..10),
            ],
        ),
        1..30,
    )
}

fn native(keys: &[&str], width: u64) -> Box<dyn Stage> {
    let width = TimeDelta::from_millis(width * PERIOD_MS);
    Box::new(SmoothStage::count_by_key(
        "smooth",
        width,
        keys.iter().copied(),
    ))
}

fn declarative(keys: &[&str], width: u64) -> Box<dyn Stage> {
    let keys = keys.join(", ");
    let range = match width {
        0 => "NOW".to_string(),
        n => format!("{n} sec"),
    };
    let sql =
        format!("SELECT {keys}, count(*) AS count FROM s [Range By '{range}'] GROUP BY {keys}");
    let query = Engine::new().compile(&sql).unwrap();
    assert!(query.is_pane_incremental(), "{sql}");
    Box::new(DeclarativeStage::new("smooth", query).unwrap())
}

/// `rows` as rows, or as chunks cut after every `cut`-th row so chunk
/// boundaries fall inside runs of equal keys.
fn payload(rows: &[Tuple], cut: Option<usize>) -> Payload {
    match cut {
        None => Payload::from(rows.to_vec()),
        Some(cut) => Payload::from(rows.chunks(cut).flat_map(chunk_batch).collect::<Vec<_>>()),
    }
}

/// Each output row's timestamp and values, floats by bit pattern:
/// `Value`'s `PartialEq` would let NaN payloads and the sign of zero slip.
fn render(out: Payload) -> Vec<String> {
    out.into_rows()
        .iter()
        .map(|t| {
            let vals: Vec<String> = t
                .values()
                .iter()
                .map(|v| match v {
                    Value::Float(f) => format!("f{:016x}", f.to_bits()),
                    other => format!("{other:?}"),
                })
                .collect();
            format!("{} [{}]", t.ts().as_millis(), vals.join(", "))
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: std::env::var("PROPTEST_CASES")
            .ok()
            .and_then(|n| n.parse().ok())
            .unwrap_or(128),
    })]

    #[test]
    fn native_count_by_key_equals_declarative_count(
        keys in arb_keys(),
        width in arb_width(),
        steps in arb_steps(),
        cut in 1usize..6,
    ) {
        // Native and declarative, each fed rows and fed cut chunks.
        let mut stages = [
            (native(&keys, width), None),
            (native(&keys, width), Some(cut)),
            (declarative(&keys, width), None),
            (declarative(&keys, width), Some(cut)),
        ];
        let mut epoch = 0;
        for (k, (step, raw)) in steps.iter().enumerate() {
            epoch += step * PERIOD_MS;
            let at = Ts::from_millis(epoch);
            let rows: Vec<Tuple> = raw.iter().copied().map(build_row).collect();
            let [want, rest @ ..] = stages
                .each_mut()
                .map(|(stage, cut)| render(stage.process(at, payload(&rows, *cut)).unwrap()));
            for (i, got) in rest.iter().enumerate() {
                prop_assert_eq!(got, &want, "step {}, stage {} ({:?}, width {})", k, i + 1, keys, width);
            }
        }
    }
}
