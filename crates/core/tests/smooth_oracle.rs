//! Pane-incremental Smooth against a rescan oracle.
//!
//! The oracle below is the evaluation Smooth used before panes, kept here
//! as the reference: every arrival restamped at its epoch and held in a
//! timestamp-ordered `Vec`, evicted by `WindowBuffer`'s rule, and the whole
//! vector rescanned each epoch. The stage must emit the same rows in the
//! same order — key values and counts bit for bit, means to rounding —
//! however it is fed (rows, chunks, chunks cut anywhere) and however often
//! it is checkpointed and restored.
//!
//! `PROPTEST_CASES` sets the number of generated cases (default 192).

use std::collections::HashMap;
use std::sync::Arc;

use esp_core::{PointStage, SmoothStage, Stage};
use esp_stream::stats::RunningStats;
use esp_stream::Payload;
use esp_types::{
    chunk_batch, registry, Batch, DataType, Schema, TimeDelta, Ts, Tuple, Value, ValueKey,
};
use proptest::prelude::*;

const PERIOD_MS: u64 = 1_000;

/// Packed columns (`tag`, `id`, `v`, `state`) beside the ones only the
/// row form can read (`fkey`: float keys with NaN and -0.0; `any`: an
/// untyped value column).
fn schema() -> Arc<Schema> {
    registry::intern(
        &Schema::builder()
            .field("tag", DataType::Str)
            .field("id", DataType::Int)
            .field("fkey", DataType::Float)
            .field("v", DataType::Float)
            .field("any", DataType::Any)
            .field("state", DataType::Str)
            .build()
            .unwrap(),
    )
}

type RawRow = (
    (Option<u8>, Option<i64>, Option<u8>),
    (Option<u8>, u8, Option<bool>),
);

fn arb_row() -> impl Strategy<Value = RawRow> {
    (
        (
            prop_oneof![1 => Just(None), 5 => (0u8..4).prop_map(Some)],
            prop_oneof![1 => Just(None), 5 => (0i64..3).prop_map(Some)],
            prop_oneof![1 => Just(None), 5 => (0u8..5).prop_map(Some)],
        ),
        (
            prop_oneof![1 => Just(None), 6 => (0u8..200).prop_map(Some)],
            0u8..6,
            prop_oneof![1 => Just(None), 4 => any::<bool>().prop_map(Some)],
        ),
    )
}

fn build_row(raw: RawRow) -> Tuple {
    let ((tag, id, fkey), (v, any, state)) = raw;
    // Temperatures of one sign, so "1e-12 relative" is about rounding and
    // not about cancellation near zero.
    let sample = |n: u8| 10.0 + f64::from(n) * 0.173;
    Tuple::new_unchecked(
        schema(),
        Ts::ZERO, // stages restamp at the epoch
        vec![
            tag.map_or(Value::Null, |n| Value::str(format!("tag-{n}"))),
            id.map_or(Value::Null, Value::Int),
            fkey.map_or(Value::Null, |n| {
                Value::Float([0.0, -0.0, f64::NAN, -f64::NAN, 2.5][n as usize])
            }),
            v.map_or(Value::Null, |n| {
                Value::Float(if n == 199 { f64::NAN } else { sample(n) })
            }),
            match any {
                0 => Value::Null,
                1 => Value::Int(17),
                2 => Value::Float(21.25),
                3 => Value::str("ON"),
                4 => Value::Bool(true),
                _ => Value::Float(99.5),
            },
            state.map_or(Value::Null, |on| Value::str(if on { "ON" } else { "OFF" })),
        ],
    )
}

/// One epoch of a run: how far the clock moves (in periods; 0 repeats the
/// epoch, a negative step revisits an earlier one) and what arrives.
type Step = (i64, Vec<RawRow>);

fn arb_steps() -> impl Strategy<Value = Vec<Step>> {
    proptest::collection::vec(
        (
            prop_oneof![
                2 => Just(0i64),
                10 => Just(1i64),
                2 => Just(2i64),
                1 => Just(7i64),
                1 => Just(40i64),
                1 => Just(-1i64),
                1 => Just(-3i64),
            ],
            prop_oneof![
                1 => Just(Vec::new()),
                4 => proptest::collection::vec(arb_row(), 0..9),
            ],
        ),
        1..40,
    )
}

/// Window widths: `NOW`, below one period, and 1–300 epochs.
fn arb_width() -> impl Strategy<Value = TimeDelta> {
    prop_oneof![
        Just(0u64),
        Just(PERIOD_MS / 2),
        (1u64..6).prop_map(|n| n * PERIOD_MS),
        Just(30 * PERIOD_MS),
        Just(300 * PERIOD_MS),
        Just(5 * PERIOD_MS / 2),
    ]
    .prop_map(TimeDelta::from_millis)
}

fn epochs(steps: &[Step]) -> Vec<(Ts, Batch)> {
    let mut now: i64 = 50; // room to step backwards
    steps
        .iter()
        .map(|(delta, rows)| {
            now = (now + delta).max(0);
            (
                Ts::from_millis(now as u64 * PERIOD_MS),
                rows.iter().copied().map(build_row).collect(),
            )
        })
        .collect()
}

#[derive(Clone, Copy, Debug)]
enum Mode {
    Count,
    Mean,
    Presence { min_events: usize },
    Ewma,
}

#[derive(Clone, Debug)]
struct Config {
    mode: Mode,
    width: TimeDelta,
    keys: Vec<&'static str>,
    value: &'static str,
}

impl Config {
    fn stage(&self) -> SmoothStage {
        let keys = self.keys.iter().copied();
        match self.mode {
            Mode::Count => SmoothStage::count_by_key("smooth", self.width, keys),
            Mode::Mean => SmoothStage::windowed_mean("smooth", self.width, keys, self.value),
            Mode::Presence { min_events } => SmoothStage::event_presence(
                "smooth", self.width, keys, self.value, "ON", min_events,
            ),
            Mode::Ewma => SmoothStage::ewma("smooth", self.width, keys, self.value, 0.4).unwrap(),
        }
    }
}

fn arb_keys() -> impl Strategy<Value = Vec<&'static str>> {
    prop_oneof![
        4 => Just(vec!["tag", "id"]),
        2 => Just(vec!["id"]),
        1 => Just(vec![]),
        2 => Just(vec!["fkey"]),
        1 => Just(vec!["tag", "fkey", "id"]),
    ]
}

fn arb_windowed_config() -> impl Strategy<Value = Config> {
    (
        prop_oneof![
            Just((Mode::Count, "v")),
            Just((Mode::Mean, "v")),
            Just((Mode::Mean, "any")),
            Just((Mode::Mean, "absent")),
            (0usize..4).prop_map(|min_events| (Mode::Presence { min_events }, "state")),
            (0usize..3).prop_map(|min_events| (Mode::Presence { min_events }, "any")),
        ],
        arb_width(),
        arb_keys(),
    )
        .prop_map(|((mode, value), width, keys)| Config {
            mode,
            width,
            keys,
            value,
        })
}

fn arb_any_config() -> impl Strategy<Value = Config> {
    prop_oneof![
        4 => arb_windowed_config(),
        1 => (arb_width(), arb_keys(), prop_oneof![Just("v"), Just("any")]).prop_map(
            |(width, keys, value)| Config { mode: Mode::Ewma, width, keys, value }
        ),
    ]
}

/// The rescan reference: the window as restamped tuples in timestamp
/// order, re-aggregated from nothing each epoch.
struct Oracle {
    config: Config,
    window: Vec<(Ts, Tuple)>,
}

impl Oracle {
    fn key_values(&self, t: &Tuple) -> Vec<Value> {
        self.config
            .keys
            .iter()
            .map(|k| t.get(k).unwrap().clone())
            .collect()
    }

    /// `(key values…, aggregate)` per output row.
    fn step(&mut self, epoch: Ts, input: &[Tuple]) -> Vec<Vec<Value>> {
        for t in input {
            let pos = self.window.partition_point(|(ts, _)| *ts <= epoch);
            self.window.insert(pos, (epoch, t.clone()));
        }
        let cutoff = epoch.window_start(self.config.width);
        let stale = self.window.partition_point(|(ts, _)| *ts < cutoff);
        self.window.drain(..stale);

        let value = self.config.value;
        match self.config.mode {
            Mode::Count => {
                let mut counts: HashMap<Vec<ValueKey>, (Vec<Value>, i64)> = HashMap::new();
                let mut order = Vec::new();
                for (_, t) in &self.window {
                    let vals = self.key_values(t);
                    let key: Vec<ValueKey> = vals.iter().map(Value::group_key).collect();
                    match counts.get_mut(&key) {
                        Some((_, n)) => *n += 1,
                        None => {
                            counts.insert(key.clone(), (vals, 1));
                            order.push(key);
                        }
                    }
                }
                order
                    .iter()
                    .map(|k| {
                        let (mut vals, n) = counts.remove(k).unwrap();
                        vals.push(Value::Int(n));
                        vals
                    })
                    .collect()
            }
            Mode::Mean => {
                let mut stats: HashMap<Vec<ValueKey>, (Vec<Value>, RunningStats)> = HashMap::new();
                let mut order = Vec::new();
                for (_, t) in &self.window {
                    let Some(x) = t.get(value).and_then(Value::as_f64) else {
                        continue;
                    };
                    let vals = self.key_values(t);
                    let key: Vec<ValueKey> = vals.iter().map(Value::group_key).collect();
                    match stats.get_mut(&key) {
                        Some((_, s)) => s.push(x),
                        None => {
                            stats.insert(key.clone(), (vals, RunningStats::from_iter([x])));
                            order.push(key);
                        }
                    }
                }
                order
                    .iter()
                    .map(|k| {
                        let (mut vals, s) = stats.remove(k).unwrap();
                        vals.push(Value::Float(s.mean().unwrap()));
                        vals
                    })
                    .collect()
            }
            Mode::Presence { min_events } => {
                let on = Value::str("ON");
                let matching: Vec<&Tuple> = self
                    .window
                    .iter()
                    .map(|(_, t)| t)
                    .filter(|t| t.get(value).is_some_and(|v| v.sql_eq(&on)))
                    .collect();
                match matching.last() {
                    Some(last) if matching.len() >= min_events => {
                        let mut vals = self.key_values(last);
                        vals.push(on);
                        vec![vals]
                    }
                    _ => Vec::new(),
                }
            }
            Mode::Ewma => unreachable!("EWMA keeps no window"),
        }
    }
}

/// Bit-level rendering: `Value`'s `PartialEq` collapses NaN payloads and
/// the sign of zero, which is exactly what must not be lost here.
fn bits(v: &Value) -> String {
    match v {
        Value::Float(f) => format!("f{:016x}", f.to_bits()),
        other => format!("{other:?}"),
    }
}

fn render(rows: &[Tuple]) -> Vec<String> {
    rows.iter()
        .map(|t| {
            let vals: Vec<String> = t.values().iter().map(bits).collect();
            format!("{:?} {} {}", t.ts(), t.schema(), vals.join(" | "))
        })
        .collect()
}

fn run_rows(stage: &mut SmoothStage, epoch: Ts, rows: &[Tuple]) -> Batch {
    stage
        .process(epoch, Payload::from(rows.to_vec()))
        .unwrap()
        .into_rows()
}

/// `rows` as chunks, additionally cut after every `cut`-th row so chunk
/// boundaries fall inside runs of equal keys.
fn as_chunks(rows: &[Tuple], cut: usize) -> Payload {
    Payload::from(
        rows.chunks(cut.max(1))
            .flat_map(chunk_batch)
            .collect::<Vec<_>>(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: std::env::var("PROPTEST_CASES")
            .ok()
            .and_then(|n| n.parse().ok())
            .unwrap_or(192),
    })]

    /// Identical row order, key values, counts and event-presence output;
    /// means within 1e-12 relative (NaN where the oracle has NaN).
    #[test]
    fn panes_match_the_rescan_oracle(config in arb_windowed_config(), steps in arb_steps()) {
        let mut stage = config.stage();
        let mut oracle = Oracle { config: config.clone(), window: Vec::new() };
        let exact = !matches!(config.mode, Mode::Mean);
        for (epoch, rows) in epochs(&steps) {
            let got = run_rows(&mut stage, epoch, &rows);
            let want = oracle.step(epoch, &rows);
            prop_assert_eq!(got.len(), want.len(), "row count at {:?} ({:?})", epoch, config);
            for (g, w) in got.iter().zip(&want) {
                prop_assert_eq!(g.ts(), epoch);
                let (g, w) = (g.values(), w.as_slice());
                let keys = g.len() - 1;
                prop_assert_eq!(
                    g[..keys].iter().map(bits).collect::<Vec<_>>(),
                    w[..keys].iter().map(bits).collect::<Vec<_>>()
                );
                if exact {
                    prop_assert_eq!(bits(&g[keys]), bits(&w[keys]));
                } else {
                    let (a, b) = (g[keys].as_f64().unwrap(), w[keys].as_f64().unwrap());
                    prop_assert!(
                        (a.is_nan() && b.is_nan()) || (a - b).abs() <= 1e-12 * b.abs(),
                        "mean {} vs oracle {} at {:?}", a, b, epoch
                    );
                }
            }
        }
    }

    /// Chunk-fed ≡ row-fed, bit for bit — output and checkpoint alike —
    /// wherever the chunks are cut, for every mode.
    #[test]
    fn chunk_fed_equals_row_fed(
        config in arb_any_config(),
        steps in arb_steps(),
        cut in 1usize..6,
    ) {
        let (mut by_rows, mut by_chunks) = (config.stage(), config.stage());
        for (epoch, rows) in epochs(&steps) {
            let a = run_rows(&mut by_rows, epoch, &rows);
            let b = by_chunks.process(epoch, as_chunks(&rows, cut)).unwrap().into_rows();
            prop_assert_eq!(render(&a), render(&b), "at {:?} ({:?})", epoch, config);
            prop_assert_eq!(by_rows.state().unwrap(), by_chunks.state().unwrap());
        }
    }

    /// Checkpoint → restore into a fresh stage before *every* epoch
    /// continues bit-identically, for all four modes.
    #[test]
    fn restore_at_every_epoch_continues_bit_identically(
        config in arb_any_config(),
        steps in arb_steps(),
        columnar in any::<bool>(),
    ) {
        let (mut steady, mut restored) = (config.stage(), config.stage());
        for (epoch, rows) in epochs(&steps) {
            let blob = restored.state().unwrap().unwrap();
            restored = config.stage();
            restored.restore(&blob).unwrap();
            prop_assert_eq!(restored.state().unwrap().unwrap(), blob);

            let feed = |rows: &[Tuple]| {
                if columnar { as_chunks(rows, 3) } else { Payload::from(rows.to_vec()) }
            };
            let a = steady.process(epoch, feed(&rows)).unwrap().into_rows();
            let b = restored.process(epoch, feed(&rows)).unwrap().into_rows();
            prop_assert_eq!(render(&a), render(&b), "at {:?} ({:?})", epoch, config);
        }
    }

    /// A filter-only Point keeps chunk input columnar and keeps exactly
    /// the rows the row path keeps — NULLs, NaN, non-numeric slots of an
    /// untyped column, and fields the schema lacks included.
    #[test]
    fn columnar_point_equals_row_point(
        rows in proptest::collection::vec(arb_row(), 0..40),
        range_on in prop_oneof![Just("v"), Just("any"), Just("id"), Just("tag"), Just("absent")],
        expect_on in prop_oneof![Just("tag"), Just("state"), Just("any"), Just("v"), Just("absent")],
        shape in 0u8..4,
        cut in 1usize..6,
    ) {
        let build = || {
            let p = PointStage::new("point");
            match shape {
                0 => p,
                1 => p.range_filter(range_on, Some(11.0), Some(30.0)),
                2 => p.expected_values(expect_on, ["tag-1", "tag-2", "ON"]),
                _ => p
                    .range_filter(range_on, None, Some(25.0))
                    .expected_values(expect_on, ["tag-0", "tag-3", "ON", "OFF"]),
            }
        };
        let rows: Vec<Tuple> = rows.into_iter().map(build_row).collect();
        let (mut by_rows, mut by_chunks) = (build(), build());
        let a = by_rows.process(Ts::ZERO, Payload::from(rows.clone())).unwrap();
        let b = by_chunks.process(Ts::ZERO, as_chunks(&rows, cut)).unwrap();
        prop_assert_eq!(render(&a.into_rows()), render(&b.into_rows()));
        prop_assert_eq!(by_rows.dropped(), by_chunks.dropped());
    }
}

/// A `Map` op is per-tuple code: the stage falls back to rows on chunk
/// input, with the same result as on row input.
#[test]
fn point_with_a_map_op_materializes_rows() {
    let build = || {
        PointStage::new("point")
            .range_filter("v", Some(10.5), None)
            .map(|t| Ok((t.value(1) != &Value::Int(1)).then(|| t.clone())))
    };
    let rows: Vec<Tuple> = (0..12u8)
        .map(|n| {
            build_row((
                (Some(n % 4), Some(i64::from(n % 3)), None),
                (Some(n), 0, None),
            ))
        })
        .collect();
    let (mut by_rows, mut by_chunks) = (build(), build());
    let a = by_rows
        .process(Ts::ZERO, Payload::from(rows.clone()))
        .unwrap();
    let b = by_chunks.process(Ts::ZERO, as_chunks(&rows, 5)).unwrap();
    assert_eq!(render(&a.into_rows()), render(&b.into_rows()));
    assert_eq!(by_rows.dropped(), by_chunks.dropped());
    assert!(by_rows.dropped() > 0);
}

/// A blob in the pre-pane layout (it began with the window width, so with
/// a zero byte) is refused outright, whatever follows.
#[test]
fn pre_pane_state_blob_is_refused() {
    let mut stage = SmoothStage::count_by_key("smooth", TimeDelta::from_secs(5), ["tag"]);
    let mut v1 = Vec::new();
    v1.extend_from_slice(&5_000u64.to_be_bytes()); // width
    v1.extend_from_slice(&[0; 16]); // hwm, now
    v1.extend_from_slice(&[0; 8]); // empty batch (schema table + rows)
    v1.extend_from_slice(&[0, 0]); // no out schema, no EWMA section
    let err = stage.restore(&esp_stream::StageState(v1)).unwrap_err();
    assert!(
        matches!(&err, esp_types::EspError::Snapshot(m) if m.contains("predates pane state")),
        "{err:?}"
    );
}
