//! Stage 3 — **Merge**: aggregation within the spatial granule.
//!
//! Merge aggregates over the receptor streams of one proximity group,
//! filling in missed readings and eliminating non-correlated errors in
//! individual devices (paper §3.2). Built-in modes:
//!
//! * [`MergeStage::outlier_filtered_mean`] — the paper's Query 5: average
//!   the group's readings within a window, discarding readings more than
//!   `k` standard deviations from the group mean (fail-dirty motes).
//! * [`MergeStage::union_all`] — union the group members' streams (the
//!   digital-home RFID merge, §6.1), optionally deduplicating per key.
//! * [`MergeStage::vote_threshold`] — report an event when at least
//!   `m` of the group's devices report it in the window (X10, §6.1).

use std::collections::HashSet;
use std::sync::Arc;

use esp_stream::stats::RunningStats;
use esp_stream::{Payload, StageState, WindowBuffer};
use esp_types::{
    snap, Batch, Chunk, ColumnVec, DataType, Field, Result, Schema, SpatialGranule, Ts, Tuple,
    Value, ValueKey,
};

use crate::granule::TemporalGranule;
use crate::stage::Stage;

enum MergeMode {
    OutlierFilteredMean {
        value_field: String,
        k: f64,
    },
    UnionAll {
        dedup_key: Option<String>,
    },
    VoteThreshold {
        value_field: String,
        on_value: Value,
        device_field: String,
        min_devices: usize,
    },
    WindowedMedian {
        value_field: String,
    },
}

/// The built-in Merge stage for one proximity group.
pub struct MergeStage {
    name: String,
    granule: SpatialGranule,
    window: WindowBuffer,
    mode: MergeMode,
    out_schema: Option<Arc<Schema>>,
    /// Readings rejected by the outlier test so far.
    outliers_dropped: u64,
}

impl MergeStage {
    /// The paper's Query 5: windowed group mean with mean±k·stdev outlier
    /// rejection. Emits one `(spatial_granule, value)` tuple per epoch
    /// while the window holds data.
    pub fn outlier_filtered_mean(
        name: impl Into<String>,
        granule: SpatialGranule,
        temporal: impl Into<TemporalGranule>,
        value_field: impl Into<String>,
        k: f64,
    ) -> MergeStage {
        MergeStage {
            name: name.into(),
            granule,
            window: WindowBuffer::new(temporal.into().window()),
            mode: MergeMode::OutlierFilteredMean {
                value_field: value_field.into(),
                k,
            },
            out_schema: None,
            outliers_dropped: 0,
        }
    }

    /// Union the group's streams; with `dedup_key = Some(field)` at most
    /// one tuple per distinct key value is emitted per epoch.
    pub fn union_all(
        name: impl Into<String>,
        granule: SpatialGranule,
        dedup_key: Option<String>,
    ) -> MergeStage {
        MergeStage {
            name: name.into(),
            granule,
            window: WindowBuffer::new(esp_types::TimeDelta::ZERO),
            mode: MergeMode::UnionAll { dedup_key },
            out_schema: None,
            outliers_dropped: 0,
        }
    }

    /// m-of-n device voting: emit one `(spatial_granule, value)` tuple when
    /// at least `min_devices` distinct devices (by `device_field`) reported
    /// `on_value` in `value_field` within the window.
    pub fn vote_threshold(
        name: impl Into<String>,
        granule: SpatialGranule,
        temporal: impl Into<TemporalGranule>,
        value_field: impl Into<String>,
        on_value: impl Into<Value>,
        device_field: impl Into<String>,
        min_devices: usize,
    ) -> MergeStage {
        MergeStage {
            name: name.into(),
            granule,
            window: WindowBuffer::new(temporal.into().window()),
            mode: MergeMode::VoteThreshold {
                value_field: value_field.into(),
                on_value: on_value.into(),
                device_field: device_field.into(),
                min_devices,
            },
            out_schema: None,
            outliers_dropped: 0,
        }
    }

    /// Windowed median over the group's readings — a robust alternative to
    /// the mean±k·σ filter from the anticipated "suite of ESP Operators"
    /// (paper §7): a single fail-dirty device can never move the median of
    /// three or more devices, with no threshold to tune.
    pub fn windowed_median(
        name: impl Into<String>,
        granule: SpatialGranule,
        temporal: impl Into<TemporalGranule>,
        value_field: impl Into<String>,
    ) -> MergeStage {
        MergeStage {
            name: name.into(),
            granule,
            window: WindowBuffer::new(temporal.into().window()),
            mode: MergeMode::WindowedMedian {
                value_field: value_field.into(),
            },
            out_schema: None,
            outliers_dropped: 0,
        }
    }

    /// Readings rejected by the outlier test so far.
    pub fn outliers_dropped(&self) -> u64 {
        self.outliers_dropped
    }

    fn granule_value(&self) -> Value {
        Value::Str(Arc::clone(&self.granule.0))
    }

    fn scalar_schema(&mut self, value_field: &str) -> Result<Arc<Schema>> {
        if let Some(s) = &self.out_schema {
            return Ok(Arc::clone(s));
        }
        let s = Schema::new(vec![
            Field::new(esp_types::well_known::SPATIAL_GRANULE, DataType::Str),
            Field::new(value_field, DataType::Float),
        ])?;
        self.out_schema = Some(Arc::clone(&s));
        Ok(s)
    }

    fn event_schema(&mut self, value_field: &str) -> Result<Arc<Schema>> {
        if let Some(s) = &self.out_schema {
            return Ok(Arc::clone(s));
        }
        let s = Schema::new(vec![
            Field::new(esp_types::well_known::SPATIAL_GRANULE, DataType::Str),
            Field::new(value_field, DataType::Any),
        ])?;
        self.out_schema = Some(Arc::clone(&s));
        Ok(s)
    }

    /// One epoch of a windowed mode.
    fn merge(&mut self, epoch: Ts, input: Payload) -> Result<Batch> {
        // Every arrival enters the window stamped at the epoch, so
        // eviction tracks arrival time.
        for mut chunk in input.into_chunks() {
            if chunk.ts().iter().any(|t| *t != epoch) {
                chunk.restamp(epoch);
            }
            self.window.push_chunk_owned(chunk);
        }
        self.window.advance_to(epoch);
        match &self.mode {
            // Handled by `union_all`, which keeps no window.
            MergeMode::UnionAll { .. } => Ok(Batch::new()),
            MergeMode::OutlierFilteredMean { value_field, k } => {
                let (value_field, k) = (value_field.clone(), *k);
                // First pass: group statistics over the window.
                let mut all = RunningStats::new();
                for x in window_f64s(&self.window, &value_field) {
                    all.push(x);
                }
                let Some(mean) = all.mean() else {
                    return Ok(Batch::new());
                };
                // k = ∞ disables rejection entirely (plain windowed mean),
                // including when stdev is 0 (0·∞ would be NaN).
                let band = if k.is_infinite() {
                    f64::INFINITY
                } else {
                    all.stdev().unwrap_or(0.0) * k
                };
                // Second pass: mean over inliers only (the paper's Query 5).
                let mut inliers = RunningStats::new();
                let mut dropped = 0;
                for x in window_f64s(&self.window, &value_field) {
                    if (x - mean).abs() <= band {
                        inliers.push(x);
                    } else {
                        dropped += 1;
                    }
                }
                self.outliers_dropped += dropped;
                let Some(value) = inliers.mean() else {
                    // Every reading was an outlier: report nothing rather
                    // than a value known to be wrong.
                    return Ok(Batch::new());
                };
                let schema = self.scalar_schema(&value_field)?;
                Ok(vec![Tuple::new_unchecked(
                    schema,
                    epoch,
                    vec![self.granule_value(), Value::Float(value)],
                )])
            }
            MergeMode::WindowedMedian { value_field } => {
                let value_field = value_field.clone();
                let mut xs: Vec<f64> = window_f64s(&self.window, &value_field).collect();
                if xs.is_empty() {
                    return Ok(Batch::new());
                }
                xs.sort_by(f64::total_cmp);
                let median = if xs.len() % 2 == 1 {
                    xs[xs.len() / 2]
                } else {
                    (xs[xs.len() / 2 - 1] + xs[xs.len() / 2]) / 2.0
                };
                let schema = self.scalar_schema(&value_field)?;
                Ok(vec![Tuple::new_unchecked(
                    schema,
                    epoch,
                    vec![self.granule_value(), Value::Float(median)],
                )])
            }
            MergeMode::VoteThreshold {
                value_field,
                on_value,
                device_field,
                min_devices,
            } => {
                let mut devices: HashSet<ValueKey> = HashSet::new();
                for seg in self.window.segments() {
                    // A segment without either field casts no votes.
                    let (Some(values), Some(ids)) =
                        (column(seg, value_field), column(seg, device_field))
                    else {
                        continue;
                    };
                    for i in 0..seg.len() {
                        if values.get(i).is_some_and(|v| v.sql_eq(on_value)) {
                            if let Some(d) = ids.get(i) {
                                devices.insert(d.group_key());
                            }
                        }
                    }
                }
                if devices.len() < *min_devices {
                    return Ok(Batch::new());
                }
                let (value_field, on_value) = (value_field.clone(), on_value.clone());
                let schema = self.event_schema(&value_field)?;
                Ok(vec![Tuple::new_unchecked(
                    schema,
                    epoch,
                    vec![self.granule_value(), on_value],
                )])
            }
        }
    }
}

/// `UnionAll`'s epoch: the input untouched, or with a dedup `key` only
/// the first row of each key value (by [`Value::group_key`]), kept by a
/// mask over the key column. Rows whose layout lacks the field are all
/// kept.
fn union_all(input: Payload, key: Option<&str>) -> Result<Payload> {
    let Some(key) = key else {
        return Ok(input);
    };
    let mut seen: HashSet<ValueKey> = HashSet::new();
    let mut out = Vec::with_capacity(input.chunks().len());
    for chunk in input.into_chunks() {
        let keep: Vec<bool> = match column(&chunk, key) {
            Some(col) => (0..chunk.len())
                .map(|i| seen.insert(col.get(i).unwrap_or(Value::Null).group_key()))
                .collect(),
            None => vec![true; chunk.len()],
        };
        out.push(chunk.filter(&keep)?);
    }
    Ok(Payload::from(out))
}

/// The column of `field` in one chunk (a window segment or an arrival);
/// `None` when the chunk's schema lacks the field.
fn column<'a>(seg: &'a Chunk, field: &str) -> Option<&'a ColumnVec> {
    seg.schema().index_of(field).and_then(|c| seg.col(c))
}

/// Every numeric reading of `field` in the window, oldest first. Rows
/// whose schema lacks the field, and non-numeric values, contribute
/// nothing.
fn window_f64s<'a>(window: &'a WindowBuffer, field: &'a str) -> impl Iterator<Item = f64> + 'a {
    window.segments().flat_map(move |seg| {
        let col = column(seg, field);
        (0..col.map_or(0, ColumnVec::len)).filter_map(move |i| col?.get(i)?.as_f64())
    })
}

impl Stage for MergeStage {
    fn name(&self) -> &str {
        &self.name
    }

    fn process(&mut self, epoch: Ts, input: Payload) -> Result<Payload> {
        match &self.mode {
            MergeMode::UnionAll { dedup_key } => union_all(input, dedup_key.as_deref()),
            _ => self.merge(epoch, input).map(Payload::from),
        }
    }

    fn state(&self) -> Result<Option<StageState>> {
        let mut out = Vec::new();
        self.window.encode_into(&mut out);
        snap::put_u64(&mut out, self.outliers_dropped);
        Ok(Some(StageState(out)))
    }

    fn restore(&mut self, s: &StageState) -> Result<()> {
        let mut cur = snap::Cursor::new(s.bytes());
        self.window.restore_from(&mut cur)?;
        self.outliers_dropped = cur.u64()?;
        // `out_schema` is a pure function of the configuration; it is
        // rebuilt lazily on the next emission.
        cur.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stage::ProcessRows;
    use esp_types::{well_known, TimeDelta, TupleBuilder};

    fn temp(ts: Ts, id: i64, celsius: f64) -> Tuple {
        TupleBuilder::new(&well_known::temp_schema(), ts)
            .set("receptor_id", id)
            .unwrap()
            .set("temp", celsius)
            .unwrap()
            .build()
            .unwrap()
    }

    fn motion(ts: Ts, id: i64, v: &str) -> Tuple {
        TupleBuilder::new(&well_known::motion_schema(), ts)
            .set("receptor_id", id)
            .unwrap()
            .set("value", v)
            .unwrap()
            .build()
            .unwrap()
    }

    fn room() -> SpatialGranule {
        SpatialGranule::new("room-42")
    }

    #[test]
    fn outlier_mote_excluded_from_mean() {
        // Three motes; one fails dirty at 104 °C. Query 5 semantics.
        let mut m = MergeStage::outlier_filtered_mean(
            "merge",
            room(),
            TimeDelta::from_mins(5),
            "temp",
            1.0,
        );
        let out = m
            .process_rows(
                Ts::ZERO,
                vec![
                    temp(Ts::ZERO, 1, 20.0),
                    temp(Ts::ZERO, 2, 21.0),
                    temp(Ts::ZERO, 3, 104.0),
                ],
            )
            .unwrap();
        assert_eq!(out.len(), 1);
        let v = out[0].get("temp").unwrap().as_f64().unwrap();
        assert!((v - 20.5).abs() < 1e-9, "outlier excluded, got {v}");
        assert_eq!(m.outliers_dropped(), 1);
        assert_eq!(out[0].get("spatial_granule"), Some(&Value::str("room-42")));
    }

    #[test]
    fn agreeing_motes_all_contribute() {
        let mut m = MergeStage::outlier_filtered_mean(
            "merge",
            room(),
            TimeDelta::from_mins(5),
            "temp",
            1.0,
        );
        let out = m
            .process_rows(
                Ts::ZERO,
                vec![temp(Ts::ZERO, 1, 20.0), temp(Ts::ZERO, 2, 22.0)],
            )
            .unwrap();
        let v = out[0].get("temp").unwrap().as_f64().unwrap();
        assert!((v - 21.0).abs() < 1e-9);
        assert_eq!(m.outliers_dropped(), 0);
    }

    #[test]
    fn empty_window_emits_nothing() {
        let mut m = MergeStage::outlier_filtered_mean(
            "merge",
            room(),
            TimeDelta::from_mins(5),
            "temp",
            1.0,
        );
        assert!(m.process_rows(Ts::ZERO, vec![]).unwrap().is_empty());
    }

    #[test]
    fn merge_masks_lost_readings_spatially() {
        // Mote 1 reports, mote 2 silent: the granule still gets a value.
        let mut m = MergeStage::outlier_filtered_mean(
            "merge",
            room(),
            TimeDelta::from_mins(5),
            "temp",
            1.0,
        );
        let out = m
            .process_rows(Ts::ZERO, vec![temp(Ts::ZERO, 1, 19.0)])
            .unwrap();
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn union_all_passthrough_and_dedup() {
        let mut m = MergeStage::union_all("merge", room(), None);
        let input = vec![motion(Ts::ZERO, 1, "ON"), motion(Ts::ZERO, 1, "ON")];
        assert_eq!(m.process_rows(Ts::ZERO, input.clone()).unwrap().len(), 2);

        let mut m = MergeStage::union_all("merge", room(), Some("receptor_id".into()));
        assert_eq!(m.process_rows(Ts::ZERO, input).unwrap().len(), 1);

        // Deduplicating on `value` across chunks of two layouts: the first
        // occurrence of each value wins, and temperature rows, which lack
        // the field, are all kept in place.
        let input = vec![
            motion(Ts::ZERO, 1, "ON"),
            temp(Ts::ZERO, 1, 20.0),
            motion(Ts::ZERO, 2, "OFF"),
            motion(Ts::ZERO, 3, "ON"),
            temp(Ts::ZERO, 2, 21.0),
            motion(Ts::ZERO, 4, "OFF"),
        ];
        let mut m = MergeStage::union_all("merge", room(), Some("value".into()));
        let out = m.process_rows(Ts::ZERO, input.clone()).unwrap();
        assert_eq!(out, [0, 1, 2, 4].map(|i| input[i].clone()));
    }

    #[test]
    fn vote_threshold_requires_distinct_devices() {
        let mut m = MergeStage::vote_threshold(
            "merge",
            room(),
            TimeDelta::from_secs(10),
            "value",
            "ON",
            "receptor_id",
            2,
        );
        // Two reports from the SAME device: not enough.
        let out = m
            .process_rows(
                Ts::ZERO,
                vec![motion(Ts::ZERO, 1, "ON"), motion(Ts::ZERO, 1, "ON")],
            )
            .unwrap();
        assert!(out.is_empty());
        // A second device inside the window tips the vote.
        let out = m
            .process_rows(Ts::from_secs(1), vec![motion(Ts::from_secs(1), 2, "ON")])
            .unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].get("value"), Some(&Value::str("ON")));
    }

    #[test]
    fn median_shrugs_off_a_fail_dirty_device() {
        let mut m = MergeStage::windowed_median("merge", room(), TimeDelta::from_mins(5), "temp");
        let out = m
            .process_rows(
                Ts::ZERO,
                vec![
                    temp(Ts::ZERO, 1, 20.0),
                    temp(Ts::ZERO, 2, 21.0),
                    temp(Ts::ZERO, 3, 104.0),
                ],
            )
            .unwrap();
        assert_eq!(out[0].get("temp"), Some(&Value::Float(21.0)));
        assert_eq!(out[0].get("spatial_granule"), Some(&Value::str("room-42")));
    }

    #[test]
    fn median_of_even_count_averages_middle_pair() {
        let mut m = MergeStage::windowed_median("merge", room(), TimeDelta::from_mins(5), "temp");
        let out = m
            .process_rows(
                Ts::ZERO,
                vec![temp(Ts::ZERO, 1, 10.0), temp(Ts::ZERO, 2, 20.0)],
            )
            .unwrap();
        assert_eq!(out[0].get("temp"), Some(&Value::Float(15.0)));
        // Empty window → silence.
        assert!(m
            .process_rows(Ts::from_secs(600), vec![])
            .unwrap()
            .is_empty());
    }

    #[test]
    fn all_readings_outliers_yields_silence() {
        // Two readings so far apart that each is outside mean±1σ… is
        // impossible for n=2 (both are exactly 1σ away), so use k<1.
        let mut m = MergeStage::outlier_filtered_mean(
            "merge",
            room(),
            TimeDelta::from_mins(5),
            "temp",
            0.5,
        );
        let out = m
            .process_rows(
                Ts::ZERO,
                vec![temp(Ts::ZERO, 1, 0.0), temp(Ts::ZERO, 2, 100.0)],
            )
            .unwrap();
        assert!(out.is_empty());
        assert_eq!(m.outliers_dropped(), 2);
    }

    /// A group member whose layout has neither `temp` nor `value`: a
    /// humidity probe sharing the proximity group.
    fn humidity(ts: Ts, id: i64, rh: f64) -> Tuple {
        let schema = esp_types::registry::intern(
            &Schema::builder()
                .field("receptor_id", DataType::Int)
                .field("humidity", DataType::Float)
                .build()
                .unwrap(),
        );
        TupleBuilder::new(&schema, ts)
            .set("receptor_id", id)
            .unwrap()
            .set("humidity", rh)
            .unwrap()
            .build()
            .unwrap()
    }

    /// Epoch `k`'s input to one group: three motes near 20 °C (two of the
    /// readings stamped before the epoch; mote 3 fails dirty every third
    /// epoch), a humidity probe between them, and motion reports for the
    /// vote. Every mode sees member layouts that lack its value field.
    fn group_input(k: u64) -> (Ts, Vec<Tuple>) {
        let epoch = Ts::from_millis(k * 1_000);
        let early = Ts::from_millis((k * 1_000).saturating_sub(400));
        let x = k as f64 * 0.25;
        let mote3 = if k % 3 == 2 { 104.0 } else { 21.5 + x };
        let motion2 = if k.is_multiple_of(2) { "ON" } else { "OFF" };
        let rows = vec![
            temp(early, 1, 20.0 + x),
            temp(epoch, 2, 20.5 - x / 2.0),
            humidity(epoch, 9, 40.0 + x),
            temp(epoch, 3, mote3),
            motion(early, 1 + (k / 2 % 3) as i64, "ON"),
            motion(epoch, 2, motion2),
        ];
        (epoch, rows)
    }

    /// Builds a fresh stage of one mode.
    type Make = fn() -> MergeStage;

    /// The windowed modes, each over a 2 s window of 1 s epochs.
    fn windowed_modes() -> Vec<(&'static str, Make)> {
        vec![
            ("outlier", || {
                MergeStage::outlier_filtered_mean(
                    "merge",
                    room(),
                    TimeDelta::from_secs(2),
                    "temp",
                    1.0,
                )
            }),
            ("median", || {
                MergeStage::windowed_median("merge", room(), TimeDelta::from_secs(2), "temp")
            }),
            ("vote", || {
                MergeStage::vote_threshold(
                    "merge",
                    room(),
                    TimeDelta::from_secs(2),
                    "value",
                    "ON",
                    "receptor_id",
                    3,
                )
            }),
        ]
    }

    /// Feed epochs `ks` as rows (one chunk per run of equal schemas), or
    /// as one chunk per row; one rendered line per epoch, floats
    /// bit-exact.
    fn drive(m: &mut MergeStage, ks: std::ops::Range<u64>, chunked: bool) -> Vec<String> {
        ks.map(|k| {
            let (epoch, rows) = group_input(k);
            let input = if chunked {
                Payload::from(
                    rows.chunks(1)
                        .flat_map(esp_types::chunk_batch)
                        .collect::<Vec<_>>(),
                )
            } else {
                Payload::from(rows)
            };
            let out = m.process(epoch, input).unwrap().into_rows();
            let cells = out
                .iter()
                .map(|t| format!("{}:{:?}", t.ts().as_millis(), t.values()));
            std::iter::once(format!("{k} dropped={}", m.outliers_dropped()))
                .chain(cells)
                .collect::<Vec<_>>()
                .join(" ")
        })
        .collect()
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    fn unhex(s: &str) -> Vec<u8> {
        (0..s.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
            .collect()
    }

    fn fixture_path(mode: &str) -> std::path::PathBuf {
        std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("tests/golden")
            .join(format!("merge_{mode}.txt"))
    }

    /// A mode's fixture: its state after epochs 0..6 in hex, then its
    /// output for epochs 0..12, row-fed. The fixtures were captured from
    /// the row-at-a-time Merge that preceded the segmented window;
    /// regenerate with `ESP_GOLDEN_REGEN=1` only deliberately.
    fn transcript(make: Make) -> String {
        let mut m = make();
        let mut lines = drive(&mut m, 0..6, false);
        lines.insert(0, hex(m.state().unwrap().unwrap().bytes()));
        lines.extend(drive(&mut m, 6..12, false));
        lines.join("\n") + "\n"
    }

    #[test]
    fn windowed_modes_match_pinned_state_and_output() {
        for (mode, make) in windowed_modes() {
            let got = transcript(make);
            if std::env::var("ESP_GOLDEN_REGEN").is_ok() {
                std::fs::write(fixture_path(mode), &got).unwrap();
                continue;
            }
            let expected = std::fs::read_to_string(fixture_path(mode)).unwrap();
            assert_eq!(got, expected, "{mode}");
        }
    }

    /// Restoring the pinned state and continuing reproduces the
    /// uninterrupted run, as does restoring this build's own state.
    #[test]
    fn restored_state_continues_like_uninterrupted() {
        for (mode, make) in windowed_modes() {
            let mut uninterrupted = make();
            let expected = drive(&mut uninterrupted, 0..12, false);
            let fixture = std::fs::read_to_string(fixture_path(mode)).unwrap();
            let pinned = StageState(unhex(fixture.lines().next().unwrap()));
            let mut own = make();
            drive(&mut own, 0..6, false);
            for state in [pinned, own.state().unwrap().unwrap()] {
                let mut restored = make();
                restored.restore(&state).unwrap();
                assert_eq!(drive(&mut restored, 6..12, false), expected[6..], "{mode}");
            }
        }
    }

    #[test]
    fn chunk_fed_merge_matches_row_fed() {
        for (mode, make) in windowed_modes() {
            let (mut rows, mut chunks) = (make(), make());
            assert_eq!(
                drive(&mut chunks, 0..12, true),
                drive(&mut rows, 0..12, false),
                "{mode}"
            );
            assert_eq!(chunks.state().unwrap(), rows.state().unwrap(), "{mode}");
        }
    }
}
