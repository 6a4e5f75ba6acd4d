//! Stage 2 — **Smooth**: aggregation within the temporal granule.
//!
//! Smooth interpolates for missed readings and removes errant single
//! readings by processing a sliding window the size of the temporal granule
//! over one receptor stream (paper §3.2, Query 2). Three built-in modes
//! cover the paper's deployments:
//!
//! * [`SmoothStage::count_by_key`] — RFID: count sightings of each key
//!   (tag) within the window; a tag missed for a few polls is still
//!   reported while any sighting remains in the window.
//! * [`SmoothStage::windowed_mean`] — motes: sliding-window average of a
//!   scalar per key; lost samples are masked while the window holds data
//!   (§5.2.1), including with an *expanded* window.
//! * [`SmoothStage::event_presence`] — X10: report an `"ON"` event if at
//!   least `min_events` arrived within the window (§6.1).

use std::collections::HashMap;
use std::sync::Arc;

use esp_stream::stats::RunningStats;
use esp_stream::{Payload, StageState, WindowBuffer};
use esp_types::{
    snap, Batch, DataType, EspError, Field, Result, Schema, Ts, Tuple, Value, ValueKey,
};

use crate::granule::TemporalGranule;
use crate::stage::Stage;

enum SmoothMode {
    CountByKey {
        key_fields: Vec<String>,
    },
    WindowedMean {
        key_fields: Vec<String>,
        value_field: String,
    },
    EventPresence {
        key_fields: Vec<String>,
        value_field: String,
        on_value: Value,
        min_events: usize,
    },
    Ewma {
        key_fields: Vec<String>,
        value_field: String,
        alpha: f64,
        /// Per-key state: (key values, estimate, last update time).
        state: HashMap<Vec<ValueKey>, (Vec<Value>, f64, Ts)>,
        order: Vec<Vec<ValueKey>>,
    },
}

/// The built-in Smooth stage.
pub struct SmoothStage {
    name: String,
    granule: TemporalGranule,
    window: WindowBuffer,
    mode: SmoothMode,
    out_schema: Option<Arc<Schema>>,
}

impl SmoothStage {
    /// RFID-style smoothing (paper Query 2): emit `(key…, count)` for each
    /// distinct key combination in the window.
    pub fn count_by_key<S: Into<String>>(
        name: impl Into<String>,
        granule: impl Into<TemporalGranule>,
        key_fields: impl IntoIterator<Item = S>,
    ) -> SmoothStage {
        let granule = granule.into();
        SmoothStage {
            name: name.into(),
            window: WindowBuffer::new(granule.window()),
            granule,
            mode: SmoothMode::CountByKey {
                key_fields: key_fields.into_iter().map(Into::into).collect(),
            },
            out_schema: None,
        }
    }

    /// Mote-style smoothing (paper §5.2.1): emit `(key…, value)` with the
    /// windowed mean of `value_field` per key combination.
    pub fn windowed_mean<S: Into<String>>(
        name: impl Into<String>,
        granule: impl Into<TemporalGranule>,
        key_fields: impl IntoIterator<Item = S>,
        value_field: impl Into<String>,
    ) -> SmoothStage {
        let granule = granule.into();
        SmoothStage {
            name: name.into(),
            window: WindowBuffer::new(granule.window()),
            granule,
            mode: SmoothMode::WindowedMean {
                key_fields: key_fields.into_iter().map(Into::into).collect(),
                value_field: value_field.into(),
            },
            out_schema: None,
        }
    }

    /// X10-style smoothing (paper §6.1): emit one `(key…, value)` tuple
    /// when at least `min_events` tuples whose `value_field` equals
    /// `on_value` arrived within the window. Key fields (e.g.
    /// `spatial_granule`, `receptor_id`) are copied from the most recent
    /// matching event so downstream Merge voting can count devices.
    pub fn event_presence<S: Into<String>>(
        name: impl Into<String>,
        granule: impl Into<TemporalGranule>,
        key_fields: impl IntoIterator<Item = S>,
        value_field: impl Into<String>,
        on_value: impl Into<Value>,
        min_events: usize,
    ) -> SmoothStage {
        let granule = granule.into();
        SmoothStage {
            name: name.into(),
            window: WindowBuffer::new(granule.window()),
            granule,
            mode: SmoothMode::EventPresence {
                key_fields: key_fields.into_iter().map(Into::into).collect(),
                value_field: value_field.into(),
                on_value: on_value.into(),
                min_events,
            },
            out_schema: None,
        }
    }

    /// Exponentially-weighted moving average smoothing — an alternative to
    /// the plain windowed mean from the anticipated "suite of ESP
    /// Operators" (paper §7). Reacts faster to level shifts than a
    /// rectangular window of equal memory; a key's estimate expires when
    /// no sample has arrived within the granule window.
    pub fn ewma<S: Into<String>>(
        name: impl Into<String>,
        granule: impl Into<TemporalGranule>,
        key_fields: impl IntoIterator<Item = S>,
        value_field: impl Into<String>,
        alpha: f64,
    ) -> Result<SmoothStage> {
        if !(0.0..=1.0).contains(&alpha) {
            return Err(EspError::Config(format!(
                "EWMA alpha {alpha} must be in [0, 1]"
            )));
        }
        let granule = granule.into();
        Ok(SmoothStage {
            name: name.into(),
            window: WindowBuffer::new(granule.window()),
            granule,
            mode: SmoothMode::Ewma {
                key_fields: key_fields.into_iter().map(Into::into).collect(),
                value_field: value_field.into(),
                alpha,
                state: HashMap::new(),
                order: Vec::new(),
            },
            out_schema: None,
        })
    }

    /// The configured temporal granule (with any window expansion).
    pub fn granule(&self) -> TemporalGranule {
        self.granule
    }

    fn key_of(key_fields: &[String], t: &Tuple) -> Result<Vec<ValueKey>> {
        key_fields
            .iter()
            .map(|f| Ok(t.require(f)?.group_key()))
            .collect()
    }

    fn output_schema(
        &mut self,
        sample: &Tuple,
        key_fields: &[String],
        value_name: &str,
        value_type: DataType,
    ) -> Result<Arc<Schema>> {
        if let Some(s) = &self.out_schema {
            return Ok(Arc::clone(s));
        }
        let mut fields = Vec::with_capacity(key_fields.len() + 1);
        for k in key_fields {
            let f = sample
                .schema()
                .field(k)
                .ok_or_else(|| EspError::UnknownField(format!("smooth key field '{k}'")))?;
            fields.push(f.clone());
        }
        fields.push(Field::new(value_name, value_type));
        let schema = Schema::new(fields)?;
        self.out_schema = Some(Arc::clone(&schema));
        Ok(schema)
    }

    fn process_window(&mut self, epoch: Ts, input: Vec<Tuple>) -> Result<Batch> {
        for t in input {
            // Restamp at the epoch so window eviction tracks arrival time.
            let t = if t.ts() == epoch {
                t
            } else {
                t.restamped(epoch)
            };
            self.window.push(t);
        }
        self.window.advance_to(epoch);
        if self.window.is_empty() {
            return Ok(Batch::new());
        }
        // Borrow-friendly: temporarily take the mode.
        match &self.mode {
            SmoothMode::Ewma { .. } => unreachable!("handled by process_ewma"),
            SmoothMode::CountByKey { key_fields } => {
                let key_fields = key_fields.clone();
                let mut counts: HashMap<Vec<ValueKey>, (Vec<Value>, i64)> = HashMap::new();
                let mut order: Vec<Vec<ValueKey>> = Vec::new();
                for t in self.window.contents() {
                    let key = Self::key_of(&key_fields, t)?;
                    match counts.get_mut(&key) {
                        Some((_, n)) => *n += 1,
                        None => {
                            let vals = key_fields
                                .iter()
                                .map(|f| t.require(f).cloned())
                                .collect::<Result<Vec<_>>>()?;
                            counts.insert(key.clone(), (vals, 1));
                            order.push(key);
                        }
                    }
                }
                let Some(sample) = self.window.contents().next().cloned() else {
                    return Ok(Batch::new());
                };
                let schema = self.output_schema(&sample, &key_fields, "count", DataType::Int)?;
                order
                    .into_iter()
                    .map(|k| {
                        let (mut vals, n) = counts.remove(&k).ok_or_else(|| {
                            EspError::Stage("smooth: key missing from count map".into())
                        })?;
                        vals.push(Value::Int(n));
                        Ok(Tuple::new_unchecked(Arc::clone(&schema), epoch, vals))
                    })
                    .collect()
            }
            SmoothMode::WindowedMean {
                key_fields,
                value_field,
            } => {
                let (key_fields, value_field) = (key_fields.clone(), value_field.clone());
                let mut stats: HashMap<Vec<ValueKey>, (Vec<Value>, RunningStats)> = HashMap::new();
                let mut order: Vec<Vec<ValueKey>> = Vec::new();
                for t in self.window.contents() {
                    let Some(x) = t.get(&value_field).and_then(Value::as_f64) else {
                        continue; // NULL / non-numeric samples are skipped.
                    };
                    let key = Self::key_of(&key_fields, t)?;
                    match stats.get_mut(&key) {
                        Some((_, s)) => s.push(x),
                        None => {
                            let vals = key_fields
                                .iter()
                                .map(|f| t.require(f).cloned())
                                .collect::<Result<Vec<_>>>()?;
                            let mut s = RunningStats::new();
                            s.push(x);
                            stats.insert(key.clone(), (vals, s));
                            order.push(key);
                        }
                    }
                }
                if order.is_empty() {
                    return Ok(Batch::new());
                }
                let Some(sample) = self.window.contents().next().cloned() else {
                    return Ok(Batch::new());
                };
                let schema =
                    self.output_schema(&sample, &key_fields, &value_field, DataType::Float)?;
                order
                    .into_iter()
                    .map(|k| {
                        let (mut vals, s) = stats.remove(&k).ok_or_else(|| {
                            EspError::Stage("smooth: key missing from stats map".into())
                        })?;
                        let mean = s
                            .mean()
                            .ok_or_else(|| EspError::Stage("smooth: empty stats bucket".into()))?;
                        vals.push(Value::Float(mean));
                        Ok(Tuple::new_unchecked(Arc::clone(&schema), epoch, vals))
                    })
                    .collect()
            }
            SmoothMode::EventPresence {
                key_fields,
                value_field,
                on_value,
                min_events,
            } => {
                let matching: Vec<&Tuple> = self
                    .window
                    .contents()
                    .filter(|t| t.get(value_field).is_some_and(|v| v.sql_eq(on_value)))
                    .collect();
                if matching.len() < *min_events {
                    return Ok(Batch::new());
                }
                // `min_events` may be 0 with an empty window: no event.
                let Some(last) = matching.last().map(|t| (*t).clone()) else {
                    return Ok(Batch::new());
                };
                let (key_fields, value_field, on) =
                    (key_fields.clone(), value_field.clone(), on_value.clone());
                let schema = self.output_schema(&last, &key_fields, &value_field, DataType::Any)?;
                let mut vals = key_fields
                    .iter()
                    .map(|f| last.require(f).cloned())
                    .collect::<Result<Vec<_>>>()?;
                vals.push(on);
                Ok(vec![Tuple::new_unchecked(schema, epoch, vals)])
            }
        }
    }
}

impl Stage for SmoothStage {
    fn name(&self) -> &str {
        &self.name
    }

    fn process(&mut self, epoch: Ts, input: Payload) -> Result<Payload> {
        let input = input.into_rows();
        let out = if matches!(self.mode, SmoothMode::Ewma { .. }) {
            self.process_ewma(epoch, input)
        } else {
            self.process_window(epoch, input)
        };
        out.map(Payload::Rows)
    }

    fn state(&self) -> Result<Option<StageState>> {
        let mut out = Vec::new();
        self.window.encode_into(&mut out);
        match &self.out_schema {
            Some(s) => {
                snap::put_u8(&mut out, 1);
                snap::encode_schema(&mut out, s);
            }
            None => snap::put_u8(&mut out, 0),
        }
        match &self.mode {
            SmoothMode::Ewma { state, order, .. } => {
                snap::put_u8(&mut out, 1);
                snap::put_u32(&mut out, order.len() as u32);
                for key in order {
                    let (vals, est, last) = state.get(key).ok_or_else(|| {
                        EspError::Snapshot("EWMA order/state maps out of sync".into())
                    })?;
                    snap::put_u16(&mut out, vals.len() as u16);
                    for v in vals {
                        snap::encode_value(&mut out, v);
                    }
                    snap::put_f64(&mut out, *est);
                    snap::put_u64(&mut out, last.as_millis());
                }
            }
            // The other modes recompute everything from the window.
            _ => snap::put_u8(&mut out, 0),
        }
        Ok(Some(StageState(out)))
    }

    fn restore(&mut self, s: &StageState) -> Result<()> {
        let mut cur = snap::Cursor::new(s.bytes());
        self.window.restore_from(&mut cur)?;
        self.out_schema = match cur.u8()? {
            0 => None,
            _ => Some(snap::decode_schema(&mut cur)?),
        };
        let has_ewma = cur.u8()? == 1;
        match (&mut self.mode, has_ewma) {
            (SmoothMode::Ewma { state, order, .. }, true) => {
                state.clear();
                order.clear();
                let n = cur.u32()? as usize;
                for _ in 0..n {
                    let n_vals = cur.u16()? as usize;
                    let mut vals = Vec::with_capacity(n_vals);
                    for _ in 0..n_vals {
                        vals.push(snap::decode_value(&mut cur)?);
                    }
                    let est = cur.f64()?;
                    let last = Ts::from_millis(cur.u64()?);
                    let key: Vec<ValueKey> = vals.iter().map(Value::group_key).collect();
                    state.insert(key.clone(), (vals, est, last));
                    order.push(key);
                }
            }
            (SmoothMode::Ewma { .. }, false) | (_, true) => {
                return Err(EspError::Snapshot(format!(
                    "smooth stage '{}' snapshot was taken under a different mode",
                    self.name
                )))
            }
            (_, false) => {}
        }
        cur.finish()
    }
}

impl SmoothStage {
    fn process_ewma(&mut self, epoch: Ts, input: Vec<Tuple>) -> Result<Batch> {
        let expiry = self.granule.window();
        // Output schema from the first tuple ever seen.
        if self.out_schema.is_none() {
            if let Some(sample) = input.first() {
                let (key_fields, value_field) = match &self.mode {
                    SmoothMode::Ewma {
                        key_fields,
                        value_field,
                        ..
                    } => (key_fields.clone(), value_field.clone()),
                    _ => unreachable!("process_ewma only for Ewma mode"),
                };
                let sample = sample.clone();
                self.output_schema(&sample, &key_fields, &value_field, DataType::Float)?;
            }
        }
        let SmoothMode::Ewma {
            key_fields,
            value_field,
            alpha,
            state,
            order,
        } = &mut self.mode
        else {
            unreachable!("process_ewma only for Ewma mode")
        };
        for t in &input {
            let Some(x) = t.get(value_field).and_then(Value::as_f64) else {
                continue;
            };
            let key: Vec<ValueKey> = key_fields
                .iter()
                .map(|f| Ok(t.require(f)?.group_key()))
                .collect::<Result<_>>()?;
            match state.get_mut(&key) {
                Some((_, est, last)) => {
                    *est = *alpha * x + (1.0 - *alpha) * *est;
                    *last = epoch;
                }
                None => {
                    let vals = key_fields
                        .iter()
                        .map(|f| t.require(f).cloned())
                        .collect::<Result<Vec<_>>>()?;
                    state.insert(key.clone(), (vals, x, epoch));
                    order.push(key);
                }
            }
        }
        // Expire stale keys and emit current estimates.
        let cutoff = epoch.window_start(expiry);
        order.retain(|k| match state.get(k) {
            Some((_, _, last)) => {
                if *last < cutoff {
                    state.remove(k);
                    false
                } else {
                    true
                }
            }
            None => false,
        });
        let Some(schema) = self.out_schema.clone() else {
            return Ok(Batch::new());
        };
        let SmoothMode::Ewma { state, order, .. } = &self.mode else {
            unreachable!()
        };
        Ok(order
            .iter()
            .map(|k| {
                let (vals, est, _) = &state[k];
                let mut out = vals.clone();
                out.push(Value::Float(*est));
                Tuple::new_unchecked(Arc::clone(&schema), epoch, out)
            })
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stage::ProcessRows;
    use esp_types::{well_known, TimeDelta, TupleBuilder};

    fn rfid(ts: Ts, tag: &str) -> Tuple {
        TupleBuilder::new(&well_known::rfid_schema(), ts)
            .set("receptor_id", 0i64)
            .unwrap()
            .set("tag_id", tag)
            .unwrap()
            .build()
            .unwrap()
    }

    fn temp(ts: Ts, id: i64, celsius: f64) -> Tuple {
        TupleBuilder::new(&well_known::temp_schema(), ts)
            .set("receptor_id", id)
            .unwrap()
            .set("temp", celsius)
            .unwrap()
            .build()
            .unwrap()
    }

    fn motion(ts: Ts, v: &str) -> Tuple {
        TupleBuilder::new(&well_known::motion_schema(), ts)
            .set("receptor_id", 0i64)
            .unwrap()
            .set("value", v)
            .unwrap()
            .build()
            .unwrap()
    }

    #[test]
    fn count_by_key_interpolates_missed_readings() {
        let mut s = SmoothStage::count_by_key("smooth", TimeDelta::from_secs(5), ["tag_id"]);
        // Tag seen at t=0, then dropped for 4 seconds: still reported.
        let out = s.process_rows(Ts::ZERO, vec![rfid(Ts::ZERO, "a")]).unwrap();
        assert_eq!(out.len(), 1);
        for sec in 1..=4u64 {
            let out = s.process_rows(Ts::from_secs(sec), vec![]).unwrap();
            assert_eq!(out.len(), 1, "tag still in granule at {sec}s");
            assert_eq!(out[0].get("count"), Some(&Value::Int(1)));
        }
        assert!(s.process_rows(Ts::from_secs(6), vec![]).unwrap().is_empty());
    }

    #[test]
    fn count_by_key_counts_per_tag() {
        let mut s = SmoothStage::count_by_key("smooth", TimeDelta::from_secs(5), ["tag_id"]);
        let out = s
            .process_rows(
                Ts::ZERO,
                vec![
                    rfid(Ts::ZERO, "a"),
                    rfid(Ts::ZERO, "a"),
                    rfid(Ts::ZERO, "b"),
                ],
            )
            .unwrap();
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].get("count"), Some(&Value::Int(2)));
        assert_eq!(out[1].get("count"), Some(&Value::Int(1)));
        assert_eq!(out[0].ts(), Ts::ZERO);
    }

    #[test]
    fn windowed_mean_masks_lost_samples() {
        let g = TemporalGranule::with_window(TimeDelta::from_mins(5), TimeDelta::from_mins(30))
            .unwrap();
        let mut s = SmoothStage::windowed_mean("smooth", g, ["receptor_id"], "temp");
        let mut t = Ts::ZERO;
        // One sample, then five empty epochs: the mean persists.
        assert_eq!(s.process_rows(t, vec![temp(t, 7, 20.0)]).unwrap().len(), 1);
        for _ in 0..5 {
            t += TimeDelta::from_mins(5);
            let out = s.process_rows(t, vec![]).unwrap();
            assert_eq!(out.len(), 1);
            assert_eq!(out[0].get("temp"), Some(&Value::Float(20.0)));
        }
        // After the 30-minute window fully passes (the lower bound is
        // inclusive, so the sample survives at exactly t=30min), output
        // ceases.
        t += TimeDelta::from_mins(5);
        assert_eq!(s.process_rows(t, vec![]).unwrap().len(), 1);
        t += TimeDelta::from_mins(5);
        assert!(s.process_rows(t, vec![]).unwrap().is_empty());
    }

    #[test]
    fn windowed_mean_averages_within_window() {
        let mut s =
            SmoothStage::windowed_mean("smooth", TimeDelta::from_secs(10), ["receptor_id"], "temp");
        s.process_rows(Ts::ZERO, vec![temp(Ts::ZERO, 1, 10.0)])
            .unwrap();
        let out = s
            .process_rows(Ts::from_secs(1), vec![temp(Ts::from_secs(1), 1, 20.0)])
            .unwrap();
        assert_eq!(out[0].get("temp"), Some(&Value::Float(15.0)));
    }

    #[test]
    fn windowed_mean_separates_keys() {
        let mut s =
            SmoothStage::windowed_mean("smooth", TimeDelta::from_secs(10), ["receptor_id"], "temp");
        let out = s
            .process_rows(
                Ts::ZERO,
                vec![temp(Ts::ZERO, 1, 10.0), temp(Ts::ZERO, 2, 30.0)],
            )
            .unwrap();
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].get("temp"), Some(&Value::Float(10.0)));
        assert_eq!(out[1].get("temp"), Some(&Value::Float(30.0)));
    }

    #[test]
    fn windowed_mean_skips_null_values() {
        let mut s =
            SmoothStage::windowed_mean("smooth", TimeDelta::from_secs(10), ["receptor_id"], "temp");
        let null_temp = TupleBuilder::new(&well_known::temp_schema(), Ts::ZERO)
            .set("receptor_id", 1i64)
            .unwrap()
            .build()
            .unwrap();
        assert!(s
            .process_rows(Ts::ZERO, vec![null_temp])
            .unwrap()
            .is_empty());
    }

    #[test]
    fn event_presence_thresholds() {
        let mut s = SmoothStage::event_presence(
            "smooth",
            TimeDelta::from_secs(10),
            ["receptor_id"],
            "value",
            "ON",
            2,
        );
        assert!(s
            .process_rows(Ts::ZERO, vec![motion(Ts::ZERO, "ON")])
            .unwrap()
            .is_empty());
        let out = s
            .process_rows(Ts::from_secs(1), vec![motion(Ts::from_secs(1), "ON")])
            .unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].get("value"), Some(&Value::str("ON")));
        assert_eq!(out[0].get("receptor_id"), Some(&Value::Int(0)));
    }

    #[test]
    fn ewma_converges_and_expires() {
        let mut s = SmoothStage::ewma(
            "smooth",
            TimeDelta::from_secs(10),
            ["receptor_id"],
            "temp",
            0.5,
        )
        .unwrap();
        // First sample sets the estimate.
        let out = s
            .process_rows(Ts::ZERO, vec![temp(Ts::ZERO, 1, 10.0)])
            .unwrap();
        assert_eq!(out[0].get("temp"), Some(&Value::Float(10.0)));
        // Step toward a new level: 0.5*20 + 0.5*10 = 15.
        let out = s
            .process_rows(Ts::from_secs(1), vec![temp(Ts::from_secs(1), 1, 20.0)])
            .unwrap();
        assert_eq!(out[0].get("temp"), Some(&Value::Float(15.0)));
        // No input: estimate persists inside the granule window.
        let out = s.process_rows(Ts::from_secs(5), vec![]).unwrap();
        assert_eq!(out[0].get("temp"), Some(&Value::Float(15.0)));
        // Expires after the granule window with no new samples.
        let out = s.process_rows(Ts::from_secs(30), vec![]).unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn ewma_tracks_level_shift_faster_than_windowed_mean() {
        let g = TimeDelta::from_secs(60);
        let mut ewma = SmoothStage::ewma("e", g, ["receptor_id"], "temp", 0.5).unwrap();
        let mut mean = SmoothStage::windowed_mean("m", g, ["receptor_id"], "temp");
        // 30 samples at 10 °C, then a step to 30 °C.
        let mut t = Ts::ZERO;
        for _ in 0..30 {
            ewma.process_rows(t, vec![temp(t, 1, 10.0)]).unwrap();
            mean.process_rows(t, vec![temp(t, 1, 10.0)]).unwrap();
            t += TimeDelta::from_secs(1);
        }
        for _ in 0..3 {
            let e = ewma.process_rows(t, vec![temp(t, 1, 30.0)]).unwrap();
            let m = mean.process_rows(t, vec![temp(t, 1, 30.0)]).unwrap();
            let ev = e[0].get("temp").unwrap().as_f64().unwrap();
            let mv = m[0].get("temp").unwrap().as_f64().unwrap();
            assert!(ev > mv, "EWMA {ev} should lead windowed mean {mv}");
            t += TimeDelta::from_secs(1);
        }
    }

    #[test]
    fn ewma_rejects_bad_alpha() {
        assert!(SmoothStage::ewma("e", TimeDelta::from_secs(1), ["k"], "v", 1.5).is_err());
        assert!(SmoothStage::ewma("e", TimeDelta::from_secs(1), ["k"], "v", -0.1).is_err());
    }

    #[test]
    fn unknown_key_field_errors() {
        let mut s = SmoothStage::count_by_key("smooth", TimeDelta::from_secs(5), ["bogus"]);
        assert!(s.process_rows(Ts::ZERO, vec![rfid(Ts::ZERO, "a")]).is_err());
    }

    /// The recovery invariant, stage-local: checkpoint mid-window,
    /// restore into a fresh stage, and the continued runs must emit
    /// identical output at every subsequent epoch.
    #[test]
    fn checkpoint_round_trip_continues_identically() {
        let run = |restore_at: Option<u64>| -> Vec<String> {
            let mut s = SmoothStage::count_by_key("smooth", TimeDelta::from_secs(5), ["tag_id"]);
            let mut out = Vec::new();
            for sec in 0..10u64 {
                if restore_at == Some(sec) {
                    let blob = s.state().unwrap().unwrap();
                    let mut fresh =
                        SmoothStage::count_by_key("smooth", TimeDelta::from_secs(5), ["tag_id"]);
                    fresh.restore(&blob).unwrap();
                    s = fresh;
                }
                let epoch = Ts::from_secs(sec);
                let input = if sec % 3 == 0 {
                    vec![rfid(epoch, "a"), rfid(epoch, "b")]
                } else {
                    vec![rfid(epoch, "a")]
                };
                for t in s.process_rows(epoch, input).unwrap() {
                    out.push(format!("{:?} {:?}", t.ts(), t.values()));
                }
            }
            out
        };
        let uninterrupted = run(None);
        for at in [1, 4, 7] {
            assert_eq!(run(Some(at)), uninterrupted, "restore at epoch {at}");
        }
    }

    #[test]
    fn ewma_checkpoint_preserves_estimates_and_schema() {
        let g = TemporalGranule::from(TimeDelta::from_secs(30));
        let mut s = SmoothStage::ewma("e", g, ["receptor_id"], "temp", 0.5).unwrap();
        let mut t = Ts::ZERO;
        for _ in 0..5 {
            s.process_rows(t, vec![temp(t, 1, 20.0)]).unwrap();
            t += TimeDelta::from_secs(1);
        }
        let blob = Stage::state(&s).unwrap().unwrap();
        let mut r = SmoothStage::ewma("e", g, ["receptor_id"], "temp", 0.5).unwrap();
        r.restore(&blob).unwrap();
        // Next epoch has no input: output comes purely from restored
        // estimate + restored schema.
        let a = s.process_rows(t, vec![]).unwrap();
        let b = r.process_rows(t, vec![]).unwrap();
        assert_eq!(a.len(), 1);
        assert_eq!(a[0].values(), b[0].values());
    }

    #[test]
    fn checkpoint_mode_mismatch_is_rejected() {
        let s = SmoothStage::count_by_key("s", TimeDelta::from_secs(5), ["tag_id"]);
        let blob = s.state().unwrap().unwrap();
        let mut e =
            SmoothStage::ewma("s", TimeDelta::from_secs(5), ["tag_id"], "temp", 0.5).unwrap();
        assert!(e.restore(&blob).is_err());
    }
}
