//! Stage 2 — **Smooth**: aggregation within the temporal granule.
//!
//! Smooth interpolates for missed readings and removes errant single
//! readings by aggregating a sliding window the size of the temporal
//! granule over one receptor stream (paper §3.2, Query 2). Built-in modes
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
//! * [`SmoothStage::ewma`] — exponentially-weighted alternative to the
//!   windowed mean.
//!
//! # Pane-incremental evaluation
//!
//! The window slides by one epoch and all three windowed aggregates merge,
//! so the stage keeps no tuples: each mode is a construction of
//! [`esp_stream::panes::PaneAggregate`], the keyed pane fold that
//! esp-query's mergeable selects run on too. A mode supplies only its
//! partial (count → `i64`; mean → [`RunningStats`]; presence → a match
//! count and the key values of the last match, under one group), how a
//! run of group-equal rows updates it, and how a merged partial becomes
//! output values. An epoch folds only its own arrivals into the pane of
//! that epoch, slides the store, and emits from the panes merged oldest →
//! newest: the rows a rescan of the buffered window would emit, in the
//! same order (first-seen key order, key values of the oldest live
//! arrival, counts and presence exact, means equal to rounding), for
//! O(arrivals + panes × keys) work instead of O(window rows).
//!
//! Input is folded where it lies: the aggregate finds runs of keys equal
//! in place on the chunk's columns, a count adds each run's length, and
//! the mean pushes each run of a clean packed `Float` column in one slice
//! walk (any other value column is read slot by slot, its non-numeric
//! rows left out). The output is written column by column from the merged
//! panes; EWMA alone reads rows.
//!
//! The checkpoint is the partials (see [`Stage::state`] below), tagged so
//! that a pre-pane blob of raw window tuples is refused, not misread.

use std::collections::HashMap;
use std::sync::Arc;

use esp_stream::panes::{Column, Columns, PaneAggregate, Partial};
use esp_stream::stats::RunningStats;
use esp_stream::{Payload, StageState};
use esp_types::{
    snap, Chunk, ColumnVec, DataType, EspError, Field, Result, Schema, Ts, Tuple, Value, ValueKey,
};

use crate::granule::TemporalGranule;
use crate::stage::Stage;

/// First byte of the state blob. Pre-pane blobs began with the window
/// width as a big-endian `u64`, i.e. with a zero byte for any width below
/// 2⁵⁶ ms, so the tag alone tells the two layouts apart.
const STATE_TAG: u8 = 2;

/// Event-presence partial: how many arrivals of the pane matched, and the
/// key values of the last one that did.
#[derive(Debug, Clone, Default)]
struct Presence {
    matches: u64,
    last: Vec<Value>,
}

impl Partial for Presence {
    fn merge(&mut self, newer: &Presence) -> Result<()> {
        if newer.matches > 0 {
            self.matches += newer.matches;
            self.last.clone_from(&newer.last);
        }
        Ok(())
    }

    fn encode_into(&self, out: &mut Vec<u8>) {
        snap::put_u64(out, self.matches);
        snap::encode_values(out, &self.last);
    }

    fn decode(cur: &mut snap::Cursor<'_>) -> Result<Presence> {
        Ok(Presence {
            matches: cur.u64()?,
            last: snap::decode_values(cur)?,
        })
    }
}

enum SmoothMode {
    /// Keys: the key fields.
    CountByKey(PaneAggregate<i64>),
    /// Keys: the key fields; argument: the value field (optional).
    WindowedMean(PaneAggregate<RunningStats>),
    /// No keys; arguments: the value field (optional), then the key fields.
    EventPresence(EventPresence, PaneAggregate<Presence>),
    Ewma {
        alpha: f64,
        /// Per-key state: (key values, estimate, last update time).
        state: HashMap<Vec<ValueKey>, (Vec<Value>, f64, Ts)>,
        order: Vec<Vec<ValueKey>>,
    },
}

impl SmoothMode {
    /// The mode's byte in the state blob.
    fn tag(&self) -> u8 {
        match self {
            SmoothMode::CountByKey(_) => 0,
            SmoothMode::WindowedMean(_) => 1,
            SmoothMode::EventPresence(..) => 2,
            SmoothMode::Ewma { .. } => 3,
        }
    }
}

/// What a windowed mode adds to the shared pane fold: how a chunk's runs
/// of group-equal rows update its partial, and how a merged partial
/// becomes output values.
trait Windowed {
    type Partial: Partial;

    /// Whether each output row starts with the group's key values (the
    /// pane fold writes those columns; [`Windowed::row`] the rest).
    const KEYED: bool;

    /// Fold one chunk into the pane of `epoch`.
    fn fold(
        &self,
        panes: &mut PaneAggregate<Self::Partial>,
        epoch: Ts,
        cols: &Columns<'_>,
    ) -> Result<()>;

    /// Append a merged group's output values after its key to `row`;
    /// `false` for none.
    fn row(&self, partial: &Self::Partial, row: &mut Vec<Value>) -> Result<bool>;
}

struct Count;

impl Windowed for Count {
    type Partial = i64;
    const KEYED: bool = true;

    fn fold(&self, panes: &mut PaneAggregate<i64>, epoch: Ts, cols: &Columns<'_>) -> Result<()> {
        panes.fold(epoch, cols, None, |n, run| {
            *n += run.len() as i64;
            Ok(())
        })
    }

    fn row(&self, n: &i64, row: &mut Vec<Value>) -> Result<bool> {
        row.push(Value::Int(*n));
        Ok(true)
    }
}

struct Mean;

impl Windowed for Mean {
    type Partial = RunningStats;
    const KEYED: bool = true;

    fn fold(
        &self,
        panes: &mut PaneAggregate<RunningStats>,
        epoch: Ts,
        cols: &Columns<'_>,
    ) -> Result<()> {
        let value = cols.args[0];
        match value {
            // The kernel: a clean float column is one slice walk per run.
            ColumnVec::Float(p) if !p.nulls().any() => {
                panes.fold(epoch, cols, None, |stats, run| {
                    for &x in &p.data()[run] {
                        stats.push(x);
                    }
                    Ok(())
                })
            }
            // NULL / non-numeric samples are skipped, and a key none of
            // whose samples is numeric is never listed.
            _ => {
                let num = |row: usize| value.get(row).and_then(|v| v.as_f64());
                let numeric: Vec<usize> = (0..cols.row_count())
                    .filter(|&row| num(row).is_some())
                    .collect();
                panes.fold(epoch, cols, Some(&numeric), |stats, run| {
                    for x in numeric[run].iter().filter_map(|&row| num(row)) {
                        stats.push(x);
                    }
                    Ok(())
                })
            }
        }
    }

    fn row(&self, stats: &RunningStats, row: &mut Vec<Value>) -> Result<bool> {
        let mean = stats
            .mean()
            .ok_or_else(|| EspError::Stage("smooth: empty stats bucket".into()))?;
        row.push(Value::Float(mean));
        Ok(true)
    }
}

struct EventPresence {
    on_value: Value,
    min_events: usize,
}

impl Windowed for EventPresence {
    type Partial = Presence;
    const KEYED: bool = false;

    fn fold(
        &self,
        panes: &mut PaneAggregate<Presence>,
        epoch: Ts,
        cols: &Columns<'_>,
    ) -> Result<()> {
        let (value, labels) = (cols.args[0], &cols.args[1..]);
        let matched: Vec<usize> = (0..cols.row_count())
            .filter(|&row| value.get(row).is_some_and(|v| v.sql_eq(&self.on_value)))
            .collect();
        // One group for the whole stream: the key fields only label the
        // event.
        panes.fold(epoch, cols, Some(&matched), |presence, run| {
            presence.matches += run.len() as u64;
            let last = matched[run.end - 1];
            presence.last.clear();
            presence
                .last
                .extend(labels.iter().map(|c| c.get(last).unwrap_or(Value::Null)));
            Ok(())
        })
    }

    fn row(&self, p: &Presence, row: &mut Vec<Value>) -> Result<bool> {
        // `min_events` may be 0 with nothing matching: no event.
        if p.matches == 0 || p.matches < self.min_events as u64 {
            return Ok(false);
        }
        row.extend_from_slice(&p.last);
        row.push(self.on_value.clone());
        Ok(true)
    }
}

/// One epoch of a windowed mode: fold every chunk into the pane of
/// `epoch` (the first chunk that folds fixes `schema`), slide the window
/// and emit from the merged panes.
fn window<W: Windowed>(
    mode: &W,
    panes: &mut PaneAggregate<W::Partial>,
    epoch: Ts,
    input: &Payload,
    schema: &mut Option<Arc<Schema>>,
    fix: impl Fn(&Schema) -> Result<Arc<Schema>>,
) -> Result<Payload> {
    for chunk in input.chunks().iter().filter(|c| !c.is_empty()) {
        let Some(cols) = panes.columns(chunk)? else {
            continue;
        };
        mode.fold(panes, epoch, &cols)?;
        if schema.is_none() {
            *schema = Some(fix(chunk.schema())?);
        }
    }
    let Some(schema) = schema else {
        return unfixed(panes.is_empty());
    };
    // A keyed mode's output is the key fields, then its one value.
    let keys_at: Vec<Option<usize>> = (0..schema.len())
        .map(|c| (W::KEYED && c + 1 < schema.len()).then_some(c))
        .collect();
    let (chunk, _) = panes.emit(epoch, schema, &keys_at, None, |_, p, row| mode.row(p, row))?;
    Ok(Payload::from(vec![chunk]))
}

/// The output of a stage whose schema is not fixed yet, i.e. that has
/// folded nothing.
fn unfixed(empty: bool) -> Result<Payload> {
    if empty {
        return Ok(Payload::empty());
    }
    Err(EspError::Stage(
        "smooth: state holds keys but no output schema was fixed".into(),
    ))
}

/// The built-in Smooth stage.
pub struct SmoothStage {
    name: String,
    granule: TemporalGranule,
    key_fields: Vec<String>,
    /// The aggregated field (`None` for [`SmoothStage::count_by_key`]).
    value_field: Option<String>,
    mode: SmoothMode,
    out_schema: Option<Arc<Schema>>,
}

impl SmoothStage {
    fn with_mode<S: Into<String>>(
        name: impl Into<String>,
        granule: TemporalGranule,
        key_fields: impl IntoIterator<Item = S>,
        value_field: Option<String>,
        mode: impl FnOnce(Vec<Column>) -> SmoothMode,
    ) -> SmoothStage {
        let key_fields: Vec<String> = key_fields.into_iter().map(Into::into).collect();
        let keys = key_fields.iter().map(|k| Column::required(k, k.clone()));
        SmoothStage {
            name: name.into(),
            granule,
            mode: mode(keys.collect()),
            key_fields,
            value_field,
            out_schema: None,
        }
    }

    /// RFID-style smoothing (paper Query 2): emit `(key…, count)` for each
    /// distinct key combination in the window.
    pub fn count_by_key<S: Into<String>>(
        name: impl Into<String>,
        granule: impl Into<TemporalGranule>,
        key_fields: impl IntoIterator<Item = S>,
    ) -> SmoothStage {
        let granule = granule.into();
        SmoothStage::with_mode(name, granule, key_fields, None, |keys| {
            SmoothMode::CountByKey(PaneAggregate::new(granule.window(), keys, vec![]))
        })
    }

    /// Mote-style smoothing (paper §5.2.1): emit `(key…, value)` with the
    /// windowed mean of `value_field` per key combination.
    pub fn windowed_mean<S: Into<String>>(
        name: impl Into<String>,
        granule: impl Into<TemporalGranule>,
        key_fields: impl IntoIterator<Item = S>,
        value_field: impl Into<String>,
    ) -> SmoothStage {
        let (granule, value) = (granule.into(), value_field.into());
        let arg = vec![Column::optional(&value)];
        SmoothStage::with_mode(name, granule, key_fields, Some(value), |keys| {
            SmoothMode::WindowedMean(PaneAggregate::new(granule.window(), keys, arg))
        })
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
        let (granule, value) = (granule.into(), value_field.into());
        let arg = Column::optional(&value);
        SmoothStage::with_mode(name, granule, key_fields, Some(value), |keys| {
            let on_value = on_value.into();
            let args = std::iter::once(arg).chain(keys).collect();
            let panes = PaneAggregate::new(granule.window(), vec![], args);
            SmoothMode::EventPresence(
                EventPresence {
                    on_value,
                    min_events,
                },
                panes,
            )
        })
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
        let mode = SmoothMode::Ewma {
            alpha,
            state: HashMap::new(),
            order: Vec::new(),
        };
        Ok(SmoothStage::with_mode(
            name,
            granule.into(),
            key_fields,
            Some(value_field.into()),
            |_| mode,
        ))
    }

    /// The configured temporal granule (with any window expansion).
    pub fn granule(&self) -> TemporalGranule {
        self.granule
    }

    /// Name and type of the aggregate column appended after the keys.
    fn output_field(&self) -> Field {
        let value = self.value_field.as_deref();
        match &self.mode {
            SmoothMode::CountByKey(_) => Field::new("count", DataType::Int),
            SmoothMode::EventPresence(..) => Field::new(value.unwrap_or("value"), DataType::Any),
            SmoothMode::WindowedMean(_) | SmoothMode::Ewma { .. } => {
                Field::new(value.unwrap_or("value"), DataType::Float)
            }
        }
    }

    /// One epoch of a windowed mode (see [`window`]).
    fn process_panes(&mut self, epoch: Ts, input: &Payload) -> Result<Payload> {
        let field = self.output_field();
        let fix = |input: &Schema| output_schema(&self.key_fields, &field, input);
        let schema = &mut self.out_schema;
        match &mut self.mode {
            SmoothMode::CountByKey(p) => window(&Count, p, epoch, input, schema, fix),
            SmoothMode::WindowedMean(p) => window(&Mean, p, epoch, input, schema, fix),
            SmoothMode::EventPresence(mode, p) => window(mode, p, epoch, input, schema, fix),
            SmoothMode::Ewma { .. } => unreachable!("handled by process_ewma"),
        }
    }
}

/// The output schema: the key fields as `input` declares them, plus the
/// aggregate column `field`.
fn output_schema(key_fields: &[String], field: &Field, input: &Schema) -> Result<Arc<Schema>> {
    let mut fields = Vec::with_capacity(key_fields.len() + 1);
    for k in key_fields {
        let f = input
            .field(k)
            .ok_or_else(|| EspError::UnknownField(format!("smooth key field '{k}'")))?;
        fields.push(f.clone());
    }
    fields.push(field.clone());
    Schema::new(fields)
}

impl Stage for SmoothStage {
    fn name(&self) -> &str {
        &self.name
    }

    fn process(&mut self, epoch: Ts, input: Payload) -> Result<Payload> {
        if matches!(self.mode, SmoothMode::Ewma { .. }) {
            self.process_ewma(epoch, input.into_rows())
        } else {
            self.process_panes(epoch, &input)
        }
    }

    /// State blob (`snap` form): a tag byte (`2`), the mode's tag, the output
    /// schema if fixed (`u8` flag + schema), then the mode's state — the
    /// pane store ([`PaneAggregate::encode_into`]) or EWMA's per-key
    /// estimates. No tuple is ever part of it.
    fn state(&self) -> Result<Option<StageState>> {
        let mut out = Vec::new();
        snap::put_u8(&mut out, STATE_TAG);
        snap::put_u8(&mut out, self.mode.tag());
        match &self.out_schema {
            Some(s) => {
                snap::put_u8(&mut out, 1);
                snap::encode_schema(&mut out, s);
            }
            None => snap::put_u8(&mut out, 0),
        }
        match &self.mode {
            SmoothMode::CountByKey(panes) => panes.encode_into(&mut out),
            SmoothMode::WindowedMean(panes) => panes.encode_into(&mut out),
            SmoothMode::EventPresence(_, panes) => panes.encode_into(&mut out),
            SmoothMode::Ewma { state, order, .. } => {
                snap::put_u32(&mut out, order.len() as u32);
                for key in order {
                    let (vals, est, last) = state.get(key).ok_or_else(|| {
                        EspError::Snapshot("EWMA order/state maps out of sync".into())
                    })?;
                    snap::encode_values(&mut out, vals);
                    snap::put_f64(&mut out, *est);
                    snap::put_u64(&mut out, last.as_millis());
                }
            }
        }
        Ok(Some(StageState(out)))
    }

    /// Refuses a blob from another mode, and one whose output schema is
    /// not `key fields…, aggregate` of this stage: its rows would not line
    /// up with this stage's columns.
    fn restore(&mut self, s: &StageState) -> Result<()> {
        let mut cur = snap::Cursor::new(s.bytes());
        if cur.u8()? != STATE_TAG {
            return Err(EspError::Snapshot(format!(
                "smooth stage '{}': state blob predates pane state (a window of raw tuples, \
                 snapshot format 1) and cannot be restored by this version",
                self.name
            )));
        }
        if cur.u8()? != self.mode.tag() {
            return Err(EspError::Snapshot(format!(
                "smooth stage '{}' snapshot was taken under a different mode",
                self.name
            )));
        }
        let schema = match cur.u8()? {
            0 => None,
            _ => Some(snap::decode_schema(&mut cur)?),
        };
        if let Some(schema) = &schema {
            let got: Vec<&str> = schema.fields().iter().map(|f| f.name.as_str()).collect();
            let field = self.output_field();
            let mut want: Vec<&str> = self.key_fields.iter().map(String::as_str).collect();
            want.push(&field.name);
            if got != want {
                return Err(EspError::Snapshot(format!(
                    "smooth stage '{}' snapshot has output fields ({}) but the stage emits ({})",
                    self.name,
                    got.join(", "),
                    want.join(", ")
                )));
            }
        }
        self.out_schema = schema;
        match &mut self.mode {
            SmoothMode::CountByKey(panes) => panes.restore_from(&mut cur)?,
            SmoothMode::WindowedMean(panes) => panes.restore_from(&mut cur)?,
            SmoothMode::EventPresence(_, panes) => panes.restore_from(&mut cur)?,
            SmoothMode::Ewma { state, order, .. } => {
                state.clear();
                order.clear();
                for _ in 0..cur.u32()? {
                    let vals = snap::decode_values(&mut cur)?;
                    let est = cur.f64()?;
                    let last = Ts::from_millis(cur.u64()?);
                    let key: Vec<ValueKey> = vals.iter().map(Value::group_key).collect();
                    state.insert(key.clone(), (vals, est, last));
                    order.push(key);
                }
            }
        }
        cur.finish()
    }
}

impl SmoothStage {
    fn process_ewma(&mut self, epoch: Ts, input: Vec<Tuple>) -> Result<Payload> {
        let expiry = self.granule.window();
        // Output schema from the first tuple ever seen.
        if let (None, Some(sample)) = (&self.out_schema, input.first()) {
            let schema = output_schema(&self.key_fields, &self.output_field(), sample.schema())?;
            self.out_schema = Some(schema);
        }
        let (key_fields, value_field) = (&self.key_fields, self.value_field.as_deref());
        let SmoothMode::Ewma {
            alpha,
            state,
            order,
        } = &mut self.mode
        else {
            unreachable!("process_ewma only for Ewma mode")
        };
        for t in &input {
            let Some(x) = value_field.and_then(|f| t.get(f)).and_then(Value::as_f64) else {
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
        let Some(schema) = &self.out_schema else {
            return unfixed(order.is_empty());
        };
        let mut out = Chunk::new(schema);
        for k in order.iter() {
            let (vals, est, _) = &state[k];
            let mut row = vals.clone();
            row.push(Value::Float(*est));
            out.push_row_owned(epoch, row)?;
        }
        Ok(Payload::from(vec![out]))
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

    /// A blob whose output schema was fixed under other key fields is
    /// refused, naming both field lists, rather than restored into rows
    /// that no longer line up with their columns.
    #[test]
    fn checkpoint_under_other_key_fields_is_rejected() {
        let g = TimeDelta::from_secs(5);
        let mut s = SmoothStage::count_by_key("s", g, ["tag_id"]);
        s.process_rows(Ts::ZERO, vec![rfid(Ts::ZERO, "a")]).unwrap();
        let blob = s.state().unwrap().unwrap();
        let mut other = SmoothStage::count_by_key("s", g, ["receptor_id", "tag_id"]);
        match other.restore(&blob) {
            Err(EspError::Snapshot(m)) => {
                assert!(m.contains("(tag_id, count)"), "{m}");
                assert!(m.contains("(receptor_id, tag_id, count)"), "{m}");
            }
            other => panic!("expected a snapshot error, got {other:?}"),
        }
        // A mean over another value field names its column differently.
        let mut m = SmoothStage::windowed_mean("s", g, ["receptor_id"], "temp");
        m.process_rows(Ts::ZERO, vec![temp(Ts::ZERO, 1, 20.0)])
            .unwrap();
        let blob = m.state().unwrap().unwrap();
        let mut hum = SmoothStage::windowed_mean("s", g, ["receptor_id"], "hum");
        assert!(matches!(hum.restore(&blob), Err(EspError::Snapshot(_))));
        // The same configuration still restores.
        let mut same = SmoothStage::windowed_mean("s", g, ["receptor_id"], "temp");
        same.restore(&blob).unwrap();
    }

    fn golden_schema() -> Arc<Schema> {
        esp_types::registry::intern(
            &Schema::builder()
                .field("tag", DataType::Str)
                .field("id", DataType::Int)
                .field("fkey", DataType::Float)
                .field("v", DataType::Float)
                .field("state", DataType::Str)
                .build()
                .unwrap(),
        )
    }

    /// Epoch `k`'s arrivals: tags that come and go, a float key whose
    /// first arrival alternates between `-0.0` and `0.0` (and NaNs of two
    /// signs), NULL keys and values, and `ON`/`OFF` events.
    fn golden_input(k: u64) -> (Ts, Vec<Tuple>) {
        let epoch = Ts::from_millis(k * 1_000);
        let tags = ["a", "b", "c", "d", "e"];
        let fkeys = [-0.0, 0.0, f64::NAN, -f64::NAN, 1.5];
        let rows = (0..(3 + k % 4))
            .map(|i| {
                let tag = (k + i) % 6;
                let v = if (k + i) % 5 == 3 {
                    Value::Null
                } else {
                    Value::Float(k as f64 * 0.75 - i as f64 * 1.25)
                };
                Tuple::new(
                    golden_schema(),
                    epoch,
                    vec![
                        tags.get(tag as usize).map_or(Value::Null, Value::str),
                        Value::Int(((k * 3 + i) % 4) as i64),
                        Value::Float(fkeys[((k + 2 * i) % 5) as usize]),
                        v,
                        Value::str(if (k * i + k).is_multiple_of(3) {
                            "ON"
                        } else {
                            "OFF"
                        }),
                    ],
                )
                .unwrap()
            })
            .collect();
        (epoch, rows)
    }

    type MakeSmooth = fn() -> SmoothStage;

    /// The pane modes, each over a 3 s window of 1 s epochs.
    fn pane_modes() -> Vec<(&'static str, MakeSmooth)> {
        vec![
            ("count", || {
                SmoothStage::count_by_key("smooth", TimeDelta::from_secs(3), ["tag", "fkey"])
            }),
            ("mean", || {
                SmoothStage::windowed_mean("smooth", TimeDelta::from_secs(3), ["id", "tag"], "v")
            }),
            ("presence", || {
                SmoothStage::event_presence(
                    "smooth",
                    TimeDelta::from_secs(3),
                    ["id", "tag"],
                    "state",
                    "ON",
                    2,
                )
            }),
        ]
    }

    /// Feed epochs `ks` as rows; one rendered line per epoch, floats by
    /// bit pattern.
    fn drive_golden(s: &mut SmoothStage, ks: std::ops::Range<u64>) -> Vec<String> {
        let render = |v: &Value| match v {
            Value::Float(f) => format!("f{:016x}", f.to_bits()),
            other => format!("{other:?}"),
        };
        ks.map(|k| {
            let (epoch, rows) = golden_input(k);
            let out = s.process(epoch, Payload::from(rows)).unwrap().into_rows();
            let cells = out.iter().map(|t| {
                let vals: Vec<String> = t.values().iter().map(render).collect();
                format!("{}:[{}]", t.ts().as_millis(), vals.join(","))
            });
            std::iter::once(k.to_string())
                .chain(cells)
                .collect::<Vec<_>>()
                .join(" ")
        })
        .collect()
    }

    fn golden_path(mode: &str) -> std::path::PathBuf {
        std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("tests/golden")
            .join(format!("smooth_{mode}.txt"))
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

    /// A mode's fixture: its state after epochs 0..7 in hex, then its
    /// output for epochs 0..14. The fixtures were captured from the pane
    /// store that keyed each pane by `Vec<ValueKey>`, before panes were
    /// keyed by dictionary ids; regenerate with `ESP_GOLDEN_REGEN=1` only
    /// deliberately.
    fn golden_transcript(make: MakeSmooth) -> String {
        let mut s = make();
        let mut lines = drive_golden(&mut s, 0..7);
        lines.insert(0, hex(s.state().unwrap().unwrap().bytes()));
        lines.extend(drive_golden(&mut s, 7..14));
        lines.join("\n") + "\n"
    }

    #[test]
    fn pane_modes_match_pinned_state_and_output() {
        for (mode, make) in pane_modes() {
            let got = golden_transcript(make);
            if std::env::var("ESP_GOLDEN_REGEN").is_ok() {
                std::fs::write(golden_path(mode), &got).unwrap();
                continue;
            }
            let expected = std::fs::read_to_string(golden_path(mode)).unwrap();
            assert_eq!(got, expected, "{mode}");
        }
    }

    fn ewma() -> SmoothStage {
        SmoothStage::ewma("smooth", TimeDelta::from_secs(3), ["tag", "fkey"], "v", 0.3).unwrap()
    }

    /// EWMA keeps per-key estimates, not panes; its fixture pins the
    /// estimates and the emitted rows (float and NULL keys included) the
    /// same way.
    #[test]
    fn ewma_matches_pinned_state_and_output() {
        let got = golden_transcript(ewma);
        if std::env::var("ESP_GOLDEN_REGEN").is_ok() {
            std::fs::write(golden_path("ewma"), &got).unwrap();
            return;
        }
        let expected = std::fs::read_to_string(golden_path("ewma")).unwrap();
        assert_eq!(got, expected);
    }

    /// Restoring the pinned state and continuing reproduces the
    /// uninterrupted run.
    #[test]
    fn pinned_state_continues_like_uninterrupted() {
        for (mode, make) in pane_modes() {
            let mut uninterrupted = make();
            let expected = drive_golden(&mut uninterrupted, 0..14);
            let fixture = std::fs::read_to_string(golden_path(mode)).unwrap();
            let pinned = StageState(unhex(fixture.lines().next().unwrap()));
            let mut restored = make();
            restored.restore(&pinned).unwrap();
            assert_eq!(drive_golden(&mut restored, 7..14), expected[7..], "{mode}");
        }
    }
}
