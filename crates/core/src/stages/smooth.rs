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
//! so the stage keeps no tuples: each mode owns an
//! [`esp_stream::panes::PaneStore`] of per-epoch partials (count →
//! `i64`; mean → [`RunningStats`]; presence → match count + the key values
//! of the last match). An epoch folds only its own arrivals into the pane
//! of that epoch, slides the store, and emits from the panes merged oldest
//! → newest: the rows a rescan of the buffered window would emit, in the
//! same order (first-seen key order, key values of the oldest live
//! arrival, counts and presence exact, means equal to rounding), for
//! O(arrivals + panes × keys) work instead of O(window rows).
//!
//! Input is folded where it lies: each arriving chunk is read through its
//! columns, with key and value positions resolved once per input schema.
//! Runs of equal keys are found on packed `Int` / `Str` key columns, and
//! each run's packed `Float` / `Int` values are pushed into one partial,
//! with the null bitmap consulted only when it has a bit set. Any other
//! column (float, bool or `ANY` keys, string values, promoted or pruned
//! columns) is read slot by slot through `ColumnVec::get` and grouped by
//! `Value::group_key`. The output is written column by column from the
//! merged panes ([`Chunk::from_columns`]); EWMA alone reads rows.
//!
//! The checkpoint is the partials (see [`Stage::state`] below), tagged so
//! that a pre-pane blob of raw window tuples is refused, not misread.

use std::collections::HashMap;
use std::sync::Arc;

use esp_stream::panes::{PaneMut, PaneStore, Partial};
use esp_stream::stats::RunningStats;
use esp_stream::{Payload, StageState};
use esp_types::{
    snap, Chunk, ColumnVec, DataType, EspError, Field, NullMask, Result, Schema, Ts, Tuple, Value,
    ValueKey,
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
    CountByKey(PaneStore<i64>),
    WindowedMean(PaneStore<RunningStats>),
    EventPresence {
        on_value: Value,
        min_events: usize,
        panes: PaneStore<Presence>,
    },
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
            SmoothMode::EventPresence { .. } => 2,
            SmoothMode::Ewma { .. } => 3,
        }
    }

    /// Fold one chunk into the pane of `epoch`.
    fn fold(&mut self, epoch: Ts, seg: &ChunkSegment<'_>) {
        match self {
            SmoothMode::CountByKey(panes) => fold_count(seg, panes.pane_mut(epoch)),
            SmoothMode::WindowedMean(panes) => fold_mean(seg, panes.pane_mut(epoch)),
            SmoothMode::EventPresence {
                on_value, panes, ..
            } => fold_presence(seg, on_value, panes.pane_mut(epoch)),
            SmoothMode::Ewma { .. } => unreachable!("EWMA keeps no panes"),
        }
    }
}

/// Where the stage's key and value fields sit in one input schema.
struct Layout {
    schema: Arc<Schema>,
    /// Key field positions, or the first key field the schema lacks
    /// (reported only if a row actually has to be keyed).
    keys: std::result::Result<Vec<usize>, String>,
    value: Option<usize>,
}

impl Layout {
    /// The key and value positions a fold over this schema reads, or
    /// `None` when the stage aggregates a value field this schema lacks
    /// (such rows contribute nothing, whatever their keys).
    fn columns(&self, wants_value: bool) -> Result<Option<(&[usize], Option<usize>)>> {
        if wants_value && self.value.is_none() {
            return Ok(None);
        }
        match &self.keys {
            Ok(keys) => Ok(Some((keys, self.value))),
            Err(missing) => Err(EspError::UnknownField(missing.clone())),
        }
    }
}

/// A packed column and its null bitmap — `None` when no row is NULL, so
/// the per-row test disappears for clean columns.
type Packed<'a, T> = (&'a [T], Option<&'a NullMask>);

fn packed<'a, T>((data, nulls): (&'a [T], &'a NullMask)) -> Packed<'a, T> {
    (data, nulls.any().then_some(nulls))
}

fn is_null(nulls: Option<&NullMask>, row: usize) -> bool {
    nulls.is_some_and(|n| n.get(row))
}

enum KeyCol<'a> {
    Int(Packed<'a, i64>),
    Str(Packed<'a, Arc<str>>),
    /// Any other column, read slot by slot.
    Other(&'a ColumnVec),
}

enum ValueCol<'a> {
    Float(Packed<'a, f64>),
    Int(Packed<'a, i64>),
    /// Any other column, read slot by slot.
    Other(&'a ColumnVec),
    /// The schema has no value field: nothing is numeric, nothing matches.
    Absent,
}

/// One chunk of an epoch's input, its key and value columns read by
/// position.
struct ChunkSegment<'a> {
    len: usize,
    keys: Vec<KeyCol<'a>>,
    value: ValueCol<'a>,
}

impl<'a> ChunkSegment<'a> {
    fn new(chunk: &'a Chunk, keys: &[usize], value: Option<usize>) -> Result<ChunkSegment<'a>> {
        let col = |c: usize| {
            chunk
                .col(c)
                .ok_or_else(|| EspError::Stage(format!("smooth: {chunk} has no column {c}")))
        };
        let keys = keys
            .iter()
            .map(|&c| {
                let col = col(c)?;
                Ok(match (col.int_data(), col.str_data()) {
                    (Some(d), _) => KeyCol::Int(packed(d)),
                    (_, Some(d)) => KeyCol::Str(packed(d)),
                    _ => KeyCol::Other(col),
                })
            })
            .collect::<Result<Vec<_>>>()?;
        let value = match value {
            None => ValueCol::Absent,
            Some(c) => {
                let col = col(c)?;
                match (col.float_data(), col.int_data()) {
                    (Some(d), _) => ValueCol::Float(packed(d)),
                    (_, Some(d)) => ValueCol::Int(packed(d)),
                    _ => ValueCol::Other(col),
                }
            }
        };
        Ok(ChunkSegment {
            len: chunk.len(),
            keys,
            value,
        })
    }

    /// Whether rows `a` and `b` carry group-equal keys.
    fn same_key(&self, a: usize, b: usize) -> bool {
        self.keys.iter().all(|col| match col {
            KeyCol::Int((data, nulls)) => match (is_null(*nulls, a), is_null(*nulls, b)) {
                (false, false) => data[a] == data[b],
                (na, nb) => na == nb,
            },
            KeyCol::Str((data, nulls)) => match (is_null(*nulls, a), is_null(*nulls, b)) {
                (false, false) => Arc::ptr_eq(&data[a], &data[b]) || data[a] == data[b],
                (na, nb) => na == nb,
            },
            // `Value` equality is `Value::group_key` equality.
            KeyCol::Other(col) => col.get(a) == col.get(b),
        })
    }

    /// Replace `out` with the key values of `row`.
    fn key_values(&self, row: usize, out: &mut Vec<Value>) {
        out.clear();
        out.extend(self.keys.iter().map(|col| match col {
            KeyCol::Int((_, nulls)) | KeyCol::Str((_, nulls)) if is_null(*nulls, row) => {
                Value::Null
            }
            KeyCol::Int((data, _)) => Value::Int(data[row]),
            KeyCol::Str((data, _)) => Value::Str(Arc::clone(&data[row])),
            KeyCol::Other(col) => col.get(row).unwrap_or(Value::Null),
        }));
    }

    /// The value field as a number; `None` when NULL, non-numeric or
    /// absent from the schema.
    fn num(&self, row: usize) -> Option<f64> {
        match &self.value {
            ValueCol::Float((data, nulls)) => (!is_null(*nulls, row)).then(|| data[row]),
            ValueCol::Int((data, nulls)) => (!is_null(*nulls, row)).then(|| data[row] as f64),
            ValueCol::Other(col) => col.get(row)?.as_f64(),
            ValueCol::Absent => None,
        }
    }

    /// Whether the value field SQL-equals `on`.
    fn value_is(&self, row: usize, on: &Value) -> bool {
        match &self.value {
            ValueCol::Float((data, nulls)) => {
                !is_null(*nulls, row) && Value::Float(data[row]).sql_eq(on)
            }
            ValueCol::Int((data, nulls)) => {
                !is_null(*nulls, row) && Value::Int(data[row]).sql_eq(on)
            }
            ValueCol::Other(col) => col.get(row).is_some_and(|v| v.sql_eq(on)),
            ValueCol::Absent => false,
        }
    }

    /// Push every numeric value of rows `[start, end)` into `stats`, in
    /// row order.
    fn push_nums(&self, start: usize, end: usize, stats: &mut RunningStats) {
        match &self.value {
            // The kernel: a clean float column is one slice walk.
            ValueCol::Float((data, None)) => {
                for &x in &data[start..end] {
                    stats.push(x);
                }
            }
            _ => {
                for x in (start..end).filter_map(|row| self.num(row)) {
                    stats.push(x);
                }
            }
        }
    }
}

/// Call `f(start, end)` for each maximal run `[start, end)` of rows with
/// group-equal keys.
fn for_each_key_run(seg: &ChunkSegment<'_>, mut f: impl FnMut(usize, usize)) {
    let mut start = 0;
    for row in 1..=seg.len {
        if row == seg.len || !seg.same_key(start, row) {
            f(start, row);
            start = row;
        }
    }
}

fn fold_count(seg: &ChunkSegment<'_>, mut pane: PaneMut<'_, i64>) {
    let mut key = Vec::new();
    for_each_key_run(seg, |start, end| {
        seg.key_values(start, &mut key);
        *pane.upsert(&key) += (end - start) as i64;
    });
}

fn fold_mean(seg: &ChunkSegment<'_>, mut pane: PaneMut<'_, RunningStats>) {
    let mut key = Vec::new();
    for_each_key_run(seg, |start, end| {
        // NULL / non-numeric samples are skipped, and a key none of whose
        // samples is numeric is never listed.
        let Some(first) = (start..end).find(|&row| seg.num(row).is_some()) else {
            return;
        };
        seg.key_values(first, &mut key);
        seg.push_nums(first, end, pane.upsert(&key));
    });
}

fn fold_presence(seg: &ChunkSegment<'_>, on_value: &Value, mut pane: PaneMut<'_, Presence>) {
    let mut matched = (0..seg.len).filter(|&row| seg.value_is(row, on_value));
    let Some(mut last) = matched.next() else {
        return;
    };
    let mut matches = 1;
    for row in matched {
        matches += 1;
        last = row;
    }
    // One group for the whole stream: the key fields only label the event.
    let presence = pane.upsert(&[]);
    presence.matches += matches;
    seg.key_values(last, &mut presence.last);
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
    /// One entry per distinct input schema met so far.
    layouts: Vec<Layout>,
}

impl SmoothStage {
    fn with_mode<S: Into<String>>(
        name: impl Into<String>,
        granule: TemporalGranule,
        key_fields: impl IntoIterator<Item = S>,
        value_field: Option<String>,
        mode: SmoothMode,
    ) -> SmoothStage {
        SmoothStage {
            name: name.into(),
            granule,
            key_fields: key_fields.into_iter().map(Into::into).collect(),
            value_field,
            mode,
            out_schema: None,
            layouts: Vec::new(),
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
        let mode = SmoothMode::CountByKey(PaneStore::new(granule.window()));
        SmoothStage::with_mode(name, granule, key_fields, None, mode)
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
        let mode = SmoothMode::WindowedMean(PaneStore::new(granule.window()));
        SmoothStage::with_mode(name, granule, key_fields, Some(value_field.into()), mode)
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
        let mode = SmoothMode::EventPresence {
            on_value: on_value.into(),
            min_events,
            panes: PaneStore::new(granule.window()),
        };
        SmoothStage::with_mode(name, granule, key_fields, Some(value_field.into()), mode)
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
            mode,
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
            SmoothMode::EventPresence { .. } => Field::new(value.unwrap_or("value"), DataType::Any),
            SmoothMode::WindowedMean(_) | SmoothMode::Ewma { .. } => {
                Field::new(value.unwrap_or("value"), DataType::Float)
            }
        }
    }

    /// Fix the output schema on first use: the key fields as `input`
    /// declares them, plus [`SmoothStage::output_field`].
    fn fix_output_schema(&mut self, input: &Schema) -> Result<()> {
        if self.out_schema.is_some() {
            return Ok(());
        }
        let mut fields = Vec::with_capacity(self.key_fields.len() + 1);
        for k in &self.key_fields {
            let f = input
                .field(k)
                .ok_or_else(|| EspError::UnknownField(format!("smooth key field '{k}'")))?;
            fields.push(f.clone());
        }
        fields.push(self.output_field());
        self.out_schema = Some(Schema::new(fields)?);
        Ok(())
    }

    /// Index into `self.layouts` for `schema`, resolving the key and value
    /// positions the first time the schema is met.
    fn layout_for(&mut self, schema: &Arc<Schema>) -> usize {
        let known = self
            .layouts
            .iter()
            .position(|l| Arc::ptr_eq(&l.schema, schema) || *l.schema == **schema);
        known.unwrap_or_else(|| {
            let keys = self
                .key_fields
                .iter()
                .map(|k| schema.index_of(k).ok_or_else(|| k.clone()))
                .collect();
            let value = self.value_field.as_ref().and_then(|v| schema.index_of(v));
            self.layouts.push(Layout {
                schema: Arc::clone(schema),
                keys,
                value,
            });
            self.layouts.len() - 1
        })
    }

    fn fold_chunk(&mut self, epoch: Ts, chunk: &Chunk) -> Result<()> {
        if chunk.is_empty() {
            return Ok(());
        }
        let layout = self.layout_for(chunk.schema());
        let layout = &self.layouts[layout];
        let Some((keys, value)) = layout.columns(self.value_field.is_some())? else {
            return Ok(());
        };
        self.mode
            .fold(epoch, &ChunkSegment::new(chunk, keys, value)?);
        let schema = Arc::clone(&layout.schema);
        self.fix_output_schema(&schema)
    }

    /// One epoch of a windowed mode: fold the arrivals into the epoch's
    /// pane, slide the window, emit from the merged panes.
    fn process_panes(&mut self, epoch: Ts, input: &Payload) -> Result<Payload> {
        for chunk in input.chunks() {
            self.fold_chunk(epoch, chunk)?;
        }
        let schema = self.out_schema.as_ref();
        match &mut self.mode {
            SmoothMode::Ewma { .. } => unreachable!("handled by process_ewma"),
            SmoothMode::CountByKey(panes) => {
                panes.advance_to(epoch);
                let merged = panes.merged()?;
                let rows = merged.iter().map(|(key, n)| Ok((key, Value::Int(*n))));
                emit(schema, epoch, rows)
            }
            SmoothMode::WindowedMean(panes) => {
                panes.advance_to(epoch);
                let merged = panes.merged()?;
                let rows = merged.iter().map(|(key, stats)| {
                    let mean = stats
                        .mean()
                        .ok_or_else(|| EspError::Stage("smooth: empty stats bucket".into()))?;
                    Ok((key, Value::Float(mean)))
                });
                emit(schema, epoch, rows)
            }
            SmoothMode::EventPresence {
                on_value,
                min_events,
                panes,
            } => {
                panes.advance_to(epoch);
                // `min_events` may be 0 with nothing matching: no event.
                let merged = panes.merged()?;
                let rows = merged
                    .iter()
                    .filter(|(_, p)| p.matches > 0 && p.matches >= *min_events as u64)
                    .map(|(_, p)| Ok((p.last.as_slice(), on_value.clone())));
                emit(schema, epoch, rows)
            }
        }
    }
}

/// The epoch's output chunk under `schema`: one row per `(key values,
/// aggregate)`, stamped at `epoch`, written column by column.
fn emit<'k>(
    schema: Option<&Arc<Schema>>,
    epoch: Ts,
    rows: impl Iterator<Item = Result<(&'k [Value], Value)>>,
) -> Result<Payload> {
    let mut rows = rows.peekable();
    let Some(schema) = schema else {
        if rows.peek().is_none() {
            return Ok(Payload::empty());
        }
        return Err(EspError::Stage(
            "smooth: panes hold keys but no output schema was fixed".into(),
        ));
    };
    let mut cols: Vec<ColumnVec> = schema
        .fields()
        .iter()
        .map(|f| ColumnVec::for_type(f.data_type))
        .collect();
    let mut n = 0;
    for row in rows {
        let (key, aggregate) = row?;
        for (col, v) in cols.iter_mut().zip(key.iter().cloned().chain([aggregate])) {
            col.push(v);
        }
        n += 1;
    }
    Ok(Payload::from(vec![Chunk::from_columns(
        schema,
        vec![epoch; n],
        cols,
    )?]))
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
    /// pane store ([`PaneStore::encode_into`]) or EWMA's per-key
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
            SmoothMode::EventPresence { panes, .. } => panes.encode_into(&mut out),
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
        self.out_schema = match cur.u8()? {
            0 => None,
            _ => Some(snap::decode_schema(&mut cur)?),
        };
        match &mut self.mode {
            SmoothMode::CountByKey(panes) => panes.restore_from(&mut cur)?,
            SmoothMode::WindowedMean(panes) => panes.restore_from(&mut cur)?,
            SmoothMode::EventPresence { panes, .. } => panes.restore_from(&mut cur)?,
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
        if let Some(sample) = input.first() {
            self.fix_output_schema(sample.schema())?;
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
        let rows = order.iter().map(|k| {
            let (vals, est, _) = &state[k];
            Ok((vals.as_slice(), Value::Float(*est)))
        });
        emit(self.out_schema.as_ref(), epoch, rows)
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
