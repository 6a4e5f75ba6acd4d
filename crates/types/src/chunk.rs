//! Columnar batches: interned-schema chunks of typed column vectors.
//!
//! `Batch = Vec<Tuple>` pays one `Arc<Schema>` bump plus one `Arc<[Value]>`
//! allocation per row. A [`Chunk`] amortizes both: one interned schema per
//! batch and one typed vector per column ([`ColumnVec`]), with a null
//! bitmap ([`NullMask`]) instead of per-slot `Value::Null` enum tags. The
//! timestamp column rides alongside as a plain `Vec<Ts>`.
//!
//! Conversion is **lossless** by construction: a value that does not fit a
//! column's typed representation exactly (an `Int` stored in a `FLOAT`
//! column via numeric widening, anything at all in an `ANY` column, or a
//! value a `new_unchecked` tuple smuggled past validation) promotes the
//! whole column to the [`ColumnVec::Values`] fallback, which stores the
//! enum verbatim. `Chunk ↔ Vec<Tuple>` round-trips therefore reproduce
//! every value bit-for-bit, including `NaN` payloads and `-0.0`.
//!
//! A [`ColumnVec::Pruned`] variant stores nothing and reads back `NULL`
//! for every row; the query engine's column pruner uses it to drop dead
//! columns *physically* while keeping the schema (and therefore every
//! compiled slot index) intact.
//!
//! Chunks do **not** require the `ts` column to be sorted — receptors may
//! deliver readings out of order and conversion must not reorder them.
//! Sorted-ts maintenance is the window buffer's job (`esp-stream`).

use std::fmt;
use std::sync::{Arc, OnceLock};

use crate::{DataType, EspError, Result, Schema, Ts, Tuple, Value};

/// Shared empty string used as the placeholder behind `NULL` slots of a
/// string column (the null bitmap is authoritative; the placeholder is
/// never observable).
fn empty_str() -> Arc<str> {
    static EMPTY: OnceLock<Arc<str>> = OnceLock::new();
    Arc::clone(EMPTY.get_or_init(|| Arc::from("")))
}

/// A packed validity bitmap: bit `i` set means row `i` is `NULL`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NullMask {
    bits: Vec<u64>,
    len: usize,
}

impl NullMask {
    /// An empty mask.
    pub fn new() -> NullMask {
        NullMask::default()
    }

    /// Number of rows tracked.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no rows are tracked.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Append one row's validity.
    pub fn push(&mut self, is_null: bool) {
        let (word, bit) = (self.len / 64, self.len % 64);
        if word == self.bits.len() {
            self.bits.push(0);
        }
        if is_null {
            self.bits[word] |= 1 << bit;
        }
        self.len += 1;
    }

    /// Whether row `i` is `NULL` (false when out of range).
    pub fn get(&self, i: usize) -> bool {
        i < self.len && self.bits[i / 64] & (1 << (i % 64)) != 0
    }

    /// True when at least one row is `NULL`.
    pub fn any(&self) -> bool {
        self.bits.iter().any(|w| *w != 0)
    }

    /// Drop the first `n` rows (used by the window ring's eviction).
    /// All-valid masks (the common case on clean streams) just shrink;
    /// only a mask with set bits pays the per-row rebuild.
    pub fn drain_front(&mut self, n: usize) {
        let n = n.min(self.len);
        if !self.any() {
            self.len -= n;
            self.bits.truncate(self.len.div_ceil(64));
            return;
        }
        let mut next = NullMask::new();
        for i in n..self.len {
            next.push(self.get(i));
        }
        *self = next;
    }

    /// Append every row of `other`. When `other` has no `NULL`s (the
    /// common case), this is a bulk length extension instead of a per-row
    /// bit loop.
    pub fn extend(&mut self, other: &NullMask) {
        if !other.any() {
            self.len += other.len;
            // Keep the words covering every tracked row, so `get` and
            // `push` stay in bounds.
            self.bits.resize(self.len.div_ceil(64), 0);
            return;
        }
        for i in 0..other.len {
            self.push(other.get(i));
        }
    }

    /// Keep only the rows whose `keep` flag is set (`kept` of them; one
    /// flag per tracked row). An all-valid mask just shrinks; only a mask
    /// with set bits pays the per-row rebuild.
    fn retain(&mut self, keep: &[bool], kept: usize) {
        if !self.any() {
            self.len = kept;
            self.bits.truncate(kept.div_ceil(64));
            return;
        }
        let mut next = NullMask::new();
        for (i, k) in keep.iter().enumerate() {
            if *k {
                next.push(self.get(i));
            }
        }
        *self = next;
    }
}

/// Compact `data` in place to the rows whose `keep` flag is set (one flag
/// per row).
fn retain_rows<T>(data: &mut Vec<T>, keep: &[bool]) {
    let mut flags = keep.iter();
    data.retain(|_| flags.next().copied().unwrap_or(false));
}

/// One column of a [`Chunk`]: a typed vector plus null bitmap, or one of
/// the two escape hatches (verbatim [`Value`]s, physically pruned).
#[derive(Debug, Clone)]
pub enum ColumnVec {
    /// Booleans.
    Bool {
        /// Packed data; `NULL` slots hold `false`.
        data: Vec<bool>,
        /// Validity bitmap.
        nulls: NullMask,
    },
    /// 64-bit signed integers.
    Int {
        /// Packed data; `NULL` slots hold `0`.
        data: Vec<i64>,
        /// Validity bitmap.
        nulls: NullMask,
    },
    /// 64-bit floats.
    Float {
        /// Packed data; `NULL` slots hold `0.0`.
        data: Vec<f64>,
        /// Validity bitmap.
        nulls: NullMask,
    },
    /// Interned strings.
    Str {
        /// Packed data; `NULL` slots hold a shared empty string.
        data: Vec<Arc<str>>,
        /// Validity bitmap.
        nulls: NullMask,
    },
    /// Logical timestamps.
    TsCol {
        /// Packed data; `NULL` slots hold `Ts::ZERO`.
        data: Vec<Ts>,
        /// Validity bitmap.
        nulls: NullMask,
    },
    /// Fallback: values stored verbatim. Used for `ANY` columns and for
    /// any column where a pushed value did not fit the typed
    /// representation exactly (losslessness beats packing).
    Values(Vec<Value>),
    /// Physically dropped column: no storage, every read is `NULL`. The
    /// schema keeps the field so slot indices stay valid.
    Pruned {
        /// Number of rows the column logically spans.
        len: usize,
    },
}

impl ColumnVec {
    /// An empty column with the packed representation for `dt`.
    pub fn for_type(dt: DataType) -> ColumnVec {
        match dt {
            DataType::Bool => ColumnVec::Bool {
                data: Vec::new(),
                nulls: NullMask::new(),
            },
            DataType::Int => ColumnVec::Int {
                data: Vec::new(),
                nulls: NullMask::new(),
            },
            DataType::Float => ColumnVec::Float {
                data: Vec::new(),
                nulls: NullMask::new(),
            },
            DataType::Str => ColumnVec::Str {
                data: Vec::new(),
                nulls: NullMask::new(),
            },
            DataType::Ts => ColumnVec::TsCol {
                data: Vec::new(),
                nulls: NullMask::new(),
            },
            DataType::Any => ColumnVec::Values(Vec::new()),
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        match self {
            ColumnVec::Bool { data, .. } => data.len(),
            ColumnVec::Int { data, .. } => data.len(),
            ColumnVec::Float { data, .. } => data.len(),
            ColumnVec::Str { data, .. } => data.len(),
            ColumnVec::TsCol { data, .. } => data.len(),
            ColumnVec::Values(v) => v.len(),
            ColumnVec::Pruned { len } => *len,
        }
    }

    /// True when the column has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The value at row `i`, or `None` past the end. `O(1)`; clones the
    /// slot (an `Arc` bump for strings).
    pub fn get(&self, i: usize) -> Option<Value> {
        if i >= self.len() {
            return None;
        }
        Some(match self {
            ColumnVec::Bool { data, nulls } => {
                if nulls.get(i) {
                    Value::Null
                } else {
                    Value::Bool(data[i])
                }
            }
            ColumnVec::Int { data, nulls } => {
                if nulls.get(i) {
                    Value::Null
                } else {
                    Value::Int(data[i])
                }
            }
            ColumnVec::Float { data, nulls } => {
                if nulls.get(i) {
                    Value::Null
                } else {
                    Value::Float(data[i])
                }
            }
            ColumnVec::Str { data, nulls } => {
                if nulls.get(i) {
                    Value::Null
                } else {
                    Value::Str(Arc::clone(&data[i]))
                }
            }
            ColumnVec::TsCol { data, nulls } => {
                if nulls.get(i) {
                    Value::Null
                } else {
                    Value::Ts(data[i])
                }
            }
            ColumnVec::Values(v) => v[i].clone(),
            ColumnVec::Pruned { .. } => Value::Null,
        })
    }

    /// The packed string data and its null mask, when this column stores
    /// strings. Hot loops (group-key hashing) borrow the slice directly
    /// instead of cloning an `Arc` per row through [`ColumnVec::get`].
    pub fn str_data(&self) -> Option<(&[Arc<str>], &NullMask)> {
        match self {
            ColumnVec::Str { data, nulls } => Some((data, nulls)),
            _ => None,
        }
    }

    /// The packed integer data and its null mask, when this column stores
    /// integers.
    pub fn int_data(&self) -> Option<(&[i64], &NullMask)> {
        match self {
            ColumnVec::Int { data, nulls } => Some((data, nulls)),
            _ => None,
        }
    }

    /// The packed float data and its null mask, when this column stores
    /// floats.
    pub fn float_data(&self) -> Option<(&[f64], &NullMask)> {
        match self {
            ColumnVec::Float { data, nulls } => Some((data, nulls)),
            _ => None,
        }
    }

    /// Whether row `i` is `NULL` (also `true` past the end).
    pub fn is_null(&self, i: usize) -> bool {
        match self {
            ColumnVec::Bool { nulls, .. }
            | ColumnVec::Int { nulls, .. }
            | ColumnVec::Float { nulls, .. }
            | ColumnVec::Str { nulls, .. }
            | ColumnVec::TsCol { nulls, .. } => i >= self.len() || nulls.get(i),
            ColumnVec::Values(v) => v.get(i).is_none_or(Value::is_null),
            ColumnVec::Pruned { .. } => true,
        }
    }

    /// Append a value. A value that does not fit the packed representation
    /// *exactly* promotes the column to [`ColumnVec::Values`] first — the
    /// stored value is always the one read back.
    pub fn push(&mut self, v: Value) {
        match (&mut *self, &v) {
            (ColumnVec::Bool { data, nulls }, Value::Bool(b)) => {
                data.push(*b);
                nulls.push(false);
                return;
            }
            (ColumnVec::Bool { data, nulls }, Value::Null) => {
                data.push(false);
                nulls.push(true);
                return;
            }
            (ColumnVec::Int { data, nulls }, Value::Int(i)) => {
                data.push(*i);
                nulls.push(false);
                return;
            }
            (ColumnVec::Int { data, nulls }, Value::Null) => {
                data.push(0);
                nulls.push(true);
                return;
            }
            (ColumnVec::Float { data, nulls }, Value::Float(f)) => {
                data.push(*f);
                nulls.push(false);
                return;
            }
            (ColumnVec::Float { data, nulls }, Value::Null) => {
                data.push(0.0);
                nulls.push(true);
                return;
            }
            (ColumnVec::Str { data, nulls }, Value::Str(s)) => {
                data.push(Arc::clone(s));
                nulls.push(false);
                return;
            }
            (ColumnVec::Str { data, nulls }, Value::Null) => {
                data.push(empty_str());
                nulls.push(true);
                return;
            }
            (ColumnVec::TsCol { data, nulls }, Value::Ts(t)) => {
                data.push(*t);
                nulls.push(false);
                return;
            }
            (ColumnVec::TsCol { data, nulls }, Value::Null) => {
                data.push(Ts::ZERO);
                nulls.push(true);
                return;
            }
            (ColumnVec::Values(vals), _) => {
                vals.push(v);
                return;
            }
            _ => {}
        }
        // Mismatch (widened Int in a FLOAT column, unchecked-tuple drift,
        // or a push into a pruned column): fall back to verbatim storage.
        self.promote_to_values();
        match self {
            ColumnVec::Values(vals) => vals.push(v),
            _ => unreachable!("promote_to_values yields Values"),
        }
    }

    /// Append every row of `other`. Same-representation columns extend
    /// their packed vectors directly; a representation mismatch promotes
    /// to [`ColumnVec::Values`] first (losslessly).
    pub fn extend_from(&mut self, other: &ColumnVec) {
        match (&mut *self, other) {
            (
                ColumnVec::Bool { data, nulls },
                ColumnVec::Bool {
                    data: od,
                    nulls: on,
                },
            ) => {
                data.extend_from_slice(od);
                nulls.extend(on);
                return;
            }
            (
                ColumnVec::Int { data, nulls },
                ColumnVec::Int {
                    data: od,
                    nulls: on,
                },
            ) => {
                data.extend_from_slice(od);
                nulls.extend(on);
                return;
            }
            (
                ColumnVec::Float { data, nulls },
                ColumnVec::Float {
                    data: od,
                    nulls: on,
                },
            ) => {
                data.extend_from_slice(od);
                nulls.extend(on);
                return;
            }
            (
                ColumnVec::Str { data, nulls },
                ColumnVec::Str {
                    data: od,
                    nulls: on,
                },
            ) => {
                data.extend_from_slice(od);
                nulls.extend(on);
                return;
            }
            (
                ColumnVec::TsCol { data, nulls },
                ColumnVec::TsCol {
                    data: od,
                    nulls: on,
                },
            ) => {
                data.extend_from_slice(od);
                nulls.extend(on);
                return;
            }
            (ColumnVec::Values(vals), other) => {
                for i in 0..other.len() {
                    vals.push(other.get(i).unwrap_or(Value::Null));
                }
                return;
            }
            (ColumnVec::Pruned { len }, ColumnVec::Pruned { len: olen }) => {
                *len += *olen;
                return;
            }
            _ => {}
        }
        self.promote_to_values();
        if let ColumnVec::Values(vals) = self {
            for i in 0..other.len() {
                vals.push(other.get(i).unwrap_or(Value::Null));
            }
        }
    }

    /// Rewrite the column as [`ColumnVec::Values`], preserving every row.
    pub fn promote_to_values(&mut self) {
        if matches!(self, ColumnVec::Values(_)) {
            return;
        }
        let vals: Vec<Value> = (0..self.len())
            .map(|i| self.get(i).unwrap_or(Value::Null))
            .collect();
        *self = ColumnVec::Values(vals);
    }

    /// Drop the first `n` rows.
    pub fn drain_front(&mut self, n: usize) {
        match self {
            ColumnVec::Bool { data, nulls } => {
                data.drain(..n.min(data.len()));
                nulls.drain_front(n);
            }
            ColumnVec::Int { data, nulls } => {
                data.drain(..n.min(data.len()));
                nulls.drain_front(n);
            }
            ColumnVec::Float { data, nulls } => {
                data.drain(..n.min(data.len()));
                nulls.drain_front(n);
            }
            ColumnVec::Str { data, nulls } => {
                data.drain(..n.min(data.len()));
                nulls.drain_front(n);
            }
            ColumnVec::TsCol { data, nulls } => {
                data.drain(..n.min(data.len()));
                nulls.drain_front(n);
            }
            ColumnVec::Values(v) => {
                v.drain(..n.min(v.len()));
            }
            ColumnVec::Pruned { len } => *len = len.saturating_sub(n),
        }
    }

    /// Keep only the rows whose `keep` flag is set (`kept` of them; one
    /// flag per row), preserving order and representation.
    fn retain(&mut self, keep: &[bool], kept: usize) {
        match self {
            ColumnVec::Bool { data, nulls } => {
                retain_rows(data, keep);
                nulls.retain(keep, kept);
            }
            ColumnVec::Int { data, nulls } => {
                retain_rows(data, keep);
                nulls.retain(keep, kept);
            }
            ColumnVec::Float { data, nulls } => {
                retain_rows(data, keep);
                nulls.retain(keep, kept);
            }
            ColumnVec::Str { data, nulls } => {
                retain_rows(data, keep);
                nulls.retain(keep, kept);
            }
            ColumnVec::TsCol { data, nulls } => {
                retain_rows(data, keep);
                nulls.retain(keep, kept);
            }
            ColumnVec::Values(v) => retain_rows(v, keep),
            ColumnVec::Pruned { len } => *len = kept,
        }
    }

    /// Insert `v` at row `i` (shifting later rows). Used by the window
    /// ring for intra-epoch disorder; promotes on representation mismatch
    /// like [`ColumnVec::push`].
    pub fn insert(&mut self, i: usize, v: Value) {
        if i >= self.len() {
            self.push(v);
            return;
        }
        match (&mut *self, &v) {
            (ColumnVec::Values(vals), _) => {
                vals.insert(i, v);
                return;
            }
            (ColumnVec::Pruned { len }, Value::Null) => {
                *len += 1;
                return;
            }
            _ => {}
        }
        // Typed columns: inserting into the bitmap needs a rebuild anyway,
        // so route through the verbatim representation only when the value
        // does not fit; otherwise splice data + rebuild mask.
        let fits = matches!(
            (&*self, &v),
            (ColumnVec::Bool { .. }, Value::Bool(_) | Value::Null)
                | (ColumnVec::Int { .. }, Value::Int(_) | Value::Null)
                | (ColumnVec::Float { .. }, Value::Float(_) | Value::Null)
                | (ColumnVec::Str { .. }, Value::Str(_) | Value::Null)
                | (ColumnVec::TsCol { .. }, Value::Ts(_) | Value::Null)
        );
        if !fits {
            self.promote_to_values();
            if let ColumnVec::Values(vals) = self {
                vals.insert(i, v);
            }
            return;
        }
        let is_null = v.is_null();
        let rebuild = |nulls: &mut NullMask| {
            let old = nulls.clone();
            let mut next = NullMask::new();
            for j in 0..=old.len() {
                match j.cmp(&i) {
                    std::cmp::Ordering::Less => next.push(old.get(j)),
                    std::cmp::Ordering::Equal => {
                        next.push(is_null);
                        if j < old.len() {
                            next.push(old.get(j));
                        }
                    }
                    std::cmp::Ordering::Greater => next.push(old.get(j)),
                }
            }
            *nulls = next;
        };
        match (self, v) {
            (ColumnVec::Bool { data, nulls }, v) => {
                data.insert(i, v.truthy() && !v.is_null());
                rebuild(nulls);
            }
            (ColumnVec::Int { data, nulls }, v) => {
                data.insert(i, v.as_i64().unwrap_or(0));
                rebuild(nulls);
            }
            (ColumnVec::Float { data, nulls }, v) => {
                data.insert(
                    i,
                    match v {
                        Value::Float(f) => f,
                        _ => 0.0,
                    },
                );
                rebuild(nulls);
            }
            (ColumnVec::Str { data, nulls }, v) => {
                data.insert(
                    i,
                    match v {
                        Value::Str(s) => s,
                        _ => empty_str(),
                    },
                );
                rebuild(nulls);
            }
            (ColumnVec::TsCol { data, nulls }, v) => {
                data.insert(i, v.as_ts().unwrap_or(Ts::ZERO));
                rebuild(nulls);
            }
            _ => {}
        }
    }
}

/// A columnar batch: one interned [`Schema`], a `ts` column, and one
/// [`ColumnVec`] per schema field. The schema is interned through
/// [`crate::registry`] at construction, so every chunk of the same layout
/// shares one pointer-stable `Arc<Schema>` and slot-compiled plans
/// validate with a single pointer compare per *chunk* instead of per row.
#[derive(Debug, Clone)]
pub struct Chunk {
    schema: Arc<Schema>,
    ts: Vec<Ts>,
    cols: Vec<ColumnVec>,
}

impl Chunk {
    /// An empty chunk for `schema` (interned).
    pub fn new(schema: &Arc<Schema>) -> Chunk {
        let schema = crate::registry::intern(schema);
        let cols = schema
            .fields()
            .iter()
            .map(|f| ColumnVec::for_type(f.data_type))
            .collect();
        Chunk {
            schema,
            ts: Vec::new(),
            cols,
        }
    }

    /// An empty chunk with row capacity reserved on the `ts` column.
    pub fn with_capacity(schema: &Arc<Schema>, rows: usize) -> Chunk {
        let mut c = Chunk::new(schema);
        c.ts.reserve(rows);
        c
    }

    /// A chunk from finished columns: one per schema field, each as long
    /// as `ts`.
    pub fn from_columns(schema: &Arc<Schema>, ts: Vec<Ts>, cols: Vec<ColumnVec>) -> Result<Chunk> {
        if cols.len() != schema.len() || cols.iter().any(|c| c.len() != ts.len()) {
            return Err(EspError::SchemaMismatch(format!(
                "{} columns of lengths {:?} do not fit schema {schema} over {} rows",
                cols.len(),
                cols.iter().map(ColumnVec::len).collect::<Vec<_>>(),
                ts.len()
            )));
        }
        Ok(Chunk {
            schema: crate::registry::intern(schema),
            ts,
            cols,
        })
    }

    /// The (interned) schema.
    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.ts.len()
    }

    /// True when the chunk has no rows.
    pub fn is_empty(&self) -> bool {
        self.ts.is_empty()
    }

    /// The timestamp column.
    pub fn ts(&self) -> &[Ts] {
        &self.ts
    }

    /// The column at field index `c`.
    pub fn col(&self, c: usize) -> Option<&ColumnVec> {
        self.cols.get(c)
    }

    /// Append a row, cloning `values` (must match the schema's arity;
    /// types that don't fit the packed representation promote the column,
    /// so this never loses information).
    pub fn push_row(&mut self, ts: Ts, values: &[Value]) -> Result<()> {
        if values.len() != self.cols.len() {
            return Err(EspError::SchemaMismatch(format!(
                "row has {} values but chunk schema {} has {} fields",
                values.len(),
                self.schema,
                self.cols.len()
            )));
        }
        self.ts.push(ts);
        for (col, v) in self.cols.iter_mut().zip(values) {
            col.push(v.clone());
        }
        Ok(())
    }

    /// Append a row, consuming `values`.
    pub fn push_row_owned(&mut self, ts: Ts, values: Vec<Value>) -> Result<()> {
        if values.len() != self.cols.len() {
            return Err(EspError::SchemaMismatch(format!(
                "row has {} values but chunk schema {} has {} fields",
                values.len(),
                self.schema,
                self.cols.len()
            )));
        }
        self.ts.push(ts);
        for (col, v) in self.cols.iter_mut().zip(values) {
            col.push(v);
        }
        Ok(())
    }

    /// Append a tuple's row. The tuple's schema must be structurally equal
    /// to the chunk's (pointer equality short-circuits the check).
    pub fn push_tuple(&mut self, t: &Tuple) -> Result<()> {
        if !Arc::ptr_eq(t.schema(), &self.schema) && **t.schema() != *self.schema {
            return Err(EspError::SchemaMismatch(format!(
                "tuple schema {} does not match chunk schema {}",
                t.schema(),
                self.schema
            )));
        }
        self.push_row(t.ts(), t.values())
    }

    /// The value at `(row, col)`, or `None` when either index is out of
    /// range.
    pub fn value_at(&self, row: usize, col: usize) -> Option<Value> {
        if row >= self.len() {
            return None;
        }
        self.cols.get(col).and_then(|c| c.get(row))
    }

    /// All values of row `row` in schema order.
    pub fn row_values(&self, row: usize) -> Option<Vec<Value>> {
        if row >= self.len() {
            return None;
        }
        Some(
            self.cols
                .iter()
                .map(|c| c.get(row).unwrap_or(Value::Null))
                .collect(),
        )
    }

    /// Materialize row `row` as a [`Tuple`] sharing the chunk's interned
    /// schema.
    pub fn tuple_at(&self, row: usize) -> Option<Tuple> {
        let values = self.row_values(row)?;
        Some(Tuple::new_unchecked(
            Arc::clone(&self.schema),
            self.ts[row],
            values,
        ))
    }

    /// Materialize every row (the lossless inverse of
    /// [`Chunk::from_tuples`]).
    pub fn to_tuples(&self) -> Vec<Tuple> {
        (0..self.len()).filter_map(|i| self.tuple_at(i)).collect()
    }

    /// Build a chunk from tuples that all share `schema` structurally.
    pub fn from_tuples(schema: &Arc<Schema>, batch: &[Tuple]) -> Result<Chunk> {
        let mut c = Chunk::with_capacity(schema, batch.len());
        for t in batch {
            c.push_tuple(t)?;
        }
        Ok(c)
    }

    /// Restamp every row at `epoch` (aggregate emission at the epoch
    /// boundary — the columnar analogue of [`Tuple::restamped`]).
    pub fn restamp(&mut self, epoch: Ts) {
        for t in &mut self.ts {
            *t = epoch;
        }
    }

    /// Timestamp of the first row.
    pub fn first_ts(&self) -> Option<Ts> {
        self.ts.first().copied()
    }

    /// Timestamp of the last row.
    pub fn last_ts(&self) -> Option<Ts> {
        self.ts.last().copied()
    }

    /// Drop the first `n` rows from every column (window eviction).
    pub fn drain_front(&mut self, n: usize) {
        let n = n.min(self.len());
        self.ts.drain(..n);
        for col in &mut self.cols {
            col.drain_front(n);
        }
    }

    /// Drop every row, keeping the schema and column representations.
    pub fn clear(&mut self) {
        self.ts.clear();
        for (col, f) in self.cols.iter_mut().zip(self.schema.fields()) {
            match col {
                ColumnVec::Pruned { len } => *len = 0,
                _ => *col = ColumnVec::for_type(f.data_type),
            }
        }
    }

    /// Append every row of `other`, which must be structurally
    /// schema-equal. Same-representation columns extend their packed
    /// vectors directly (the bulk ingest fast path).
    pub fn extend_from_chunk(&mut self, other: &Chunk) -> Result<()> {
        if !Arc::ptr_eq(&self.schema, &other.schema) && *self.schema != *other.schema {
            return Err(EspError::SchemaMismatch(format!(
                "cannot extend chunk of schema {} from chunk of schema {}",
                self.schema, other.schema
            )));
        }
        self.ts.extend_from_slice(&other.ts);
        for (col, ocol) in self.cols.iter_mut().zip(&other.cols) {
            col.extend_from(ocol);
        }
        Ok(())
    }

    /// The mask-filter kernel: this chunk reduced to the rows whose `keep`
    /// flag is set (one flag per row), in order, column representations
    /// unchanged — equal to filtering [`Chunk::to_tuples`] row by row. An
    /// all-`true` mask hands the chunk back untouched; otherwise every
    /// column is compacted in place, one pass per column.
    pub fn filter(mut self, keep: &[bool]) -> Result<Chunk> {
        if keep.len() != self.len() {
            return Err(EspError::SchemaMismatch(format!(
                "filter mask has {} flags but the chunk has {} rows",
                keep.len(),
                self.len()
            )));
        }
        let kept = keep.iter().filter(|k| **k).count();
        if kept < keep.len() {
            retain_rows(&mut self.ts, keep);
            for col in &mut self.cols {
                col.retain(keep, kept);
            }
        }
        Ok(self)
    }

    /// Insert a row at position `i` (shifting later rows) — used by the
    /// window ring to normalize intra-epoch timestamp disorder.
    pub fn insert_row(&mut self, i: usize, ts: Ts, values: &[Value]) -> Result<()> {
        if values.len() != self.cols.len() {
            return Err(EspError::SchemaMismatch(format!(
                "row has {} values but chunk schema {} has {} fields",
                values.len(),
                self.schema,
                self.cols.len()
            )));
        }
        if i >= self.len() {
            return self.push_row(ts, values);
        }
        self.ts.insert(i, ts);
        for (col, v) in self.cols.iter_mut().zip(values) {
            col.insert(i, v.clone());
        }
        Ok(())
    }

    /// A copy of this chunk with one constant-valued column appended under
    /// `extended` (this schema plus one trailing field) — the columnar
    /// analogue of [`Tuple::with_appended`], used by the processor's
    /// `spatial_granule` injector to tag a whole chunk with one `Arc` bump
    /// per row instead of one tuple re-allocation per row.
    pub fn with_appended(&self, extended: &Arc<Schema>, value: Value) -> Result<Chunk> {
        if extended.len() != self.cols.len() + 1 {
            return Err(EspError::SchemaMismatch(format!(
                "extended schema {extended} does not extend {} by one field",
                self.schema
            )));
        }
        let extended = crate::registry::intern(extended);
        let dt = extended.fields()[self.cols.len()].data_type;
        let mut col = ColumnVec::for_type(dt);
        for _ in 0..self.len() {
            col.push(value.clone());
        }
        let mut cols = self.cols.clone();
        cols.push(col);
        Ok(Chunk {
            schema: extended,
            ts: self.ts.clone(),
            cols,
        })
    }

    /// Physically drop column `c`: storage is released and every read of
    /// the column yields `NULL`. The schema keeps the field, so slot
    /// indices and projections are unaffected.
    pub fn drop_column(&mut self, c: usize) {
        let len = self.len();
        if let Some(col) = self.cols.get_mut(c) {
            *col = ColumnVec::Pruned { len };
        }
    }

    /// A borrowed view over the whole chunk.
    pub fn view(&self) -> ChunkView<'_> {
        self.view_range(0, self.len())
    }

    /// A borrowed view over rows `[start, start + len)` (clamped).
    pub fn view_range(&self, start: usize, len: usize) -> ChunkView<'_> {
        let start = start.min(self.len());
        let len = len.min(self.len() - start);
        ChunkView {
            schema: &self.schema,
            ts: &self.ts,
            cols: &self.cols,
            offset: start,
            len,
        }
    }
}

impl fmt::Display for Chunk {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Chunk[{} rows x {}]", self.len(), self.schema)
    }
}

/// A borrowed, `Copy` window onto a [`Chunk`]'s rows — the columnar
/// analogue of a `&[Tuple]` slice. Row indices are view-relative.
#[derive(Debug, Clone, Copy)]
pub struct ChunkView<'a> {
    schema: &'a Arc<Schema>,
    ts: &'a [Ts],
    cols: &'a [ColumnVec],
    offset: usize,
    len: usize,
}

impl<'a> ChunkView<'a> {
    /// The chunk's (interned) schema.
    pub fn schema(&self) -> &'a Arc<Schema> {
        self.schema
    }

    /// Number of rows in view.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the view is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Timestamp of view row `row`.
    pub fn ts_at(&self, row: usize) -> Option<Ts> {
        if row >= self.len {
            return None;
        }
        self.ts.get(self.offset + row).copied()
    }

    /// The value at view row `row`, column `col`.
    pub fn value_at(&self, row: usize, col: usize) -> Option<Value> {
        if row >= self.len {
            return None;
        }
        self.cols.get(col).and_then(|c| c.get(self.offset + row))
    }

    /// Whether `(row, col)` is `NULL` (also `true` out of range).
    pub fn is_null(&self, row: usize, col: usize) -> bool {
        row >= self.len
            || self
                .cols
                .get(col)
                .is_none_or(|c| c.is_null(self.offset + row))
    }

    /// All values of view row `row` in schema order.
    pub fn row_values(&self, row: usize) -> Option<Vec<Value>> {
        if row >= self.len {
            return None;
        }
        Some(
            self.cols
                .iter()
                .map(|c| c.get(self.offset + row).unwrap_or(Value::Null))
                .collect(),
        )
    }

    /// Materialize view row `row` as a [`Tuple`] sharing the interned
    /// schema.
    pub fn tuple_at(&self, row: usize) -> Option<Tuple> {
        let values = self.row_values(row)?;
        let ts = self.ts_at(row)?;
        Some(Tuple::new_unchecked(Arc::clone(self.schema), ts, values))
    }
}

/// Split a row batch into chunks, one per *consecutive run* of
/// structurally equal schemas. Order is preserved exactly; an empty batch
/// yields no chunks. `chunk_batch` followed by flattening each chunk's
/// [`Chunk::to_tuples`] reproduces the input losslessly.
pub fn chunk_batch(batch: &[Tuple]) -> Vec<Chunk> {
    let mut out: Vec<Chunk> = Vec::new();
    for t in batch {
        let extend = out
            .last()
            .is_some_and(|c| Arc::ptr_eq(c.schema(), t.schema()) || **t.schema() == **c.schema());
        if !extend {
            out.push(Chunk::new(t.schema()));
        }
        if let Some(c) = out.last_mut() {
            // Schema equality was just established, so this cannot fail.
            let _ = c.push_tuple(t);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{registry, DataType};

    fn schema() -> Arc<Schema> {
        Schema::builder()
            .field("id", DataType::Int)
            .field("v", DataType::Float)
            .field("tag", DataType::Str)
            .field("ok", DataType::Bool)
            .build()
            .unwrap()
    }

    fn row(i: i64) -> Vec<Value> {
        vec![
            Value::Int(i),
            Value::Float(i as f64 / 2.0),
            Value::str(format!("tag-{i}")),
            Value::Bool(i % 2 == 0),
        ]
    }

    #[test]
    fn schema_is_interned_at_construction() {
        let c = Chunk::new(&schema());
        let canon = registry::intern(&schema());
        assert!(Arc::ptr_eq(c.schema(), &canon));
    }

    #[test]
    fn round_trip_reproduces_tuples() {
        let s = registry::intern(&schema());
        let tuples: Vec<Tuple> = (0..10)
            .map(|i| Tuple::new_unchecked(Arc::clone(&s), Ts::from_millis(i as u64), row(i)))
            .collect();
        let c = Chunk::from_tuples(&s, &tuples).unwrap();
        assert_eq!(c.len(), 10);
        let back = c.to_tuples();
        assert_eq!(back, tuples);
        assert!(Arc::ptr_eq(back[0].schema(), &s));
    }

    #[test]
    fn nulls_round_trip_through_bitmap() {
        let s = schema();
        let mut c = Chunk::new(&s);
        c.push_row(Ts::ZERO, &vec![Value::Null; 4]).unwrap();
        c.push_row(Ts::from_millis(1), &row(7)).unwrap();
        assert_eq!(c.value_at(0, 2), Some(Value::Null));
        assert!(c.col(2).unwrap().is_null(0));
        assert!(!c.col(2).unwrap().is_null(1));
        assert_eq!(c.value_at(1, 0), Some(Value::Int(7)));
    }

    #[test]
    fn widened_int_in_float_column_promotes_losslessly() {
        let s = schema();
        let mut c = Chunk::new(&s);
        let mut r = row(1);
        r[1] = Value::Int(41); // Int where FLOAT declared: admitted via widening.
        c.push_row(Ts::ZERO, &r).unwrap();
        // Read back the *Int*, not a widened float.
        assert_eq!(c.value_at(0, 1), Some(Value::Int(41)));
        assert!(matches!(c.col(1), Some(ColumnVec::Values(_))));
    }

    #[test]
    fn nan_and_negative_zero_round_trip_bitwise() {
        let s = Schema::builder()
            .field("x", DataType::Float)
            .build()
            .unwrap();
        let mut c = Chunk::new(&s);
        c.push_row(Ts::ZERO, &[Value::Float(f64::NAN)]).unwrap();
        c.push_row(Ts::ZERO, &[Value::Float(-0.0)]).unwrap();
        match c.value_at(0, 0) {
            Some(Value::Float(f)) => assert!(f.is_nan()),
            other => panic!("expected NaN, got {other:?}"),
        }
        match c.value_at(1, 0) {
            Some(Value::Float(f)) => assert!(f == 0.0 && f.is_sign_negative()),
            other => panic!("expected -0.0, got {other:?}"),
        }
    }

    #[test]
    fn any_column_stores_values_verbatim() {
        let s = Schema::builder().field("x", DataType::Any).build().unwrap();
        let mut c = Chunk::new(&s);
        c.push_row(Ts::ZERO, &[Value::Bool(true)]).unwrap();
        c.push_row(Ts::ZERO, &[Value::str("mixed")]).unwrap();
        assert_eq!(c.value_at(0, 0), Some(Value::Bool(true)));
        assert_eq!(c.value_at(1, 0), Some(Value::str("mixed")));
    }

    #[test]
    fn pruned_column_reads_null_and_survives_round_trip() {
        let s = registry::intern(&schema());
        let tuples: Vec<Tuple> = (0..3)
            .map(|i| Tuple::new_unchecked(Arc::clone(&s), Ts::from_millis(i as u64), row(i)))
            .collect();
        let mut c = Chunk::from_tuples(&s, &tuples).unwrap();
        c.drop_column(2);
        assert_eq!(c.value_at(1, 2), Some(Value::Null));
        let back = c.to_tuples();
        assert_eq!(back.len(), 3);
        assert_eq!(back[1].value(2), &Value::Null);
        assert_eq!(back[1].value(0), &Value::Int(1));
    }

    #[test]
    fn with_appended_matches_per_tuple_append() {
        let s = registry::intern(&schema());
        let tuples: Vec<Tuple> = (0..4)
            .map(|i| Tuple::new_unchecked(Arc::clone(&s), Ts::from_millis(i as u64), row(i)))
            .collect();
        let c = Chunk::from_tuples(&s, &tuples).unwrap();
        let ext = s
            .with_field(crate::Field::new("spatial_granule", DataType::Str))
            .unwrap();
        let tagged = c.with_appended(&ext, Value::str("shelf0")).unwrap();
        let by_tuple: Vec<Tuple> = tuples
            .iter()
            .map(|t| t.with_appended(&ext, Value::str("shelf0")).unwrap())
            .collect();
        assert_eq!(tagged.to_tuples(), by_tuple);
        assert!(Arc::ptr_eq(tagged.schema(), &registry::intern(&ext)));
        // Wrong target schema is rejected.
        assert!(c.with_appended(&s, Value::Null).is_err());
    }

    #[test]
    fn chunk_batch_splits_on_schema_runs() {
        let a = registry::intern(&schema());
        let b = registry::intern(
            &Schema::builder()
                .field("other", DataType::Int)
                .build()
                .unwrap(),
        );
        let mk_a = |i: i64| Tuple::new_unchecked(Arc::clone(&a), Ts::ZERO, row(i));
        let mk_b = |i: i64| Tuple::new_unchecked(Arc::clone(&b), Ts::ZERO, vec![Value::Int(i)]);
        let batch = vec![mk_a(0), mk_a(1), mk_b(2), mk_a(3)];
        let chunks = chunk_batch(&batch);
        assert_eq!(
            chunks.iter().map(Chunk::len).collect::<Vec<_>>(),
            vec![2, 1, 1]
        );
        let flat: Vec<Tuple> = chunks.iter().flat_map(Chunk::to_tuples).collect();
        assert_eq!(flat, batch);
        assert!(chunk_batch(&[]).is_empty());
    }

    #[test]
    fn mixed_epoch_ts_order_is_preserved() {
        let s = registry::intern(&schema());
        let stamps = [5u64, 1, 9, 3];
        let tuples: Vec<Tuple> = stamps
            .iter()
            .enumerate()
            .map(|(i, ms)| {
                Tuple::new_unchecked(Arc::clone(&s), Ts::from_millis(*ms), row(i as i64))
            })
            .collect();
        let c = Chunk::from_tuples(&s, &tuples).unwrap();
        let got: Vec<u64> = c.ts().iter().map(|t| t.as_millis()).collect();
        assert_eq!(got, stamps);
        assert_eq!(c.to_tuples(), tuples);
    }

    #[test]
    fn view_range_clamps_and_offsets() {
        let s = registry::intern(&schema());
        let tuples: Vec<Tuple> = (0..6)
            .map(|i| Tuple::new_unchecked(Arc::clone(&s), Ts::from_millis(i as u64), row(i)))
            .collect();
        let c = Chunk::from_tuples(&s, &tuples).unwrap();
        let v = c.view_range(2, 3);
        assert_eq!(v.len(), 3);
        assert_eq!(v.value_at(0, 0), Some(Value::Int(2)));
        assert_eq!(v.tuple_at(2).unwrap(), tuples[4]);
        assert!(v.value_at(3, 0).is_none());
        let clamped = c.view_range(5, 10);
        assert_eq!(clamped.len(), 1);
    }

    #[test]
    fn column_insert_keeps_values_and_nulls() {
        let mut col = ColumnVec::for_type(DataType::Int);
        col.push(Value::Int(1));
        col.push(Value::Int(3));
        col.insert(1, Value::Int(2));
        col.insert(1, Value::Null);
        assert_eq!(col.get(0), Some(Value::Int(1)));
        assert_eq!(col.get(1), Some(Value::Null));
        assert_eq!(col.get(2), Some(Value::Int(2)));
        assert_eq!(col.get(3), Some(Value::Int(3)));
        // Insert of a non-fitting value promotes.
        col.insert(0, Value::str("odd"));
        assert_eq!(col.get(0), Some(Value::str("odd")));
        assert_eq!(col.get(4), Some(Value::Int(3)));
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        /// Schema mixing every packed representation plus ANY.
        fn prop_schema() -> Arc<Schema> {
            registry::intern(
                &Schema::builder()
                    .field("i", DataType::Int)
                    .field("f", DataType::Float)
                    .field("s", DataType::Str)
                    .field("b", DataType::Bool)
                    .field("t", DataType::Ts)
                    .field("a", DataType::Any)
                    .build()
                    .unwrap(),
            )
        }

        fn arb_value() -> impl Strategy<Value = Value> {
            prop_oneof![
                Just(Value::Null),
                any::<bool>().prop_map(Value::Bool),
                any::<i64>().prop_map(Value::Int),
                any::<f64>().prop_map(Value::Float),
                Just(Value::Float(f64::NAN)),
                Just(Value::Float(-0.0)),
                (0u64..50).prop_map(|i| Value::str(format!("s{i}"))),
                (0u64..100_000).prop_map(|ms| Value::Ts(Ts::from_millis(ms))),
            ]
        }

        /// One generated row: `(ts, int, float)` + `(str, bool, ts-val,
        /// any)`. Split in two because the vendored proptest only has
        /// tuple strategies up to arity six.
        type RawRow = (
            (u64, Option<i64>, Option<f64>),
            (Option<u64>, Option<bool>, Option<u64>, Value),
        );

        /// A tuple with schema-conforming values in the typed columns and
        /// an arbitrary value in the ANY column. `new_unchecked` mirrors
        /// how operators build rows internally.
        fn arb_row() -> impl Strategy<Value = RawRow> {
            (
                (
                    0u64..10_000,
                    prop_oneof![Just(None), any::<i64>().prop_map(Some)],
                    prop_oneof![
                        Just(None),
                        any::<f64>().prop_map(Some),
                        Just(Some(f64::NAN)),
                        Just(Some(-0.0)),
                    ],
                ),
                (
                    prop_oneof![Just(None), (0u64..20).prop_map(Some)],
                    prop_oneof![Just(None), any::<bool>().prop_map(Some)],
                    prop_oneof![Just(None), (0u64..9_000).prop_map(Some)],
                    arb_value(),
                ),
            )
        }

        fn build_tuple(s: &Arc<Schema>, raw: RawRow) -> Tuple {
            let ((ts, i, f), (st, b, t, a)) = raw;
            Tuple::new_unchecked(
                Arc::clone(s),
                Ts::from_millis(ts),
                vec![
                    i.map_or(Value::Null, Value::Int),
                    f.map_or(Value::Null, Value::Float),
                    st.map_or(Value::Null, |n| Value::str(format!("tag-{n}"))),
                    b.map_or(Value::Null, Value::Bool),
                    t.map_or(Value::Null, |ms| Value::Ts(Ts::from_millis(ms))),
                    a,
                ],
            )
        }

        proptest! {
            /// `Chunk ↔ Vec<Tuple>` is lossless for arbitrary rows:
            /// NULLs, NaN, -0.0, mixed-epoch unsorted timestamps, empty
            /// batches — all reproduced exactly, in order.
            #[test]
            fn chunk_round_trip_is_lossless(
                rows in proptest::collection::vec(arb_row(), 0..60),
            ) {
                let s = prop_schema();
                let tuples: Vec<Tuple> =
                    rows.into_iter().map(|r| build_tuple(&s, r)).collect();
                let c = Chunk::from_tuples(&s, &tuples).unwrap();
                prop_assert_eq!(c.len(), tuples.len());
                let back = c.to_tuples();
                prop_assert_eq!(back.len(), tuples.len());
                for (orig, got) in tuples.iter().zip(&back) {
                    prop_assert_eq!(orig.ts(), got.ts());
                    // PartialEq collapses NaN payloads; compare values
                    // structurally *and* check float bits explicitly.
                    prop_assert_eq!(orig.values(), got.values());
                    for (a, b) in orig.values().iter().zip(got.values()) {
                        if let (Value::Float(x), Value::Float(y)) = (a, b) {
                            prop_assert_eq!(x.to_bits(), y.to_bits());
                        }
                    }
                }
                // Timestamp order preserved verbatim (no sorting).
                let ts: Vec<Ts> = tuples.iter().map(Tuple::ts).collect();
                prop_assert_eq!(c.ts(), &ts[..]);
            }

            /// `chunk_batch` splits arbitrary mixed-schema batches into
            /// runs that flatten back to the input.
            #[test]
            fn chunk_batch_round_trips_mixed_batches(
                rows in proptest::collection::vec((arb_row(), any::<bool>()), 0..40),
            ) {
                let a = prop_schema();
                let b = registry::intern(
                    &Schema::builder().field("x", DataType::Any).build().unwrap(),
                );
                let tuples: Vec<Tuple> = rows
                    .into_iter()
                    .map(|(r, pick_b)| {
                        if pick_b {
                            let t = build_tuple(&a, r);
                            Tuple::new_unchecked(
                                Arc::clone(&b),
                                t.ts(),
                                vec![t.value(5).clone()],
                            )
                        } else {
                            build_tuple(&a, r)
                        }
                    })
                    .collect();
                let chunks = chunk_batch(&tuples);
                let flat: Vec<Tuple> =
                    chunks.iter().flat_map(Chunk::to_tuples).collect();
                prop_assert_eq!(flat, tuples);
            }

            /// The mask-filter kernel equals filtering the materialized
            /// rows, for every column representation (packed with and
            /// without NULLs, verbatim ANY, physically pruned).
            #[test]
            fn filter_matches_filtering_tuples(
                rows in proptest::collection::vec((arb_row(), any::<bool>()), 0..150),
                prune in any::<bool>(),
            ) {
                let s = prop_schema();
                let (tuples, keep): (Vec<Tuple>, Vec<bool>) = rows
                    .into_iter()
                    .map(|(r, k)| (build_tuple(&s, r), k))
                    .unzip();
                let mut c = Chunk::from_tuples(&s, &tuples).unwrap();
                if prune {
                    c.drop_column(2);
                }
                let expected: Vec<Tuple> = c
                    .to_tuples()
                    .into_iter()
                    .zip(&keep)
                    .filter_map(|(t, k)| k.then_some(t))
                    .collect();
                let got = c.filter(&keep).unwrap();
                prop_assert_eq!(got.len(), expected.len());
                for i in 0..s.len() {
                    prop_assert_eq!(got.col(i).unwrap().len(), expected.len());
                }
                let got = got.to_tuples();
                for (e, g) in expected.iter().zip(&got) {
                    prop_assert_eq!(e.ts(), g.ts());
                    prop_assert_eq!(e.values(), g.values());
                    for (a, b) in e.values().iter().zip(g.values()) {
                        if let (Value::Float(x), Value::Float(y)) = (a, b) {
                            prop_assert_eq!(x.to_bits(), y.to_bits());
                        }
                    }
                }
            }

            /// Incremental append (push_tuple) agrees with bulk
            /// construction, and extend_from_chunk agrees with pushing
            /// both halves.
            #[test]
            fn append_and_extend_agree_with_bulk(
                rows in proptest::collection::vec(arb_row(), 0..40),
                split in 0usize..40,
            ) {
                let s = prop_schema();
                let tuples: Vec<Tuple> =
                    rows.into_iter().map(|r| build_tuple(&s, r)).collect();
                let split = split.min(tuples.len());
                let left = Chunk::from_tuples(&s, &tuples[..split]).unwrap();
                let right = Chunk::from_tuples(&s, &tuples[split..]).unwrap();
                let mut joined = left.clone();
                joined.extend_from_chunk(&right).unwrap();
                let bulk = Chunk::from_tuples(&s, &tuples).unwrap();
                prop_assert_eq!(joined.to_tuples(), bulk.to_tuples());
            }
        }
    }

    #[test]
    fn filter_rejects_a_wrong_length_mask_and_passes_all_true_through() {
        let s = registry::intern(&schema());
        let tuples: Vec<Tuple> = (0..5)
            .map(|i| Tuple::new_unchecked(Arc::clone(&s), Ts::from_millis(i as u64), row(i)))
            .collect();
        let c = Chunk::from_tuples(&s, &tuples).unwrap();
        assert!(c.clone().filter(&[true; 4]).is_err());
        assert_eq!(c.clone().filter(&[true; 5]).unwrap().to_tuples(), tuples);
        let kept = c.filter(&[false, true, false, false, true]).unwrap();
        assert_eq!(kept.to_tuples(), vec![tuples[1].clone(), tuples[4].clone()]);
    }

    #[test]
    fn drain_front_drops_rows() {
        let mut col = ColumnVec::for_type(DataType::Str);
        col.push(Value::str("a"));
        col.push(Value::Null);
        col.push(Value::str("c"));
        col.drain_front(2);
        assert_eq!(col.len(), 1);
        assert_eq!(col.get(0), Some(Value::str("c")));
        let mut pruned = ColumnVec::Pruned { len: 3 };
        pruned.drain_front(2);
        assert_eq!(pruned.len(), 1);
    }
}
