//! Columnar batches: interned-schema chunks of typed column vectors.
//!
//! `Batch = Vec<Tuple>` pays one `Arc<Schema>` bump plus one `Arc<[Value]>`
//! allocation per row. A [`Chunk`] amortizes both: one interned schema per
//! batch and one column per field ([`ColumnVec`]). The timestamp column
//! rides alongside as a plain `Vec<Ts>`.
//!
//! A typed column is a [`Packed`] vector of one [`Packable`] element type
//! (`bool`, `i64`, `f64`, `Arc<str>` or [`Ts`]) with a null bitmap
//! ([`NullMask`]) instead of per-slot `Value::Null` enum tags. Every column
//! operation is written once on `Packed<T>`; `ColumnVec` names the five
//! instantiations and dispatches to them.
//!
//! A string column also has a **coded** form, [`ColumnVec::Coded`]: a
//! `Packed<u32>` of codes into one shared, append-only [`StrTable`],
//! which keeps each string once with its content hash. The gateway writes
//! received strings this way, so a reading allocates nothing and a keyed
//! operator hashes a code by a table read and compares codes as integers.
//! Every read of a row as a [`Value`] (`get`, [`Chunk::to_tuples`],
//! [`Chunk::into_tuples`]) decodes, so value semantics are those of the
//! plain [`ColumnVec::Str`] form; a pushed value has no code and turns a
//! coded column back into `Str` first.
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

use crate::{DataType, EspError, Result, Schema, StrTable, Ts, Tuple, Value};

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
            return self.resize_valid(self.len - n);
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
            return self.resize_valid(self.len + other.len);
        }
        for i in 0..other.len {
            self.push(other.get(i));
        }
    }

    /// Insert one row's validity at row `i` (clamped to the end). A valid
    /// row into an all-valid mask just grows it; only a mask with set bits,
    /// or a `NULL` row, pays the per-row rebuild.
    fn insert(&mut self, i: usize, is_null: bool) {
        if i >= self.len {
            return self.push(is_null);
        }
        if !is_null && !self.any() {
            return self.resize_valid(self.len + 1);
        }
        let mut next = NullMask::new();
        (0..i).for_each(|j| next.push(self.get(j)));
        next.push(is_null);
        (i..self.len).for_each(|j| next.push(self.get(j)));
        *self = next;
    }

    /// Track `len` rows, keeping exactly the words that cover them (so
    /// `get` and `push` stay in bounds). Only for masks without `NULL`s:
    /// every row stays valid.
    fn resize_valid(&mut self, len: usize) {
        self.len = len;
        self.bits.resize(len.div_ceil(64), 0);
    }

    /// Keep only the rows whose `keep` flag is set (`kept` of them; one
    /// flag per tracked row). An all-valid mask just shrinks; only a mask
    /// with set bits pays the per-row rebuild.
    fn retain(&mut self, keep: &[bool], kept: usize) {
        if !self.any() {
            return self.resize_valid(kept);
        }
        let mut next = NullMask::new();
        for (i, k) in keep.iter().enumerate() {
            if *k {
                next.push(self.get(i));
            }
        }
        *self = next;
    }

    /// Move the rows flagged in `take` (one flag per row; `taken` flags
    /// set) out into a new mask, in order; the rest stay, compacted.
    fn extract(&mut self, take: &[bool], taken: usize) -> NullMask {
        if !self.any() {
            self.resize_valid(self.len - taken);
            let mut out = NullMask::new();
            out.resize_valid(taken);
            return out;
        }
        let (mut out, mut kept) = (NullMask::new(), NullMask::new());
        for (i, t) in take.iter().enumerate() {
            match t {
                true => out.push(self.get(i)),
                false => kept.push(self.get(i)),
            }
        }
        *self = kept;
        out
    }
}

/// Move the rows flagged in `take` (one flag per row; `taken` flags set)
/// out of `data` into a new vector, in order; the rest stay, compacted in
/// place.
fn extract_rows<T>(data: &mut Vec<T>, take: &[bool], taken: usize) -> Vec<T> {
    let mut flags = take.iter();
    let mut out = Vec::with_capacity(taken);
    out.extend(data.extract_if(.., |_| flags.next().copied().unwrap_or(false)));
    out
}

/// Compact `data` in place to the rows whose `keep` flag is set (one flag
/// per row).
fn retain_rows<T>(data: &mut Vec<T>, keep: &[bool]) {
    let mut flags = keep.iter();
    data.retain(|_| flags.next().copied().unwrap_or(false));
}

/// An element type a [`Packed`] column stores unboxed: the payload of one
/// [`Value`] variant, which `Into<Value>` wraps it back into.
pub trait Packable: Clone + Into<Value> {
    /// The placeholder behind a `NULL` slot (the null bitmap is
    /// authoritative; the placeholder is never read).
    fn placeholder() -> Self;

    /// The payload of a non-`NULL` value, or the value itself when it is
    /// of another variant (the column then promotes).
    fn unpack(v: Value) -> std::result::Result<Self, Value>;
}

macro_rules! packable {
    ($($t:ty => $variant:ident, $placeholder:expr;)*) => {$(
        impl Packable for $t {
            fn placeholder() -> $t {
                $placeholder
            }

            fn unpack(v: Value) -> std::result::Result<$t, Value> {
                match v {
                    Value::$variant(x) => Ok(x),
                    v => Err(v),
                }
            }
        }
    )*};
}

packable! {
    bool => Bool, false;
    i64 => Int, 0;
    f64 => Float, 0.0;
    Arc<str> => Str, empty_str();
    Ts => Ts, Ts::ZERO;
}

/// A typed column: one packed slot per row plus a validity bitmap.
/// `NULL` rows hold [`Packable::placeholder`]. Every edit that does not
/// fit hands its value back, so the owning [`ColumnVec`] can promote.
#[derive(Debug, Clone)]
pub struct Packed<T> {
    data: Vec<T>,
    nulls: NullMask,
}

/// Row storage and edits: none turns an element into a [`Value`], so any
/// `Clone` element fits.
impl<T: Clone> Packed<T> {
    fn new() -> Packed<T> {
        Packed {
            data: Vec::new(),
            nulls: NullMask::new(),
        }
    }

    /// The packed slots, one per row (`NULL` rows hold the placeholder).
    /// Hot loops (group-key hashing, range filters) borrow them directly
    /// instead of building a [`Value`] per row.
    pub fn data(&self) -> &[T] {
        &self.data
    }

    /// The validity bitmap.
    pub fn nulls(&self) -> &NullMask {
        &self.nulls
    }

    /// Row `i`'s element, or `None` when it is `NULL` or past the end.
    pub fn at(&self, i: usize) -> Option<&T> {
        self.data.get(i).filter(|_| !self.nulls.get(i))
    }

    fn len(&self) -> usize {
        self.data.len()
    }

    fn push_slot(&mut self, x: T, is_null: bool) {
        self.data.push(x);
        self.nulls.push(is_null);
    }

    fn extend(&mut self, other: &Packed<T>) {
        self.data.extend_from_slice(&other.data);
        self.nulls.extend(&other.nulls);
    }

    fn extract(&mut self, take: &[bool], taken: usize) -> Packed<T> {
        Packed {
            data: extract_rows(&mut self.data, take, taken),
            nulls: self.nulls.extract(take, taken),
        }
    }

    fn drain_front(&mut self, n: usize) {
        self.data.drain(..n.min(self.len()));
        self.nulls.drain_front(n);
    }

    fn retain(&mut self, keep: &[bool], kept: usize) {
        retain_rows(&mut self.data, keep);
        self.nulls.retain(keep, kept);
    }
}

/// Reading and writing rows as [`Value`]s.
impl<T: Packable> Packed<T> {
    fn get(&self, i: usize) -> Option<Value> {
        (i < self.len()).then(|| self.at(i).map_or(Value::Null, |x| x.clone().into()))
    }

    /// `v` as a slot and its null flag, or `v` back when it does not fit.
    fn slot(v: Value) -> std::result::Result<(T, bool), Value> {
        match v {
            Value::Null => Ok((T::placeholder(), true)),
            v => T::unpack(v).map(|x| (x, false)),
        }
    }

    fn push(&mut self, v: Value) -> std::result::Result<(), Value> {
        let (x, is_null) = Self::slot(v)?;
        self.push_slot(x, is_null);
        Ok(())
    }

    fn insert(&mut self, i: usize, v: Value) -> std::result::Result<(), Value> {
        let (x, is_null) = Self::slot(v)?;
        self.data.insert(i.min(self.len()), x);
        self.nulls.insert(i, is_null);
        Ok(())
    }

    fn move_into<'a>(self, slots: impl Iterator<Item = &'a mut Value>) {
        let Packed { data, nulls } = self;
        for (i, (x, slot)) in data.into_iter().zip(slots).enumerate() {
            if !nulls.get(i) {
                *slot = x.into();
            }
        }
    }
}

/// A coded column's rows as [`Value`]s.
impl Packed<u32> {
    fn decode(&self, table: &StrTable, i: usize) -> Option<Value> {
        (i < self.len()).then(|| {
            self.at(i)
                .map_or(Value::Null, |c| table.str(*c).clone().into())
        })
    }

    /// The column as plain strings.
    fn decoded(&self, table: &StrTable) -> Packed<Arc<str>> {
        Packed {
            data: (self.data.iter().enumerate())
                .map(|(i, c)| match self.nulls.get(i) {
                    true => empty_str(),
                    false => Arc::clone(table.str(*c)),
                })
                .collect(),
            nulls: self.nulls.clone(),
        }
    }
}

/// One value to append to a column: a [`Value`], or a string by its code
/// in a [`StrTable`].
#[derive(Debug, Clone)]
pub enum Cell<'a> {
    /// A value.
    Value(Value),
    /// Entry `code` of a table.
    Code(&'a Arc<StrTable>, u32),
}

impl From<Value> for Cell<'_> {
    fn from(v: Value) -> Self {
        Cell::Value(v)
    }
}

/// One column of a [`Chunk`]: a [`Packed`] vector of one element type,
/// or one of the two escape hatches (verbatim [`Value`]s, physically
/// pruned).
#[derive(Debug, Clone)]
pub enum ColumnVec {
    /// Booleans.
    Bool(Packed<bool>),
    /// 64-bit signed integers.
    Int(Packed<i64>),
    /// 64-bit floats.
    Float(Packed<f64>),
    /// Strings, one `Arc<str>` per row (rows may share one).
    Str(Packed<Arc<str>>),
    /// Strings by code into one shared [`StrTable`]; every read decodes.
    Coded(Arc<StrTable>, Packed<u32>),
    /// Logical timestamps.
    Ts(Packed<Ts>),
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
            DataType::Bool => ColumnVec::Bool(Packed::new()),
            DataType::Int => ColumnVec::Int(Packed::new()),
            DataType::Float => ColumnVec::Float(Packed::new()),
            DataType::Str => ColumnVec::Str(Packed::new()),
            DataType::Ts => ColumnVec::Ts(Packed::new()),
            DataType::Any => ColumnVec::Values(Vec::new()),
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        match self {
            ColumnVec::Bool(p) => p.len(),
            ColumnVec::Int(p) => p.len(),
            ColumnVec::Float(p) => p.len(),
            ColumnVec::Str(p) => p.len(),
            ColumnVec::Coded(_, p) => p.len(),
            ColumnVec::Ts(p) => p.len(),
            ColumnVec::Values(v) => v.len(),
            ColumnVec::Pruned { len } => *len,
        }
    }

    /// True when the column has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The value at row `i`, or `None` past the end. `O(1)`; clones the
    /// slot (an `Arc` bump for strings, coded ones included).
    pub fn get(&self, i: usize) -> Option<Value> {
        match self {
            ColumnVec::Bool(p) => p.get(i),
            ColumnVec::Int(p) => p.get(i),
            ColumnVec::Float(p) => p.get(i),
            ColumnVec::Str(p) => p.get(i),
            ColumnVec::Coded(table, p) => p.decode(table, i),
            ColumnVec::Ts(p) => p.get(i),
            ColumnVec::Values(v) => v.get(i).cloned(),
            ColumnVec::Pruned { len } => (i < *len).then_some(Value::Null),
        }
    }

    /// Whether row `i` is `NULL` (also `true` past the end).
    pub fn is_null(&self, i: usize) -> bool {
        match self {
            ColumnVec::Bool(p) => p.at(i).is_none(),
            ColumnVec::Int(p) => p.at(i).is_none(),
            ColumnVec::Float(p) => p.at(i).is_none(),
            ColumnVec::Str(p) => p.at(i).is_none(),
            ColumnVec::Coded(_, p) => p.at(i).is_none(),
            ColumnVec::Ts(p) => p.at(i).is_none(),
            ColumnVec::Values(v) => v.get(i).is_none_or(Value::is_null),
            ColumnVec::Pruned { .. } => true,
        }
    }

    /// Append a value. A value that does not fit the packed representation
    /// *exactly* promotes the column to [`ColumnVec::Values`] first — the
    /// stored value is always the one read back. A `NULL` keeps a pruned
    /// or coded column as it is; any other value has no code, so a coded
    /// column becomes [`ColumnVec::Str`] first.
    pub fn push(&mut self, v: Value) {
        let rest = match self {
            ColumnVec::Bool(p) => p.push(v),
            ColumnVec::Int(p) => p.push(v),
            ColumnVec::Float(p) => p.push(v),
            ColumnVec::Str(p) => p.push(v),
            ColumnVec::Coded(_, p) if v.is_null() => {
                p.push_slot(0, true);
                Ok(())
            }
            ColumnVec::Coded(..) => return self.decode_to_str().push(v),
            ColumnVec::Ts(p) => p.push(v),
            ColumnVec::Pruned { len } if v.is_null() => {
                *len += 1;
                Ok(())
            }
            ColumnVec::Values(_) | ColumnVec::Pruned { .. } => Err(v),
        };
        if let Err(v) = rest {
            self.promote_to_values().push(v);
        }
    }

    /// Append a cell. A code of this coded column's table is stored as
    /// is, and an empty `Str` column becomes coded to take it; any other
    /// column takes the decoded string ([`ColumnVec::push`]).
    pub fn push_cell(&mut self, cell: Cell<'_>) {
        let (table, code) = match cell {
            Cell::Value(v) => return self.push(v),
            Cell::Code(table, code) => (table, code),
        };
        match self {
            ColumnVec::Coded(t, p) if Arc::ptr_eq(t, table) => p.push_slot(code, false),
            ColumnVec::Str(p) if p.len() == 0 => {
                let mut p = Packed::new();
                p.push_slot(code, false);
                *self = ColumnVec::Coded(Arc::clone(table), p);
            }
            _ => self.push(table.str(code).clone().into()),
        }
    }

    /// The table of a coded column.
    pub fn table(&self) -> Option<&Arc<StrTable>> {
        match self {
            ColumnVec::Coded(table, _) => Some(table),
            _ => None,
        }
    }

    /// The plain strings, after rewriting a coded column as
    /// [`ColumnVec::Str`] (every row decoded).
    fn decode_to_str(&mut self) -> &mut ColumnVec {
        if let ColumnVec::Coded(table, p) = self {
            *self = ColumnVec::Str(p.decoded(table));
        }
        self
    }

    /// Insert `v` at row `i` (clamped to the end; later rows shift). Used
    /// by the window ring for intra-epoch disorder; promotes on
    /// representation mismatch like [`ColumnVec::push`].
    pub fn insert(&mut self, i: usize, v: Value) {
        let rest = match self {
            ColumnVec::Bool(p) => p.insert(i, v),
            ColumnVec::Int(p) => p.insert(i, v),
            ColumnVec::Float(p) => p.insert(i, v),
            ColumnVec::Str(p) => p.insert(i, v),
            ColumnVec::Coded(_, p) if v.is_null() => {
                p.data.insert(i.min(p.len()), 0);
                p.nulls.insert(i, true);
                Ok(())
            }
            ColumnVec::Coded(..) => return self.decode_to_str().insert(i, v),
            ColumnVec::Ts(p) => p.insert(i, v),
            ColumnVec::Pruned { len } if v.is_null() => {
                *len += 1;
                Ok(())
            }
            ColumnVec::Values(_) | ColumnVec::Pruned { .. } => Err(v),
        };
        if let Err(v) = rest {
            let vals = self.promote_to_values();
            vals.insert(i.min(vals.len()), v);
        }
    }

    /// Append every row of `other`. Same-representation columns extend
    /// their packed vectors directly (coded ones when they share a table);
    /// strings of another table, or plain ones, decode the coded side to
    /// [`ColumnVec::Str`]; any other mismatch promotes to
    /// [`ColumnVec::Values`] first (losslessly).
    pub fn extend_from(&mut self, other: &ColumnVec) {
        match (&mut *self, other) {
            (ColumnVec::Bool(p), ColumnVec::Bool(o)) => p.extend(o),
            (ColumnVec::Int(p), ColumnVec::Int(o)) => p.extend(o),
            (ColumnVec::Float(p), ColumnVec::Float(o)) => p.extend(o),
            (ColumnVec::Str(p), ColumnVec::Str(o)) => p.extend(o),
            (ColumnVec::Coded(t, p), ColumnVec::Coded(u, o)) if Arc::ptr_eq(t, u) => p.extend(o),
            (ColumnVec::Str(p), ColumnVec::Coded(u, o)) => p.extend(&o.decoded(u)),
            (ColumnVec::Coded(..), _) => self.decode_to_str().extend_from(other),
            (ColumnVec::Ts(p), ColumnVec::Ts(o)) => p.extend(o),
            (ColumnVec::Pruned { len }, ColumnVec::Pruned { len: more }) => *len += more,
            _ => {
                let rows = (0..other.len()).map(|i| other.get(i).unwrap_or(Value::Null));
                self.promote_to_values().extend(rows);
            }
        }
    }

    /// Move the rows flagged in `take` (one flag per row; `taken` flags
    /// set) out into a new column of the same representation, in order;
    /// the rest stay, compacted in place.
    fn extract(&mut self, take: &[bool], taken: usize) -> ColumnVec {
        match self {
            ColumnVec::Bool(p) => ColumnVec::Bool(p.extract(take, taken)),
            ColumnVec::Int(p) => ColumnVec::Int(p.extract(take, taken)),
            ColumnVec::Float(p) => ColumnVec::Float(p.extract(take, taken)),
            ColumnVec::Str(p) => ColumnVec::Str(p.extract(take, taken)),
            ColumnVec::Coded(t, p) => ColumnVec::Coded(Arc::clone(t), p.extract(take, taken)),
            ColumnVec::Ts(p) => ColumnVec::Ts(p.extract(take, taken)),
            ColumnVec::Values(vals) => ColumnVec::Values(extract_rows(vals, take, taken)),
            ColumnVec::Pruned { len } => {
                *len -= taken;
                ColumnVec::Pruned { len: taken }
            }
        }
    }

    /// Move every row's value into the matching slot of `slots`, in order.
    fn move_into<'a>(self, slots: impl Iterator<Item = &'a mut Value>) {
        match self {
            ColumnVec::Bool(p) => p.move_into(slots),
            ColumnVec::Int(p) => p.move_into(slots),
            ColumnVec::Float(p) => p.move_into(slots),
            ColumnVec::Str(p) => p.move_into(slots),
            ColumnVec::Coded(table, p) => {
                for (i, (c, slot)) in p.data.iter().zip(slots).enumerate() {
                    if !p.nulls.get(i) {
                        *slot = table.str(*c).clone().into();
                    }
                }
            }
            ColumnVec::Ts(p) => p.move_into(slots),
            ColumnVec::Values(vals) => {
                for (v, slot) in vals.into_iter().zip(slots) {
                    *slot = v;
                }
            }
            // Every slot already reads `NULL`.
            ColumnVec::Pruned { .. } => {}
        }
    }

    /// The verbatim values, after rewriting the column as
    /// [`ColumnVec::Values`] (preserving every row) unless it already is.
    fn promote_to_values(&mut self) -> &mut Vec<Value> {
        if !matches!(self, ColumnVec::Values(_)) {
            let vals = (0..self.len())
                .map(|i| self.get(i).unwrap_or(Value::Null))
                .collect();
            *self = ColumnVec::Values(vals);
        }
        match self {
            ColumnVec::Values(vals) => vals,
            _ => unreachable!("the column was just promoted"),
        }
    }

    /// Drop the first `n` rows.
    pub fn drain_front(&mut self, n: usize) {
        match self {
            ColumnVec::Bool(p) => p.drain_front(n),
            ColumnVec::Int(p) => p.drain_front(n),
            ColumnVec::Float(p) => p.drain_front(n),
            ColumnVec::Str(p) => p.drain_front(n),
            ColumnVec::Coded(_, p) => p.drain_front(n),
            ColumnVec::Ts(p) => p.drain_front(n),
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
            ColumnVec::Bool(p) => p.retain(keep, kept),
            ColumnVec::Int(p) => p.retain(keep, kept),
            ColumnVec::Float(p) => p.retain(keep, kept),
            ColumnVec::Str(p) => p.retain(keep, kept),
            ColumnVec::Coded(_, p) => p.retain(keep, kept),
            ColumnVec::Ts(p) => p.retain(keep, kept),
            ColumnVec::Values(v) => retain_rows(v, keep),
            ColumnVec::Pruned { len } => *len = kept,
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
        self.push_row_owned(ts, values.iter().cloned())
    }

    /// Append a row, consuming `values` (any exact-size source: a `Vec`,
    /// or an array on the ingest path so no per-row vector is allocated),
    /// each a [`Value`] or a coded string ([`ColumnVec::push_cell`]).
    pub fn push_row_owned<'a, I>(&mut self, ts: Ts, values: I) -> Result<()>
    where
        I: IntoIterator,
        I::Item: Into<Cell<'a>>,
        I::IntoIter: ExactSizeIterator,
    {
        let values = values.into_iter();
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
            col.push_cell(v.into());
        }
        Ok(())
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

    /// [`Chunk::to_tuples`], consuming the chunk: every value moves out of
    /// its column, so a string costs no reference-count traffic.
    pub fn into_tuples(self) -> Vec<Tuple> {
        let Chunk { schema, ts, cols } = self;
        let width = cols.len();
        // Row-major slots, so each row's values move into its tuple with
        // one allocation.
        let mut flat = vec![Value::Null; ts.len() * width];
        for (c, col) in cols.into_iter().enumerate() {
            col.move_into(flat.iter_mut().skip(c).step_by(width));
        }
        let mut values = flat.into_iter();
        ts.into_iter()
            .map(|ts| {
                Tuple::from_shared(
                    Arc::clone(&schema),
                    ts,
                    values.by_ref().take(width).collect(),
                )
            })
            .collect()
    }

    /// Build a chunk from tuples that all share `schema` structurally.
    pub fn from_tuples(schema: &Arc<Schema>, batch: &[Tuple]) -> Result<Chunk> {
        let mut c = Chunk::with_capacity(schema, batch.len());
        for t in batch {
            if !Arc::ptr_eq(t.schema(), &c.schema) && **t.schema() != *c.schema {
                return Err(EspError::SchemaMismatch(format!(
                    "tuple schema {} does not match chunk schema {}",
                    t.schema(),
                    c.schema
                )));
            }
            c.push_row(t.ts(), t.values())?;
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

    /// Move the rows flagged in `take` (one flag per row) out into a new
    /// chunk in one pass, in order and with this chunk's column
    /// representations; the rest stay, compacted in place. Every value
    /// moves; nothing is cloned.
    pub fn extract(&mut self, take: &[bool]) -> Result<Chunk> {
        if take.len() != self.len() {
            return Err(EspError::SchemaMismatch(format!(
                "extract mask has {} flags but the chunk has {} rows",
                take.len(),
                self.len()
            )));
        }
        let taken = take.iter().filter(|t| **t).count();
        Ok(Chunk {
            schema: Arc::clone(&self.schema),
            ts: extract_rows(&mut self.ts, take, taken),
            cols: self
                .cols
                .iter_mut()
                .map(|c| c.extract(take, taken))
                .collect(),
        })
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

    /// A copy of this chunk with one constant-valued column appended:
    /// [`Chunk::into_appended`] on a clone.
    pub fn with_appended(&self, extended: &Arc<Schema>, value: Value) -> Result<Chunk> {
        self.clone().into_appended(extended, value)
    }

    /// This chunk with one constant-valued column appended under
    /// `extended` (this schema plus one trailing field) — the columnar
    /// analogue of [`Tuple::with_appended`], used by the processor's
    /// `spatial_granule` injector to tag a whole chunk in place, one `Arc`
    /// bump per row instead of one tuple re-allocation per row.
    pub fn into_appended(mut self, extended: &Arc<Schema>, value: Value) -> Result<Chunk> {
        if extended.len() != self.cols.len() + 1 {
            return Err(EspError::SchemaMismatch(format!(
                "extended schema {extended} does not extend {} by one field",
                self.schema
            )));
        }
        self.schema = crate::registry::intern(extended);
        let mut col = ColumnVec::for_type(self.schema.fields()[self.cols.len()].data_type);
        for _ in 0..self.len() {
            col.push(value.clone());
        }
        self.cols.push(col);
        Ok(self)
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
}

impl fmt::Display for Chunk {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Chunk[{} rows x {}]", self.len(), self.schema)
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
            // Schema equality was just established; only a
            // `new_unchecked` row of the wrong arity is refused.
            let _ = c.push_row(t.ts(), t.values());
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
    fn into_appended_matches_with_appended() {
        let s = registry::intern(&schema());
        let mut c = Chunk::new(&s);
        c.push_row(Ts::ZERO, &row(1)).unwrap();
        c.push_row(Ts::from_millis(1), &vec![Value::Null; 4])
            .unwrap();
        let ext = s
            .with_field(crate::Field::new("spatial_granule", DataType::Str))
            .unwrap();
        let copied = c.with_appended(&ext, Value::str("shelf0")).unwrap();
        let moved = c.clone().into_appended(&ext, Value::str("shelf0")).unwrap();
        assert_eq!(moved.to_tuples(), copied.to_tuples());
        assert!(Arc::ptr_eq(moved.schema(), copied.schema()));
        // Wrong target schema is rejected.
        assert!(c.clone().into_appended(&s, Value::Null).is_err());
        // The moved chunk keeps its buffers: no column is copied.
        let ts_buf = c.ts().as_ptr();
        assert_eq!(
            c.into_appended(&ext, Value::Null).unwrap().ts().as_ptr(),
            ts_buf
        );
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

        /// Test string tables: `t` picks one of two, so an extend can meet
        /// codes of another table.
        fn code_of(t: usize, s: &str) -> (Arc<StrTable>, u32) {
            use std::sync::Mutex;
            static TABLES: OnceLock<[Mutex<crate::StrInterner>; 2]> = OnceLock::new();
            let tables = TABLES.get_or_init(Default::default);
            let mut strings = tables[t].lock().unwrap();
            let code = strings.intern(s);
            (Arc::clone(strings.table()), code)
        }

        /// `tuples` as a chunk whose `s` column is coded, its last row
        /// pushed as a plain value when `promote` (which turns the column
        /// back into `Str`).
        fn coded_chunk(s: &Arc<Schema>, tuples: &[Tuple], promote: bool) -> Chunk {
            let mut c = Chunk::new(s);
            for (i, t) in tuples.iter().enumerate() {
                let plain = promote && i + 1 == tuples.len();
                let codes: Vec<_> = (t.values().iter())
                    .map(|v| match v.as_str() {
                        Some(text) if !plain => Some(code_of(0, text)),
                        _ => None,
                    })
                    .collect();
                let cells = t.values().iter().zip(&codes).map(|(v, code)| match code {
                    Some((table, code)) => crate::Cell::Code(table, *code),
                    None => crate::Cell::Value(v.clone()),
                });
                c.push_row_owned(t.ts(), cells.collect::<Vec<_>>()).unwrap();
            }
            c
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

            /// Moving rows out equals copying them out, bit for bit, for
            /// every column representation (packed with NULL slots,
            /// coded strings, coded then promoted to plain ones by a
            /// pushed value, verbatim ANY, physically pruned).
            #[test]
            fn into_tuples_matches_to_tuples(
                rows in proptest::collection::vec(arb_row(), 0..60),
                prune in any::<bool>(),
                code in any::<bool>(),
                promote in any::<bool>(),
            ) {
                let s = prop_schema();
                let tuples: Vec<Tuple> =
                    rows.into_iter().map(|r| build_tuple(&s, r)).collect();
                let mut c = match code {
                    true => coded_chunk(&s, &tuples, promote),
                    false => Chunk::from_tuples(&s, &tuples).unwrap(),
                };
                if prune {
                    c.drop_column(2);
                } else {
                    prop_assert_eq!(&c.to_tuples(), &tuples);
                }
                let copied = c.to_tuples();
                let moved = c.into_tuples();
                prop_assert_eq!(&moved, &copied);
                for (a, b) in copied.iter().zip(&moved) {
                    prop_assert!(Arc::ptr_eq(a.schema(), b.schema()));
                    for (x, y) in a.values().iter().zip(b.values()) {
                        if let (Value::Float(x), Value::Float(y)) = (x, y) {
                            prop_assert_eq!(x.to_bits(), y.to_bits());
                        }
                    }
                }
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
            /// without NULLs, verbatim ANY, physically pruned), and
            /// extracting by the same mask takes the filter and leaves its
            /// complement.
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
                let mut left = c.clone();
                let taken = left.extract(&keep).unwrap();
                let skip: Vec<bool> = keep.iter().map(|k| !k).collect();
                prop_assert_eq!(
                    left.to_tuples(),
                    c.clone().filter(&skip).unwrap().to_tuples()
                );
                prop_assert_eq!(taken.to_tuples(), c.clone().filter(&keep).unwrap().to_tuples());
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

            /// Appending the rows in two chunks and joining them with
            /// extend_from_chunk agrees with building one chunk from all
            /// the rows.
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

        /// A column representation: a declared type's, strings coded in
        /// one of two tables, or physically pruned.
        #[derive(Debug, Clone, Copy)]
        enum Repr {
            Typed(DataType),
            Coded(usize),
            Pruned,
        }

        /// Every column representation: the five packed types, `ANY`
        /// (verbatim values), coded strings (two tables) and physically
        /// pruned.
        const REPRS: [Repr; 9] = [
            Repr::Typed(DataType::Bool),
            Repr::Typed(DataType::Int),
            Repr::Typed(DataType::Float),
            Repr::Typed(DataType::Str),
            Repr::Typed(DataType::Ts),
            Repr::Typed(DataType::Any),
            Repr::Coded(0),
            Repr::Coded(1),
            Repr::Pruned,
        ];

        /// A value to write: one that fits the column's representation,
        /// `NULL`, or an arbitrary value (usually a misfit, which
        /// promotes).
        #[derive(Debug, Clone)]
        enum Cell {
            Fit(u64),
            Null,
            Other(Value),
        }

        fn arb_cell() -> impl Strategy<Value = Cell> {
            prop_oneof![
                6 => any::<u64>().prop_map(Cell::Fit),
                2 => Just(Cell::Null),
                1 => arb_value().prop_map(Cell::Other),
            ]
        }

        fn cell_value(repr: Repr, cell: &Cell) -> Value {
            match (cell, repr) {
                (Cell::Null, _) | (Cell::Fit(_), Repr::Pruned) => Value::Null,
                (Cell::Other(v), _) => v.clone(),
                (Cell::Fit(n), Repr::Coded(_)) => Value::str(format!("s{}", n % 50)),
                (Cell::Fit(n), Repr::Typed(dt)) => match dt {
                    DataType::Bool => Value::Bool(n % 2 == 0),
                    DataType::Int | DataType::Any => Value::Int(*n as i64),
                    DataType::Float => Value::Float(f64::from_bits(*n)),
                    DataType::Str => Value::str(format!("s{}", n % 50)),
                    DataType::Ts => Value::Ts(Ts::from_millis(n % 100_000)),
                },
            }
        }

        /// Write `cell` to a column of representation `repr`: a fitting
        /// string goes to a coded column as its code, except every fourth,
        /// which is pushed as a value and turns the column into `Str`.
        fn write(col: &mut ColumnVec, repr: Repr, cell: &Cell) -> Value {
            let v = cell_value(repr, cell);
            match (repr, cell) {
                (Repr::Coded(t), Cell::Fit(n)) if n % 4 != 0 => {
                    let (table, code) = code_of(t, &format!("s{}", n % 50));
                    col.push_cell(crate::Cell::Code(&table, code));
                }
                _ => col.push(v.clone()),
            }
            v
        }

        /// A column of representation `repr` written cell by cell, and
        /// the values it must read back.
        fn column(repr: Repr, cells: &[Cell]) -> (ColumnVec, Vec<Value>) {
            let mut col = match repr {
                Repr::Typed(dt) => ColumnVec::for_type(dt),
                Repr::Coded(t) => ColumnVec::Coded(code_of(t, "s0").0, Packed::new()),
                Repr::Pruned => {
                    let len = cells.len();
                    return (ColumnVec::Pruned { len }, vec![Value::Null; len]);
                }
            };
            let values = cells.iter().map(|c| write(&mut col, repr, c)).collect();
            (col, values)
        }

        /// One column edit; row indices and flag patterns are reduced to
        /// the column's length when applied.
        #[derive(Debug, Clone)]
        enum Edit {
            Push(Cell),
            Insert(usize, Cell),
            DrainFront(usize),
            /// Extend from a column of the same representation (`None`) or
            /// of `REPRS[r]`.
            Extend(Option<usize>, Vec<Cell>),
            Retain(Vec<bool>),
            Extract(Vec<bool>),
        }

        fn arb_edit() -> impl Strategy<Value = Edit> {
            let flags = || proptest::collection::vec(any::<bool>(), 1..8);
            prop_oneof![
                4 => arb_cell().prop_map(Edit::Push),
                3 => (0usize..64, arb_cell()).prop_map(|(i, c)| Edit::Insert(i, c)),
                1 => (0usize..12).prop_map(Edit::DrainFront),
                2 => (
                    prop_oneof![Just(None), (0..REPRS.len()).prop_map(Some)],
                    proptest::collection::vec(arb_cell(), 0..12),
                )
                    .prop_map(|(r, cells)| Edit::Extend(r, cells)),
                1 => flags().prop_map(Edit::Retain),
                1 => flags().prop_map(Edit::Extract),
            ]
        }

        /// Flag `i` of a pattern repeated over `len` rows, and how many
        /// are set.
        fn flags_over(pattern: &[bool], len: usize) -> (Vec<bool>, usize) {
            let flags: Vec<bool> = (0..len).map(|i| pattern[i % pattern.len()]).collect();
            let set = flags.iter().filter(|f| **f).count();
            (flags, set)
        }

        /// Equal variants and payloads, floats compared by bits.
        fn same(a: &Value, b: &Value) -> bool {
            match (a, b) {
                (Value::Float(x), Value::Float(y)) => x.to_bits() == y.to_bits(),
                _ => std::mem::discriminant(a) == std::mem::discriminant(b) && a == b,
            }
        }

        fn check(col: &ColumnVec, model: &[Value]) {
            prop_assert_eq!(col.len(), model.len());
            for (i, want) in model.iter().enumerate() {
                let got = col.get(i);
                prop_assert!(
                    got.as_ref().is_some_and(|g| same(g, want)),
                    "row {}: got {:?}, want {:?}",
                    i,
                    got,
                    want
                );
                prop_assert_eq!(col.is_null(i), want.is_null());
            }
            prop_assert!(col.get(model.len()).is_none());
            prop_assert!(col.is_null(model.len()));
        }

        proptest! {
            /// Random edit sequences on a column of every representation
            /// read back exactly what the same edits do to a plain value
            /// list: fitting values (codes, for a coded column), NULLs and
            /// promoting misfits (a pushed value, for a coded column),
            /// inserts anywhere, front drains, extends from same and other
            /// representations (coded in the same or another table),
            /// retains and extracts.
            #[test]
            fn column_edits_match_a_value_list(
                repr in 0..REPRS.len(),
                start in proptest::collection::vec(arb_cell(), 0..12),
                edits in proptest::collection::vec(arb_edit(), 0..40),
            ) {
                let repr = REPRS[repr];
                let (mut col, mut model) = column(repr, &start);
                check(&col, &model);
                for edit in edits {
                    match edit {
                        Edit::Push(cell) => model.push(write(&mut col, repr, &cell)),
                        Edit::Insert(i, cell) => {
                            let (i, v) = (i % (model.len() + 1), cell_value(repr, &cell));
                            col.insert(i, v.clone());
                            model.insert(i, v);
                        }
                        Edit::DrainFront(n) => {
                            col.drain_front(n);
                            model.drain(..n.min(model.len()));
                        }
                        Edit::Extend(other, cells) => {
                            let (src, values) = column(other.map_or(repr, |r| REPRS[r]), &cells);
                            check(&src, &values);
                            col.extend_from(&src);
                            model.extend(values);
                        }
                        Edit::Retain(pattern) => {
                            let (keep, kept) = flags_over(&pattern, model.len());
                            col.retain(&keep, kept);
                            let mut flags = keep.iter();
                            model.retain(|_| *flags.next().unwrap());
                        }
                        Edit::Extract(pattern) => {
                            let (take, taken) = flags_over(&pattern, model.len());
                            let out = col.extract(&take, taken);
                            let (mut moved, mut left) = (Vec::new(), Vec::new());
                            for (v, t) in model.drain(..).zip(&take) {
                                match t {
                                    true => moved.push(v),
                                    false => left.push(v),
                                }
                            }
                            check(&out, &moved);
                            model = left;
                        }
                    }
                    check(&col, &model);
                }
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
