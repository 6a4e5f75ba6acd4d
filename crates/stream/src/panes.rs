//! Per-epoch partial aggregates ("panes") for sliding-window operators.
//!
//! A [`WindowBuffer`](crate::WindowBuffer) keeps every tuple of the window
//! and lets the operator rescan them each epoch. When the window slides by
//! exactly one epoch and the aggregate is *mergeable* (count, sum, mean,
//! min/max, "last matching"), the tuples are not needed: a [`PaneStore`]
//! keeps one pane per epoch — `key → partial` over that epoch's arrivals
//! only — and answers the window by merging the live panes. Per-epoch cost
//! is O(arrivals + panes × keys) instead of O(window rows), and the state
//! to checkpoint is the partials, not the tuples.
//!
//! # One keyed fold
//!
//! [`PaneAggregate`] is the windowed-aggregate operator both native Smooth
//! and esp-query's mergeable selects run on. It owns a store, resolves its
//! key and argument columns once per input schema, folds a chunk's rows
//! (all of them, or a caller's selection such as the rows WHERE kept) by
//! finding runs of equal keys on the columns in place — packed `Int`/`Str`
//! slices and coded strings compared directly (a string by its allocation
//! or its code, so finding runs never compares string contents), anything
//! else through [`KeyRef`] — and looks each run's group up once. It
//! slides, merges and writes the merged groups column by column in
//! first-seen order. A caller supplies only its partial, how a run updates
//! it, and how a merged partial becomes the output values that are not
//! key columns.
//!
//! # Key dictionary
//!
//! Each store owns a dictionary that maps a key tuple to a dense `u32` id,
//! and a pane lists `(id, partial)` entries. A lookup hashes the key where
//! it lies — a row of chunk columns read through [`KeyRef`] — and builds
//! no `Value` unless the key is new. Ids are reference-counted by the live
//! panes that list them and freed (then reused) when the last such pane is
//! evicted, so the dictionary follows the keys in the window, not the
//! length of the run.
//!
//! # Coded strings
//!
//! A string key part is hashed by its content hash ([`esp_types::str_hash`])
//! under the store's keyed hasher, so a coded part
//! ([`ColumnVec::Coded`]), whose table computed that hash once when the
//! string was interned, and a plain one of the same string land in one
//! group; a restored store, which holds values, keeps grouping the coded
//! rows that follow. A plain string is hashed once per run of one
//! allocation in a chunk (an injected constant column is hashed once), and
//! two codes of one table compare as integers. A key the dictionary first
//! met coded stays coded, and [`PaneAggregate::emit`] writes it back coded
//! into the output column, so the next keyed operator receives codes.
//!
//! # Invariants
//!
//! * **One pane per epoch**, held in ascending epoch order.
//!   [`PaneStore::pane_mut`] finds the pane of a repeated or earlier epoch
//!   instead of opening a second one.
//! * **Eviction is [`WindowBuffer`](crate::WindowBuffer)'s rule exactly**:
//!   after [`PaneStore::advance_to`]`(now)` every pane satisfies
//!   `epoch >= now - width` (inclusive lower bound, saturating at the
//!   origin), so a zero-width (`NOW`) store keeps only the current epoch.
//!   As in the buffer, a pane *later* than `now` is never evicted.
//! * **Keys group like [`Value::group_key`]**: NULLs together, NaNs
//!   together, `-0.0` with `0.0`, `Int` apart from `Float`.
//! * **First-seen key order**: a pane lists its keys in the order they
//!   first arrived, and [`PaneStore::merged`] visits panes oldest →
//!   newest, so the merged table lists keys exactly as a scan of the
//!   buffered tuples would first meet them, each with the key values of
//!   its oldest live arrival, bit for bit. The dictionary keeps the values
//!   an id was first seen with; a pane whose first arrival of the key
//!   differs from them in bits (`0.0` against `-0.0`, another NaN payload)
//!   keeps its own copy.
//! * **Merge, never subtract**: the window is rebuilt from the live panes
//!   every epoch, into dense accumulators indexed by id. Retracting an
//!   evicted pane from a running total would be O(keys) instead of
//!   O(panes × keys), but float partials do not subtract exactly, so error
//!   would accumulate for as long as the stream runs. Merging a bounded
//!   number of panes cannot drift.
//!
//! # Checkpoint layout
//!
//! [`PaneStore::encode_into`] writes, in [`esp_types::snap`] form:
//!
//! ```text
//! width     u64   configured window width (ms), validated on restore
//! n_panes   u32
//! pane*     epoch u64 (strictly ascending), n_entries u32, entry*
//! entry     n_values u16, value* (key values, snap-encoded), partial
//! ```
//!
//! Ids are not part of it: a restore re-interns the key values. Floats are
//! written by bit pattern, so a restored store continues bit-identically.

use std::collections::hash_map::RandomState;
use std::collections::{HashMap, VecDeque};
use std::hash::{BuildHasher, BuildHasherDefault, Hasher};
use std::ops::Range;
use std::sync::Arc;

use esp_types::{
    snap, str_hash, Cell, Chunk, ColumnVec, EspError, NullMask, Result, Schema, StrTable,
    TimeDelta, Ts, Value,
};

use crate::stats::RunningStats;

/// A mergeable per-key aggregate over one epoch's arrivals.
pub trait Partial: Clone + Default {
    /// Fold the partial of a *newer* pane for the same key into this one.
    /// Fails only where the values cannot be combined (a minimum over
    /// incomparable values).
    fn merge(&mut self, newer: &Self) -> Result<()>;

    /// Append the bit-exact [`esp_types::snap`] form.
    fn encode_into(&self, out: &mut Vec<u8>);

    /// Inverse of [`Partial::encode_into`].
    fn decode(cur: &mut snap::Cursor<'_>) -> Result<Self>;
}

/// Row count.
impl Partial for i64 {
    fn merge(&mut self, newer: &i64) -> Result<()> {
        *self += *newer;
        Ok(())
    }

    fn encode_into(&self, out: &mut Vec<u8>) {
        snap::put_i64(out, *self);
    }

    fn decode(cur: &mut snap::Cursor<'_>) -> Result<i64> {
        cur.i64()
    }
}

/// Mean/variance, combined with the Chan et al. update
/// ([`RunningStats::merge`]).
impl Partial for RunningStats {
    fn merge(&mut self, newer: &RunningStats) -> Result<()> {
        RunningStats::merge(self, newer);
        Ok(())
    }

    fn encode_into(&self, out: &mut Vec<u8>) {
        RunningStats::encode_into(self, out);
    }

    fn decode(cur: &mut snap::Cursor<'_>) -> Result<RunningStats> {
        RunningStats::decode(cur)
    }
}

/// One key value, borrowed from wherever it lies: a [`Value`] or a row of
/// a packed [`ColumnVec`].
#[derive(Debug, Clone, Copy)]
pub enum KeyRef<'a> {
    /// SQL NULL.
    Null,
    /// Boolean.
    Bool(bool),
    /// Integer.
    Int(i64),
    /// Float, compared by [`Value::group_key`]'s normalized bits.
    Float(f64),
    /// String.
    Str(&'a Arc<str>),
    /// String by its code in a table.
    Code(&'a Arc<StrTable>, u32),
    /// Timestamp.
    Ts(Ts),
}

impl<'a> KeyRef<'a> {
    /// The key form of a value.
    fn of(v: &'a Value) -> KeyRef<'a> {
        match v {
            Value::Null => KeyRef::Null,
            Value::Bool(b) => KeyRef::Bool(*b),
            Value::Int(i) => KeyRef::Int(*i),
            Value::Float(f) => KeyRef::Float(*f),
            Value::Str(s) => KeyRef::Str(s),
            Value::Ts(t) => KeyRef::Ts(*t),
        }
    }

    /// Row `row` of a column, read in place (NULL past the end and for a
    /// pruned column, as [`ColumnVec::get`] reads them).
    #[inline]
    pub fn at(col: &'a ColumnVec, row: usize) -> KeyRef<'a> {
        let key = match col {
            ColumnVec::Bool(p) => p.at(row).map(|b| KeyRef::Bool(*b)),
            ColumnVec::Int(p) => p.at(row).map(|i| KeyRef::Int(*i)),
            ColumnVec::Float(p) => p.at(row).map(|f| KeyRef::Float(*f)),
            ColumnVec::Ts(p) => p.at(row).map(|t| KeyRef::Ts(*t)),
            ColumnVec::Str(p) => p.at(row).map(KeyRef::Str),
            ColumnVec::Coded(table, p) => p.at(row).map(|c| KeyRef::Code(table, *c)),
            ColumnVec::Values(values) => values.get(row).map(KeyRef::of),
            ColumnVec::Pruned { .. } => None,
        };
        key.unwrap_or(KeyRef::Null)
    }

    /// The owned value (a string is shared, not copied).
    fn to_value(self) -> Value {
        match self {
            KeyRef::Null => Value::Null,
            KeyRef::Bool(b) => Value::Bool(b),
            KeyRef::Int(i) => Value::Int(i),
            KeyRef::Float(f) => Value::Float(f),
            KeyRef::Str(s) => Value::Str(Arc::clone(s)),
            KeyRef::Code(table, code) => Value::Str(Arc::clone(table.str(code))),
            KeyRef::Ts(t) => Value::Ts(t),
        }
    }

    /// The part as the dictionary keeps it: a code stays a code.
    fn to_part(self) -> KeyPart {
        match self {
            KeyRef::Code(table, code) => KeyPart::Code(Arc::clone(table), code),
            k => KeyPart::Value(k.to_value()),
        }
    }

    /// A string part's text.
    fn text(self) -> Option<&'a str> {
        match self {
            KeyRef::Str(s) => Some(s),
            KeyRef::Code(table, code) => Some(table.str(code)),
            _ => None,
        }
    }

    /// A string part's content hash ([`str_hash`]; the table's, for a
    /// code), else 0.
    fn content_hash(self) -> u64 {
        match self {
            KeyRef::Str(s) => str_hash(s),
            KeyRef::Code(table, code) => table.hash(code),
            _ => 0,
        }
    }

    /// Grouping equality: `Value::group_key` equality, without building
    /// either key. Two codes of one table compare as integers.
    #[inline]
    fn groups(self, other: KeyRef<'_>) -> bool {
        match (self, other) {
            (KeyRef::Null, KeyRef::Null) => true,
            (KeyRef::Bool(a), KeyRef::Bool(b)) => a == b,
            (KeyRef::Int(a), KeyRef::Int(b)) => a == b,
            (KeyRef::Float(a), KeyRef::Float(b)) => float_key(a) == float_key(b),
            (KeyRef::Code(t, a), KeyRef::Code(u, b)) if Arc::ptr_eq(t, u) => a == b,
            (KeyRef::Str(a), KeyRef::Str(b)) if Arc::ptr_eq(a, b) => true,
            (KeyRef::Ts(a), KeyRef::Ts(b)) => a == b,
            (a, b) => a.text().is_some_and(|x| b.text() == Some(x)),
        }
    }

    /// Identity in place: the same integer, float bits, string allocation
    /// or code of one table. It implies grouping equality and never
    /// compares string contents.
    fn is(self, other: KeyRef<'_>) -> bool {
        match (self, other) {
            (KeyRef::Float(a), KeyRef::Float(b)) => a.to_bits() == b.to_bits(),
            (KeyRef::Str(a), KeyRef::Str(b)) => Arc::ptr_eq(a, b),
            (KeyRef::Code(t, a), KeyRef::Code(u, b)) => Arc::ptr_eq(t, u) && a == b,
            (KeyRef::Str(_) | KeyRef::Code(..), _) => false,
            (a, b) => a.groups(b),
        }
    }

    /// Bit identity with a group-equal `part`: only floats can differ.
    fn same_bits(self, part: &KeyPart) -> bool {
        match (self, part) {
            (KeyRef::Float(a), KeyPart::Value(Value::Float(b))) => a.to_bits() == b.to_bits(),
            _ => true,
        }
    }
}

/// One key value as the dictionary keeps it: a value, or a string by its
/// code.
#[derive(Debug, Clone)]
enum KeyPart {
    Value(Value),
    Code(Arc<StrTable>, u32),
}

impl KeyPart {
    fn key_ref(&self) -> KeyRef<'_> {
        match self {
            KeyPart::Value(v) => KeyRef::of(v),
            KeyPart::Code(table, code) => KeyRef::Code(table, *code),
        }
    }

    fn cell(&self) -> Cell<'_> {
        match self {
            KeyPart::Value(v) => Cell::Value(v.clone()),
            KeyPart::Code(table, code) => Cell::Code(table, *code),
        }
    }
}

/// A group's key values, as a merged window lists them.
#[derive(Debug, Clone, Copy)]
pub struct Key<'a>(&'a [KeyPart]);

impl Key<'_> {
    /// The key values (coded strings decoded; a string is shared, not
    /// copied).
    pub fn values(&self) -> Vec<Value> {
        self.0.iter().map(|p| p.key_ref().to_value()).collect()
    }

    /// Key value `i` as a column cell (`NULL` past the end).
    fn cell(&self, i: usize) -> Cell<'_> {
        self.0
            .get(i)
            .map_or(Cell::Value(Value::Null), KeyPart::cell)
    }
}

/// `Value::group_key`'s float normalization: `-0.0` is `0.0`, every NaN
/// is the canonical one.
fn float_key(f: f64) -> u64 {
    let f = if f == 0.0 { 0.0 } else { f };
    let f = if f.is_nan() { f64::NAN } else { f };
    f.to_bits()
}

#[inline]
fn key_parts(key: &[KeyRef<'_>]) -> Box<[KeyPart]> {
    key.iter().map(|k| k.to_part()).collect()
}

/// The key's hash under the dictionary's randomly keyed SipHash, fed the
/// borrowed parts, a string by its content hash (`hashes`, one per part):
/// key values come from readings, i.e. from outside the program, so the
/// hash must stay hard to flood with colliding keys.
///
/// This and the module's other per-row helpers are `#[inline]`: the folds
/// that call them are instantiated in the calling crates, where the calls
/// otherwise stay out of line (`shelf-cql` then spent about 5% more CPU
/// per reading on a 2-core x86-64 host).
#[inline]
fn hash_key(state: &RandomState, key: &[KeyRef<'_>], hashes: &[u64]) -> u64 {
    let mut h = state.build_hasher();
    for (part, str_hash) in key.iter().zip(hashes) {
        match *part {
            KeyRef::Null => h.write_u8(0),
            KeyRef::Bool(b) => {
                h.write_u8(1);
                h.write_u8(u8::from(b));
            }
            KeyRef::Int(x) => {
                h.write_u8(2);
                h.write_i64(x);
            }
            KeyRef::Float(f) => {
                h.write_u8(3);
                h.write_u64(float_key(f));
            }
            KeyRef::Str(_) | KeyRef::Code(..) => {
                h.write_u8(4);
                h.write_u64(*str_hash);
            }
            KeyRef::Ts(t) => {
                h.write_u8(5);
                h.write_u64(t.as_millis());
            }
        }
    }
    h.finish()
}

/// The dictionary's index is keyed by a finished hash already.
#[derive(Default)]
struct HashIsKey(u64);

impl Hasher for HashIsKey {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _: &[u8]) {
        unreachable!("the dictionary index hashes u64s only")
    }

    fn write_u64(&mut self, h: u64) {
        self.0 = h;
    }
}

/// End of an id chain.
const NO_ID: u32 = u32::MAX;

#[derive(Debug, Clone)]
struct DictEntry {
    /// The key values the id was first seen with (empty once freed).
    values: Box<[KeyPart]>,
    hash: u64,
    /// The next id whose key has the same hash.
    next: u32,
    /// Live panes listing this id.
    refs: u32,
    /// `(serial, slot)`: where the id sits in the pane with that serial,
    /// valid for the store's currently marked pane.
    mark: (u64, u32),
}

/// Key tuple → dense id, under `Value::group_key` equivalence.
#[derive(Debug, Clone, Default)]
struct KeyDict {
    entries: Vec<DictEntry>,
    /// Hash → first id of the chain of keys with that hash.
    heads: HashMap<u64, u32, BuildHasherDefault<HashIsKey>>,
    free: Vec<u32>,
    hasher: RandomState,
}

impl KeyDict {
    /// The id of `key` (with its parts' string `hashes`), interning it if
    /// new; `true` when it was.
    #[inline]
    fn intern(&mut self, key: &[KeyRef<'_>], hashes: &[u64]) -> (u32, bool) {
        let hash = hash_key(&self.hasher, key, hashes);
        let head = self.heads.get(&hash).copied().unwrap_or(NO_ID);
        let mut id = head;
        while id != NO_ID {
            let e = &self.entries[id as usize];
            if e.values.len() == key.len()
                && e.values.iter().zip(key).all(|(v, k)| k.groups(v.key_ref()))
            {
                return (id, false);
            }
            id = e.next;
        }
        let entry = DictEntry {
            values: key_parts(key),
            hash,
            next: head,
            refs: 0,
            mark: (0, 0),
        };
        let id = match self.free.pop() {
            Some(id) => {
                self.entries[id as usize] = entry;
                id
            }
            None => {
                self.entries.push(entry);
                (self.entries.len() - 1) as u32
            }
        };
        self.heads.insert(hash, id);
        (id, true)
    }

    /// Drop one pane's reference to `id`; the last one frees the id.
    fn release(&mut self, id: u32) {
        let e = &mut self.entries[id as usize];
        e.refs -= 1;
        if e.refs > 0 {
            return;
        }
        let (hash, next) = (e.hash, e.next);
        e.values = Box::default();
        e.mark = (0, 0);
        match self.heads.get(&hash).copied() {
            Some(head) if head == id => {
                if next == NO_ID {
                    self.heads.remove(&hash);
                } else {
                    self.heads.insert(hash, next);
                }
            }
            Some(mut prev) => {
                while self.entries[prev as usize].next != id {
                    prev = self.entries[prev as usize].next;
                }
                self.entries[prev as usize].next = next;
            }
            None => unreachable!("a live id is always chained"),
        }
        self.free.push(id);
    }
}

#[derive(Debug, Clone)]
struct Entry<P> {
    id: u32,
    /// The pane's own key values when its first arrival differs in bits
    /// from the dictionary's.
    own: Option<Box<[KeyPart]>>,
    partial: P,
}

/// One epoch's first-seen-ordered `(id, partial)` entries.
#[derive(Debug, Clone)]
struct PaneTable<P> {
    /// Identifies the pane in the dictionary's slot marks; never reused.
    serial: u64,
    entries: Vec<Entry<P>>,
}

/// The pane of one epoch, opened for folding by [`PaneStore::pane_mut`].
pub struct PaneMut<'a, P> {
    dict: &'a mut KeyDict,
    table: &'a mut PaneTable<P>,
}

impl<P: Partial> PaneMut<'_, P> {
    /// The partial of the group `values` belongs to: what a restore
    /// re-interns. Folds read keys in place through
    /// [`PaneMut::upsert_refs`].
    fn upsert(&mut self, values: &[Value]) -> &mut P {
        let key: Vec<KeyRef<'_>> = values.iter().map(KeyRef::of).collect();
        self.upsert_refs(&key)
    }

    /// The partial of the group `key` belongs to. A new group starts from
    /// `P::default()`, is listed after every group seen before it, and
    /// remembers the key's values as its representative; nothing is cloned
    /// unless the key is new to the store or to this pane.
    pub fn upsert_refs(&mut self, key: &[KeyRef<'_>]) -> &mut P {
        let hashes: Vec<u64> = key.iter().map(|k| k.content_hash()).collect();
        self.upsert_hashed(key, &hashes)
    }

    /// [`PaneMut::upsert_refs`], given each part's [`KeyRef::content_hash`].
    #[inline]
    fn upsert_hashed(&mut self, key: &[KeyRef<'_>], hashes: &[u64]) -> &mut P {
        let (id, fresh) = self.dict.intern(key, hashes);
        let e = &mut self.dict.entries[id as usize];
        let slot = if e.mark.0 == self.table.serial {
            e.mark.1 as usize
        } else {
            let same = fresh || e.values.iter().zip(key).all(|(v, k)| k.same_bits(v));
            let slot = self.table.entries.len();
            e.refs += 1;
            e.mark = (self.table.serial, slot as u32);
            self.table.entries.push(Entry {
                id,
                own: (!same).then(|| key_parts(key)),
                partial: P::default(),
            });
            slot
        };
        &mut self.table.entries[slot].partial
    }
}

/// A ring of per-epoch panes covering a sliding window, with the key
/// dictionary they share.
#[derive(Debug, Clone)]
pub struct PaneStore<P> {
    width: TimeDelta,
    /// `(epoch, pane)` in strictly ascending epoch order.
    panes: VecDeque<(Ts, PaneTable<P>)>,
    dict: KeyDict,
    /// The last pane serial handed out.
    serial: u64,
    /// The pane whose slots the dictionary's marks describe.
    marked: u64,
    /// [`PaneStore::merged`]'s dense accumulators, indexed by id, with the
    /// merge generation that last wrote each. Not state: rebuilt on every
    /// call, kept so their allocations are reused.
    acc: Vec<P>,
    stamp: Vec<u64>,
    generation: u64,
    /// The merge's keys in first-seen order: `(id, pane, entry)` of each
    /// key's oldest live arrival.
    order: Vec<(u32, u32, u32)>,
}

impl<P: Partial> PaneStore<P> {
    /// An empty store for a window of the given width.
    /// `TimeDelta::ZERO` is a `NOW` window.
    pub fn new(width: TimeDelta) -> PaneStore<P> {
        PaneStore {
            width,
            panes: VecDeque::new(),
            dict: KeyDict::default(),
            serial: 0,
            marked: 0,
            acc: Vec::new(),
            stamp: Vec::new(),
            generation: 0,
            order: Vec::new(),
        }
    }

    /// The configured window width.
    pub fn width(&self) -> TimeDelta {
        self.width
    }

    /// The pane of `epoch`, opened (in epoch order) if this is the first
    /// time the epoch is seen. O(1) for the usual newest-epoch case.
    pub fn pane_mut(&mut self, epoch: Ts) -> PaneMut<'_, P> {
        let pos = if self.panes.back().is_none_or(|(e, _)| *e < epoch) {
            let pane = self.open();
            self.panes.push_back((epoch, pane));
            self.panes.len() - 1
        } else {
            let pos = self.panes.partition_point(|(e, _)| *e < epoch);
            if self.panes[pos].0 != epoch {
                let pane = self.open();
                self.panes.insert(pos, (epoch, pane));
            }
            pos
        };
        let table = &mut self.panes[pos].1;
        if table.serial != self.marked {
            // Folding moves to another pane: point the marks at it.
            for (slot, e) in table.entries.iter().enumerate() {
                self.dict.entries[e.id as usize].mark = (table.serial, slot as u32);
            }
            self.marked = table.serial;
        }
        PaneMut {
            dict: &mut self.dict,
            table,
        }
    }

    fn open(&mut self) -> PaneTable<P> {
        self.serial += 1;
        PaneTable {
            serial: self.serial,
            entries: Vec::new(),
        }
    }

    /// Slide the window forward to `now`, dropping every pane older than
    /// `now - width`.
    pub fn advance_to(&mut self, now: Ts) {
        let cutoff = now.window_start(self.width);
        while self.panes.front().is_some_and(|(e, _)| *e < cutoff) {
            if let Some((_, pane)) = self.panes.pop_front() {
                for e in &pane.entries {
                    self.dict.release(e.id);
                }
            }
        }
    }

    /// The window's table: every live pane merged oldest → newest.
    pub fn merged(&mut self) -> Result<Merged<'_, P>> {
        self.generation += 1;
        let generation = self.generation;
        let ids = self.dict.entries.len();
        if self.acc.len() < ids {
            self.acc.resize_with(ids, P::default);
            self.stamp.resize(ids, 0);
        }
        self.order.clear();
        for (p, (_, pane)) in self.panes.iter().enumerate() {
            for (i, e) in pane.entries.iter().enumerate() {
                let id = e.id as usize;
                if self.stamp[id] == generation {
                    self.acc[id].merge(&e.partial)?;
                } else {
                    self.stamp[id] = generation;
                    self.acc[id].clone_from(&e.partial);
                    self.order.push((e.id, p as u32, i as u32));
                }
            }
        }
        Ok(Merged { store: self })
    }

    /// The key values an entry emits: its pane's own, else the
    /// dictionary's.
    fn values_of(&self, id: u32, pane: u32, entry: u32) -> &[KeyPart] {
        self.panes[pane as usize].1.entries[entry as usize]
            .own
            .as_deref()
            .unwrap_or(&self.dict.entries[id as usize].values)
    }

    /// Append the store's durable state (see the module docs for the
    /// layout; coded strings are written as their values). The inverse of
    /// [`PaneStore::restore_from`].
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        snap::put_u64(out, self.width.as_millis());
        snap::put_u32(out, self.panes.len() as u32);
        for (p, (epoch, pane)) in self.panes.iter().enumerate() {
            snap::put_u64(out, epoch.as_millis());
            snap::put_u32(out, pane.entries.len() as u32);
            for (i, e) in pane.entries.iter().enumerate() {
                let values = Key(self.values_of(e.id, p as u32, i as u32)).values();
                snap::encode_values(out, &values);
                e.partial.encode_into(out);
            }
        }
    }

    /// Replace this store's panes with those captured by
    /// [`PaneStore::encode_into`]. The encoded width must match the
    /// configured one — a mismatch means the snapshot came from a
    /// different pipeline configuration and is rejected rather than
    /// silently re-windowed. On error the store is left unchanged.
    pub fn restore_from(&mut self, cur: &mut snap::Cursor<'_>) -> Result<()> {
        let width = TimeDelta::from_millis(cur.u64()?);
        if width != self.width {
            return Err(EspError::Snapshot(format!(
                "pane snapshot has width {width} but the operator is configured with {}",
                self.width
            )));
        }
        let mut store = PaneStore::new(width);
        for _ in 0..cur.u32()? {
            let epoch = Ts::from_millis(cur.u64()?);
            if store.panes.back().is_some_and(|(last, _)| *last >= epoch) {
                return Err(EspError::Snapshot(
                    "pane snapshot epochs are not strictly ascending".into(),
                ));
            }
            let mut pane = store.pane_mut(epoch);
            for _ in 0..cur.u32()? {
                let values = snap::decode_values(cur)?;
                let n_before = pane.table.entries.len();
                let slot = pane.upsert(&values);
                *slot = P::decode(cur)?;
                if pane.table.entries.len() == n_before {
                    return Err(EspError::Snapshot(
                        "pane snapshot lists one key twice in a pane".into(),
                    ));
                }
            }
        }
        *self = store;
        Ok(())
    }
}

/// The merged window of a [`PaneStore`]: one partial per live key, in
/// first-seen order.
pub struct Merged<'a, P> {
    store: &'a PaneStore<P>,
}

impl<'a, P: Partial> Merged<'a, P> {
    /// Number of distinct live keys.
    pub fn len(&self) -> usize {
        self.store.order.len()
    }

    /// True when no pane holds a key.
    pub fn is_empty(&self) -> bool {
        self.store.order.is_empty()
    }

    /// `(key, merged partial)` per key, in first-seen order.
    pub fn iter(&self) -> impl Iterator<Item = (Key<'a>, &'a P)> + 'a {
        let store = self.store;
        store.order.iter().map(move |&(id, pane, entry)| {
            (
                Key(store.values_of(id, pane, entry)),
                &store.acc[id as usize],
            )
        })
    }
}

/// A column a [`PaneAggregate`] reads, found by name in each input schema.
#[derive(Debug, Clone)]
pub struct Column {
    name: String,
    /// The name an error for a schema without the field shows; `None` for
    /// an optional column.
    shown: Option<String>,
}

impl Column {
    /// A column every input must have: a schema without it fails the fold
    /// with `UnknownField(shown)`, as a row without it would.
    pub fn required(name: &str, shown: String) -> Column {
        Column {
            name: name.to_string(),
            shown: Some(shown),
        }
    }

    /// A column without which a chunk contributes nothing to the window.
    pub fn optional(name: &str) -> Column {
        Column {
            name: name.to_string(),
            shown: None,
        }
    }
}

/// One chunk's columns as a [`PaneAggregate`] reads them, by position.
pub struct Columns<'c> {
    len: usize,
    keys: Vec<&'c ColumnVec>,
    /// The argument columns, in the aggregate's order.
    pub args: Vec<&'c ColumnVec>,
}

impl Columns<'_> {
    /// Rows in the chunk.
    pub fn row_count(&self) -> usize {
        self.len
    }
}

/// A packed key column and its null bitmap — `None` when no row is NULL,
/// so the per-row test disappears for clean columns.
type Packed<'a, T> = (&'a [T], Option<&'a NullMask>);

/// A key column as the run finder compares it: packed `Int`/`Str`/coded
/// slices in place, any other column slot by slot through [`KeyRef::is`].
enum KeyCol<'a> {
    Int(Packed<'a, i64>),
    Str(Packed<'a, Arc<str>>),
    Coded(Packed<'a, u32>),
    Other(&'a ColumnVec),
}

impl<'a> KeyCol<'a> {
    fn of(col: &'a ColumnVec) -> KeyCol<'a> {
        fn packed<'a, T>(data: &'a [T], nulls: &'a NullMask) -> Packed<'a, T> {
            (data, nulls.any().then_some(nulls))
        }
        match col {
            ColumnVec::Int(p) => KeyCol::Int(packed(p.data(), p.nulls())),
            ColumnVec::Str(p) => KeyCol::Str(packed(p.data(), p.nulls())),
            ColumnVec::Coded(_, p) => KeyCol::Coded(packed(p.data(), p.nulls())),
            _ => KeyCol::Other(col),
        }
    }

    /// Whether rows `a` and `b` hold the same key value in place (see
    /// [`PaneAggregate::fold`]).
    #[inline]
    fn same(&self, a: usize, b: usize) -> bool {
        let null = |nulls: Option<&NullMask>, row| nulls.is_some_and(|n| n.get(row));
        match self {
            KeyCol::Int((data, nulls)) => match (null(*nulls, a), null(*nulls, b)) {
                (false, false) => data[a] == data[b],
                (na, nb) => na == nb,
            },
            KeyCol::Str((data, nulls)) => match (null(*nulls, a), null(*nulls, b)) {
                (false, false) => Arc::ptr_eq(&data[a], &data[b]),
                (na, nb) => na == nb,
            },
            KeyCol::Coded((data, nulls)) => match (null(*nulls, a), null(*nulls, b)) {
                (false, false) => data[a] == data[b],
                (na, nb) => na == nb,
            },
            KeyCol::Other(col) => KeyRef::at(col, a).is(KeyRef::at(col, b)),
        }
    }
}

/// An input schema, and the key then argument positions in it (`None`
/// when it lacks an optional column).
type Layout = (Arc<Schema>, Result<Option<Vec<usize>>>);

/// A keyed sliding-window aggregate over panes: the store, the key and
/// argument columns it reads, and the one fold and emit that native Smooth
/// and mergeable CQL share (see the module docs).
#[derive(Debug, Clone)]
pub struct PaneAggregate<P> {
    store: PaneStore<P>,
    keys: Vec<Column>,
    args: Vec<Column>,
    /// One entry per distinct input schema met so far.
    layouts: Vec<Layout>,
}

impl<P: Partial> PaneAggregate<P> {
    /// An empty aggregate over a window of `width`, grouping by `keys` and
    /// reading `args`.
    pub fn new(width: TimeDelta, keys: Vec<Column>, args: Vec<Column>) -> PaneAggregate<P> {
        PaneAggregate {
            store: PaneStore::new(width),
            keys,
            args,
            layouts: Vec::new(),
        }
    }

    /// The configured window width.
    pub fn width(&self) -> TimeDelta {
        self.store.width()
    }

    /// Slide the window to `now`, dropping every pane older than
    /// `now - width` ([`PaneStore::advance_to`]); [`PaneAggregate::emit`]
    /// slides first too. Sliding before a fold frees the evicted panes'
    /// dictionary ids for the fold's new keys.
    pub fn advance_to(&mut self, now: Ts) {
        self.store.advance_to(now);
    }

    /// True when no pane holds a group.
    pub fn is_empty(&self) -> bool {
        self.store.panes.iter().all(|(_, p)| p.entries.is_empty())
    }

    /// `chunk`'s key and argument columns, by positions resolved the first
    /// time its schema is met. `None` when the schema lacks an optional
    /// column; fails for the first missing key, then the first missing
    /// required argument.
    pub fn columns<'c>(&mut self, chunk: &'c Chunk) -> Result<Option<Columns<'c>>> {
        let schema = chunk.schema();
        let known =
            (self.layouts.iter()).position(|(s, _)| Arc::ptr_eq(s, schema) || **s == **schema);
        let layout = known.unwrap_or_else(|| {
            let find = |c: &Column| schema.index_of(&c.name);
            let positions = if self
                .args
                .iter()
                .any(|a| a.shown.is_none() && find(a).is_none())
            {
                Ok(None)
            } else {
                (self.keys.iter().chain(&self.args))
                    .map(|c| {
                        find(c).ok_or_else(|| {
                            EspError::UnknownField(c.shown.clone().unwrap_or_default())
                        })
                    })
                    .collect::<Result<Vec<_>>>()
                    .map(Some)
            };
            self.layouts.push((Arc::clone(schema), positions));
            self.layouts.len() - 1
        });
        let Some(positions) = self.layouts[layout].1.as_ref().map_err(Clone::clone)? else {
            return Ok(None);
        };
        let mut cols = positions.iter().map(|&c| {
            chunk.col(c).ok_or_else(|| {
                EspError::SchemaMismatch(format!("a chunk of {schema} has no column {c}"))
            })
        });
        let keys = cols.by_ref().take(self.keys.len()).collect::<Result<_>>()?;
        Ok(Some(Columns {
            len: chunk.len(),
            keys,
            args: cols.collect::<Result<_>>()?,
        }))
    }

    /// Fold the chunk `cols` were read from into the pane of `epoch`: the
    /// rows listed in `rows` (ascending) when given, else every row. Each
    /// run of consecutive such rows whose keys are the same values in place
    /// — equal integers, equal float bits, one string allocation or code —
    /// looks its group up once (a new group takes the key values of the
    /// run's first row) and hands the group's partial to `update` with the
    /// run: a range of positions in `rows` when given, else of rows.
    /// Finding runs costs a word compare per key column and row, never a
    /// string compare; a key repeated from another allocation only starts
    /// another run of the same group. A coded string's hash is its table's;
    /// a plain one is hashed only when its allocation differs from the
    /// previous run's in that column.
    pub fn fold(
        &mut self,
        epoch: Ts,
        cols: &Columns<'_>,
        rows: Option<&[usize]>,
        mut update: impl FnMut(&mut P, Range<usize>) -> Result<()>,
    ) -> Result<()> {
        let keys: Vec<KeyCol<'_>> = cols.keys.iter().map(|c| KeyCol::of(c)).collect();
        let n = rows.map_or(cols.len, <[usize]>::len);
        let row = |i: usize| rows.map_or(i, |r| r[i]);
        let mut pane = self.store.pane_mut(epoch);
        let mut key = Vec::with_capacity(keys.len());
        let mut hashes = vec![0; keys.len()];
        // Per key column, the last plain string hashed: its allocation's
        // address (which the borrowed chunk keeps alive) and hash.
        let mut last: Vec<(usize, u64)> = vec![(0, 0); keys.len()];
        let mut start = 0;
        for end in 1..=n {
            if end < n && keys.iter().all(|k| k.same(row(start), row(end))) {
                continue;
            }
            key.clear();
            key.extend(cols.keys.iter().map(|c| KeyRef::at(c, row(start))));
            for ((part, hash), last) in key.iter().zip(&mut hashes).zip(&mut last) {
                *hash = match *part {
                    KeyRef::Str(s) => {
                        let at = Arc::as_ptr(s).cast::<u8>() as usize;
                        if last.0 != at {
                            *last = (at, str_hash(s));
                        }
                        last.1
                    }
                    part => part.content_hash(),
                };
            }
            update(pane.upsert_hashed(&key, &hashes), start..end)?;
            start = end;
        }
        Ok(())
    }

    /// Slide the window to `now` and write one row per live group, in
    /// first-seen order, stamped `now` under `schema`. Output column `c`
    /// is key value `k` of the group when `keys_at[c]` is `Some(k)`,
    /// written as the dictionary holds it (a coded string stays coded);
    /// `row` turns a group's key and merged partial into the values of the
    /// other columns, in order, or returns `false` to write no row. A
    /// `keys_at` or a row whose arity does not fit the schema fails. Over
    /// an empty window, `empty` is written as the one group of a global
    /// aggregate when given. Also returns the number of groups.
    pub fn emit(
        &mut self,
        now: Ts,
        schema: &Arc<Schema>,
        keys_at: &[Option<usize>],
        empty: Option<&P>,
        mut row: impl FnMut(Key<'_>, &P, &mut Vec<Value>) -> Result<bool>,
    ) -> Result<(Chunk, usize)> {
        let computed = keys_at.iter().filter(|k| k.is_none()).count();
        if keys_at.len() != schema.len() {
            return Err(EspError::SchemaMismatch(format!(
                "{} key positions for the {} fields of {schema}",
                keys_at.len(),
                schema.len()
            )));
        }
        self.store.advance_to(now);
        let merged = self.store.merged()?;
        let mut cols: Vec<ColumnVec> = (schema.fields().iter())
            .map(|f| ColumnVec::for_type(f.data_type))
            .collect();
        let (mut rows, mut values) = (0, Vec::with_capacity(cols.len()));
        let mut write = |key: Key<'_>, partial: &P| -> Result<()> {
            values.clear();
            if !row(key, partial, &mut values)? {
                return Ok(());
            }
            if values.len() != computed {
                return Err(EspError::SchemaMismatch(format!(
                    "a group's row has {} values but {schema} computes {computed} fields",
                    values.len(),
                )));
            }
            let mut values = values.drain(..);
            for (col, at) in cols.iter_mut().zip(keys_at) {
                match at {
                    Some(k) => col.push_cell(key.cell(*k)),
                    None => col.push(values.next().unwrap_or(Value::Null)),
                }
            }
            rows += 1;
            Ok(())
        };
        let groups = match empty {
            Some(partial) if merged.is_empty() => {
                write(Key(&[]), partial)?;
                1
            }
            _ => {
                for (key, partial) in merged.iter() {
                    write(key, partial)?;
                }
                merged.len()
            }
        };
        Ok((Chunk::from_columns(schema, vec![now; rows], cols)?, groups))
    }

    /// Append the store's durable state ([`PaneStore::encode_into`]).
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        self.store.encode_into(out);
    }

    /// Restore the store from [`PaneAggregate::encode_into`]'s bytes
    /// ([`PaneStore::restore_from`]).
    pub fn restore_from(&mut self, cur: &mut snap::Cursor<'_>) -> Result<()> {
        self.store.restore_from(cur)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(s: &str, i: i64) -> Vec<Value> {
        vec![Value::str(s), Value::Int(i)]
    }

    /// Ids the dictionary holds.
    fn live<P>(s: &PaneStore<P>) -> usize {
        s.dict.entries.len() - s.dict.free.len()
    }

    fn counts(s: &mut PaneStore<i64>) -> Vec<(Vec<Value>, i64)> {
        s.merged()
            .unwrap()
            .iter()
            .map(|(k, n)| (k.values(), *n))
            .collect()
    }

    #[test]
    fn merged_sums_panes_in_first_seen_order() {
        let mut s: PaneStore<i64> = PaneStore::new(TimeDelta::from_secs(5));
        *s.pane_mut(Ts::from_secs(1)).upsert(&key("b", 1)) += 2;
        *s.pane_mut(Ts::from_secs(1)).upsert(&key("a", 1)) += 1;
        *s.pane_mut(Ts::from_secs(2)).upsert(&key("c", 1)) += 1;
        *s.pane_mut(Ts::from_secs(2)).upsert(&key("a", 1)) += 4;
        s.advance_to(Ts::from_secs(2));
        assert_eq!(
            counts(&mut s),
            vec![(key("b", 1), 2), (key("a", 1), 5), (key("c", 1), 1)]
        );
    }

    #[test]
    fn eviction_keeps_inclusive_lower_bound() {
        let mut s: PaneStore<i64> = PaneStore::new(TimeDelta::from_secs(5));
        for sec in [0u64, 1, 5, 6, 10] {
            *s.pane_mut(Ts::from_secs(sec)).upsert(&key("k", sec as i64)) += 1;
        }
        s.advance_to(Ts::from_secs(10));
        // cutoff = 5 s inclusive
        let kept: Vec<i64> = counts(&mut s)
            .iter()
            .map(|(k, _)| k[1].as_i64().unwrap())
            .collect();
        assert_eq!(kept, vec![5, 6, 10]);
        assert_eq!(live(&s), 3);
    }

    #[test]
    fn now_window_keeps_only_the_current_epoch() {
        let mut s: PaneStore<i64> = PaneStore::new(TimeDelta::ZERO);
        *s.pane_mut(Ts::from_secs(1)).upsert(&key("a", 0)) += 1;
        s.advance_to(Ts::from_secs(1));
        assert_eq!(s.merged().unwrap().len(), 1);
        *s.pane_mut(Ts::from_secs(2)).upsert(&key("b", 0)) += 1;
        s.advance_to(Ts::from_secs(2));
        assert_eq!(counts(&mut s), vec![(key("b", 0), 1)]);
        s.advance_to(Ts::from_secs(3));
        assert!(s.merged().unwrap().is_empty());
        assert_eq!(live(&s), 0);
    }

    #[test]
    fn repeated_and_earlier_epochs_find_their_pane() {
        let mut s: PaneStore<i64> = PaneStore::new(TimeDelta::from_secs(10));
        *s.pane_mut(Ts::from_secs(2)).upsert(&key("late", 0)) += 1;
        *s.pane_mut(Ts::from_secs(4)).upsert(&key("newest", 0)) += 1;
        *s.pane_mut(Ts::from_secs(4)).upsert(&key("late", 0)) += 1;
        *s.pane_mut(Ts::from_secs(2)).upsert(&key("late", 0)) += 1;
        *s.pane_mut(Ts::from_secs(1)).upsert(&key("earliest", 0)) += 1;
        *s.pane_mut(Ts::from_secs(3)).upsert(&key("middle", 0)) += 1;
        *s.pane_mut(Ts::from_secs(4)).upsert(&key("late", 0)) += 1;
        // Advancing to an earlier time evicts by that time's cutoff only;
        // later panes stay, as later tuples stay in a WindowBuffer.
        s.advance_to(Ts::from_secs(3));
        assert_eq!(
            counts(&mut s),
            vec![
                (key("earliest", 0), 1),
                (key("late", 0), 4),
                (key("middle", 0), 1),
                (key("newest", 0), 1)
            ]
        );
    }

    #[test]
    fn keys_group_like_group_key_and_keep_the_first_seen_values() {
        let mut s: PaneStore<i64> = PaneStore::new(TimeDelta::ZERO);
        let mut pane = s.pane_mut(Ts::ZERO);
        *pane.upsert(&[Value::Float(-0.0)]) += 1;
        *pane.upsert(&[Value::Float(0.0)]) += 1;
        *pane.upsert(&[Value::Null]) += 1;
        *pane.upsert(&[Value::Float(f64::NAN)]) += 1;
        *pane.upsert(&[Value::Null]) += 1;
        *pane.upsert(&[Value::Float(-f64::NAN)]) += 1;
        *pane.upsert(&[Value::Int(0)]) += 1;
        let got = counts(&mut s);
        assert_eq!(
            got.iter().map(|(_, n)| *n).collect::<Vec<_>>(),
            [2, 2, 2, 1]
        );
        // The representative is the first arrival, bit for bit.
        let Value::Float(zero) = got[0].0[0] else {
            panic!("float key")
        };
        assert_eq!(zero.to_bits(), (-0.0f64).to_bits());
    }

    #[test]
    fn column_keys_find_the_ids_of_value_keys() {
        let mut s: PaneStore<i64> = PaneStore::new(TimeDelta::from_secs(5));
        *s.pane_mut(Ts::ZERO).upsert(&key("a", 1)) += 1;
        let mut tags = ColumnVec::for_type(esp_types::DataType::Str);
        tags.push(Value::str("a"));
        tags.push(Value::str("b"));
        let ids = ColumnVec::Values(vec![Value::Int(1), Value::Int(1)]);
        let mut pane = s.pane_mut(Ts::from_secs(1));
        for row in 0..2 {
            let parts = [KeyRef::at(&tags, row), KeyRef::at(&ids, row)];
            *pane.upsert_refs(&parts) += 10;
        }
        assert_eq!(counts(&mut s), vec![(key("a", 1), 11), (key("b", 1), 10)]);
        assert_eq!(live(&s), 2);
    }

    #[test]
    fn a_pane_keeps_its_own_bits_once_older_panes_go() {
        let mut s: PaneStore<i64> = PaneStore::new(TimeDelta::from_secs(1));
        *s.pane_mut(Ts::from_secs(0)).upsert(&[Value::Float(-0.0)]) += 1;
        *s.pane_mut(Ts::from_secs(1)).upsert(&[Value::Float(0.0)]) += 1;
        s.advance_to(Ts::from_secs(1));
        let bits = |s: &mut PaneStore<i64>| match s.merged().unwrap().iter().next() {
            Some((k, n)) => match k.values()[..] {
                [Value::Float(f)] => (f.to_bits(), *n),
                ref other => panic!("unexpected {other:?}"),
            },
            None => panic!("no group"),
        };
        assert_eq!(bits(&mut s), ((-0.0f64).to_bits(), 2));
        s.advance_to(Ts::from_secs(2));
        assert_eq!(bits(&mut s), (0.0f64.to_bits(), 1));
    }

    /// Memory follows the keys in the window, not the length of the run:
    /// 10 000 epochs of churning keys through a 5 s window keep the
    /// dictionary at the distinct keys of the live panes, and freed ids
    /// are reused.
    #[test]
    fn dictionary_is_bounded_by_the_live_keys() {
        let mut s: PaneStore<i64> = PaneStore::new(TimeDelta::from_secs(5));
        for k in 0..10_000u64 {
            let epoch = Ts::from_secs(k);
            s.advance_to(epoch);
            let mut pane = s.pane_mut(epoch);
            for i in 0..(k % 7) {
                // Every key lives a few epochs, then never returns.
                *pane.upsert(&key(&format!("tag-{}", k / 3 + i), i as i64 % 2)) += 1;
            }
            let mut distinct = std::collections::HashSet::new();
            for (_, pane) in &s.panes {
                for e in &pane.entries {
                    distinct.insert(
                        Key(&s.dict.entries[e.id as usize].values)
                            .values()
                            .iter()
                            .map(Value::group_key)
                            .collect::<Vec<_>>(),
                    );
                }
            }
            assert_eq!(live(&s), distinct.len(), "epoch {k}");
            assert_eq!(counts(&mut s).len(), distinct.len());
        }
        // Six live panes of at most six keys each.
        assert!(s.dict.entries.len() <= 36, "{} ids", s.dict.entries.len());
    }

    #[test]
    fn revisiting_an_older_pane_finds_its_keys() {
        let mut s: PaneStore<i64> = PaneStore::new(TimeDelta::from_secs(5));
        for epoch in [1u64, 2, 1, 2, 1] {
            *s.pane_mut(Ts::from_secs(epoch)).upsert(&key("k", 0)) += 1;
        }
        assert_eq!(
            s.panes.iter().map(|(_, p)| p.entries.len()).sum::<usize>(),
            2
        );
        assert_eq!(counts(&mut s), vec![(key("k", 0), 5)]);
    }

    #[test]
    fn mean_partials_merge_like_one_pass() {
        let xs: Vec<f64> = (0..90).map(|i| (i as f64).sin() * 40.0 + 15.0).collect();
        let mut s: PaneStore<RunningStats> = PaneStore::new(TimeDelta::from_secs(100));
        for (i, x) in xs.iter().enumerate() {
            s.pane_mut(Ts::from_secs(i as u64 / 3))
                .upsert(&key("m", 7))
                .push(*x);
        }
        s.advance_to(Ts::from_secs(29));
        let whole = RunningStats::from_iter(xs.iter().copied());
        let merged = s.merged().unwrap();
        let (_, got) = merged.iter().next().unwrap();
        assert_eq!(got.count(), whole.count());
        let (a, b) = (got.mean().unwrap(), whole.mean().unwrap());
        assert!((a - b).abs() <= 1e-12 * b.abs(), "{a} vs {b}");
    }

    #[test]
    fn snapshot_round_trips_bit_exactly_and_validates() {
        let mut s: PaneStore<RunningStats> = PaneStore::new(TimeDelta::from_secs(5));
        s.pane_mut(Ts::from_secs(1))
            .upsert(&[Value::Float(-0.0), Value::Null])
            .push(0.1);
        s.pane_mut(Ts::from_secs(1))
            .upsert(&key("a", 1))
            .push(f64::NAN);
        s.pane_mut(Ts::from_secs(3))
            .upsert(&[Value::Float(0.0), Value::Null])
            .push(1e300);
        s.pane_mut(Ts::from_secs(3))
            .upsert(&key("a", 1))
            .push(1e300);
        s.pane_mut(Ts::from_secs(4)); // an empty pane survives too
        let mut blob = Vec::new();
        s.encode_into(&mut blob);

        let mut r: PaneStore<RunningStats> = PaneStore::new(TimeDelta::from_secs(5));
        let mut cur = snap::Cursor::new(&blob);
        r.restore_from(&mut cur).unwrap();
        cur.finish().unwrap();
        let mut again = Vec::new();
        r.encode_into(&mut again);
        assert_eq!(blob, again);

        // A different configured width is a different pipeline.
        let mut other: PaneStore<RunningStats> = PaneStore::new(TimeDelta::from_secs(6));
        assert!(matches!(
            other.restore_from(&mut snap::Cursor::new(&blob)),
            Err(EspError::Snapshot(_))
        ));
        // Truncation anywhere is an error, never partial state.
        for cut in 0..blob.len() {
            let mut t: PaneStore<RunningStats> = PaneStore::new(TimeDelta::from_secs(5));
            let mut cur = snap::Cursor::new(&blob[..cut]);
            assert!(t.restore_from(&mut cur).is_err(), "cut at {cut}");
            assert!(t.panes.is_empty(), "cut at {cut}");
        }
    }

    /// `(tag: STR, n: INT)` rows; equal tags share one allocation when
    /// `shared`.
    fn tagged(rows: &[(&str, i64)], shared: bool) -> Chunk {
        let schema = Schema::builder()
            .field("tag", esp_types::DataType::Str)
            .field("n", esp_types::DataType::Int)
            .build()
            .unwrap();
        let mut chunk = Chunk::new(&schema);
        let mut seen: Vec<Value> = Vec::new();
        for (tag, n) in rows {
            let tag = match seen.iter().find(|v| v.as_str() == Some(tag)) {
                Some(v) if shared => v.clone(),
                _ => Value::str(*tag),
            };
            seen.push(tag.clone());
            chunk.push_row(Ts::ZERO, &[tag, Value::Int(*n)]).unwrap();
        }
        chunk
    }

    fn sum_by_tag() -> PaneAggregate<i64> {
        let tag = Column::required("tag", "s.tag".into());
        PaneAggregate::new(
            TimeDelta::from_secs(5),
            vec![tag],
            vec![Column::optional("n")],
        )
    }

    /// Runs of keys equal in place look their group up once; a selection
    /// folds only the listed rows, and runs form over them alone. Equal
    /// strings in separate allocations start separate runs of one group.
    #[test]
    fn fold_updates_once_per_run_of_equal_keys() {
        let mut agg = sum_by_tag();
        let rows = [("a", 1), ("a", 2), ("b", 4), ("a", 8), ("a", 16)];
        let fold = |agg: &mut PaneAggregate<i64>, chunk: &Chunk, sel: Option<&[usize]>| {
            let cols = agg.columns(chunk).unwrap().unwrap();
            let mut runs = Vec::new();
            agg.fold(Ts::ZERO, &cols, sel, |sum, run| {
                let picked = run.clone().map(|i| sel.map_or(i, |s| s[i]));
                *sum += picked
                    .map(|r| cols.args[0].get(r).unwrap().as_i64().unwrap())
                    .sum::<i64>();
                runs.push(run);
                Ok(())
            })
            .unwrap();
            runs
        };
        let shared = tagged(&rows, true);
        assert_eq!(fold(&mut agg, &shared, None), [0..2, 2..3, 3..5]);
        // Rows 0, 3 and 4 only: positions 0..3 of the selection, one run.
        assert_eq!(fold(&mut agg, &shared, Some(&[0, 3, 4])).len(), 1);
        assert_eq!(fold(&mut agg, &tagged(&rows, false), None).len(), 5);
        let schema = Schema::builder()
            .field("tag", esp_types::DataType::Str)
            .field("sum", esp_types::DataType::Int)
            .build()
            .unwrap();
        let (out, groups) = agg
            .emit(Ts::ZERO, &schema, &[Some(0), None], None, |_, sum, row| {
                row.push(Value::Int(*sum));
                Ok(true)
            })
            .unwrap();
        assert_eq!(groups, 2);
        assert_eq!(
            out.row_values(0).unwrap(),
            [Value::str("a"), Value::Int(27 + 25 + 27)]
        );
        assert_eq!(out.row_values(1).unwrap(), [Value::str("b"), Value::Int(8)]);
    }

    /// A row that does not fit the output schema fails the emit instead of
    /// being cut to the schema's width.
    #[test]
    fn emit_refuses_a_row_of_another_arity() {
        let mut agg = sum_by_tag();
        let chunk = tagged(&[("a", 1)], true);
        let cols = agg.columns(&chunk).unwrap().unwrap();
        agg.fold(Ts::ZERO, &cols, None, |_, _| Ok(())).unwrap();
        let narrow = Schema::builder()
            .field("sum", esp_types::DataType::Int)
            .build()
            .unwrap();
        let got = agg.emit(Ts::ZERO, &narrow, &[None], None, |key, sum, row| {
            row.extend(key.values());
            row.push(Value::Int(*sum));
            Ok(true)
        });
        assert!(matches!(got, Err(EspError::SchemaMismatch(_))), "{got:?}");
        // Key positions must cover the schema too.
        let got = agg.emit(Ts::ZERO, &narrow, &[], None, |_, _, _| Ok(true));
        assert!(matches!(got, Err(EspError::SchemaMismatch(_))), "{got:?}");
    }

    /// A missing optional column skips the chunk before keys are checked;
    /// a missing key fails with the name the aggregate shows.
    #[test]
    fn columns_resolve_per_schema() {
        let mut agg = sum_by_tag();
        let only_n = Schema::builder()
            .field("n", esp_types::DataType::Int)
            .build()
            .unwrap();
        let only_tag = Schema::builder()
            .field("tag", esp_types::DataType::Str)
            .build()
            .unwrap();
        let mut chunk = Chunk::new(&only_n);
        chunk.push_row(Ts::ZERO, &[Value::Int(1)]).unwrap();
        assert!(matches!(
            agg.columns(&chunk),
            Err(EspError::UnknownField(f)) if f == "s.tag"
        ));
        let mut chunk = Chunk::new(&only_tag);
        chunk.push_row(Ts::ZERO, &[Value::str("a")]).unwrap();
        assert!(agg.columns(&chunk).unwrap().is_none());
    }

    /// A key that arrives coded is written back coded: the next keyed
    /// operator receives codes.
    #[test]
    fn emit_keeps_coded_keys_coded() {
        let mut strings = esp_types::StrInterner::new();
        let schema = Schema::builder()
            .field("tag", esp_types::DataType::Str)
            .field("n", esp_types::DataType::Int)
            .build()
            .unwrap();
        let mut chunk = Chunk::new(&schema);
        for tag in ["a", "b", "a"] {
            let code = strings.intern(tag);
            let cells = [
                Cell::Code(strings.table(), code),
                Cell::Value(Value::Int(1)),
            ];
            chunk.push_row_owned(Ts::ZERO, cells).unwrap();
        }
        assert!(chunk.col(0).and_then(ColumnVec::table).is_some());
        let mut agg = sum_by_tag();
        let cols = agg.columns(&chunk).unwrap().unwrap();
        agg.fold(Ts::ZERO, &cols, None, |n, run| {
            *n += run.len() as i64;
            Ok(())
        })
        .unwrap();
        let (out, _) = agg
            .emit(Ts::ZERO, &schema, &[Some(0), None], None, |_, n, row| {
                row.push(Value::Int(*n));
                Ok(true)
            })
            .unwrap();
        let table = out.col(0).and_then(ColumnVec::table);
        assert!(table.is_some_and(|t| Arc::ptr_eq(t, strings.table())));
        assert_eq!(
            out.to_tuples()
                .iter()
                .map(|t| t.values().to_vec())
                .collect::<Vec<_>>(),
            [
                [Value::str("a"), Value::Int(2)],
                [Value::str("b"), Value::Int(1)]
            ]
        );
    }

    mod properties {
        use super::*;
        use esp_types::{DataType, StrInterner};
        use proptest::prelude::*;

        /// One epoch's input: `(tag, group)` rows, whether the string
        /// table is swapped for a fresh one before it, and whether both
        /// runs restore from their snapshots before it.
        type Tick = (Vec<(u8, i64)>, bool, bool);

        fn arb_tick() -> impl Strategy<Value = Tick> {
            (
                proptest::collection::vec((0u8..12, 0i64..3), 0..24),
                (0u8..7).prop_map(|x| x == 0),
                (0u8..7).prop_map(|x| x == 0),
            )
        }

        fn input_schema() -> Arc<Schema> {
            Schema::builder()
                .field("shelf", DataType::Str)
                .field("tag", DataType::Str)
                .field("g", DataType::Int)
                .build()
                .unwrap()
        }

        fn count_schema() -> Arc<Schema> {
            Schema::builder()
                .field("shelf", DataType::Str)
                .field("tag", DataType::Str)
                .field("g", DataType::Int)
                .field("n", DataType::Int)
                .build()
                .unwrap()
        }

        /// Count per `(shelf, tag, g)` over a 3 s window (the smoothing
        /// stage), or sum the counts per `(tag, shelf)` over `NOW` (the
        /// merging stage), both on panes.
        fn smooth() -> PaneAggregate<i64> {
            let keys = ["shelf", "tag", "g"].map(|k| Column::required(k, k.into()));
            PaneAggregate::new(TimeDelta::from_secs(3), keys.to_vec(), vec![])
        }

        fn merge() -> PaneAggregate<i64> {
            let keys = ["tag", "shelf"].map(|k| Column::required(k, k.into()));
            PaneAggregate::new(TimeDelta::ZERO, keys.to_vec(), vec![Column::optional("n")])
        }

        /// Fold `chunk` into `agg` at `epoch` and emit: a smoothing stage
        /// counts rows, a merging stage sums column `n`.
        fn tick(agg: &mut PaneAggregate<i64>, chunk: &Chunk, epoch: Ts) -> Chunk {
            let cols = agg.columns(chunk).unwrap().unwrap();
            let sums = cols.args.first().copied();
            agg.fold(epoch, &cols, None, |n, run| {
                *n += match sums {
                    Some(col) => run.map(|r| col.get(r).unwrap().as_i64().unwrap()).sum(),
                    None => run.len() as i64,
                };
                Ok(())
            })
            .unwrap();
            let (schema, keys_at) = match sums {
                None => (count_schema(), vec![Some(0), Some(1), Some(2), None]),
                Some(_) => (
                    Schema::builder()
                        .field("n", DataType::Int)
                        .field("tag", DataType::Str)
                        .field("shelf", DataType::Str)
                        .build()
                        .unwrap(),
                    vec![None, Some(0), Some(1)],
                ),
            };
            let (out, _) = agg
                .emit(epoch, &schema, &keys_at, None, |_, n, row| {
                    row.push(Value::Int(*n));
                    Ok(true)
                })
                .unwrap();
            out
        }

        fn encoded(agg: &PaneAggregate<i64>) -> Vec<u8> {
            let mut out = Vec::new();
            agg.encode_into(&mut out);
            out
        }

        fn restored(agg: &PaneAggregate<i64>, fresh: PaneAggregate<i64>) -> PaneAggregate<i64> {
            let (blob, mut fresh) = (encoded(agg), fresh);
            let mut cur = snap::Cursor::new(&blob);
            fresh.restore_from(&mut cur).unwrap();
            cur.finish().unwrap();
            fresh
        }

        proptest! {
            /// Folding rows whose tag column is coded equals folding the
            /// same rows with plain strings, tick for tick: the emitted
            /// chunks of a smoothing stage and of the merging stage fed
            /// by it, and the snapshot bytes of both. The string table is
            /// swapped for a fresh one mid-window, so one group meets
            /// codes of two tables, and both runs restore from their
            /// snapshots (values, no codes) between ticks.
            #[test]
            fn coded_keys_fold_like_string_keys(
                ticks in proptest::collection::vec(arb_tick(), 1..12),
            ) {
                let schema = input_schema();
                let shelf = Value::str("shelf-0");
                let mut strings = StrInterner::new();
                let (mut coded, mut plain) = ((smooth(), merge()), (smooth(), merge()));
                for (k, (rows, swap, restore)) in ticks.into_iter().enumerate() {
                    let epoch = Ts::from_secs(k as u64);
                    if swap {
                        strings = StrInterner::new();
                    }
                    if restore {
                        coded = (restored(&coded.0, smooth()), restored(&coded.1, merge()));
                        plain = (restored(&plain.0, smooth()), restored(&plain.1, merge()));
                    }
                    let (mut by_code, mut by_value) = (Chunk::new(&schema), Chunk::new(&schema));
                    for (tag, g) in rows {
                        let tag = format!("urn:epc:{tag}");
                        let code = strings.intern(&tag);
                        let cells = [
                            Cell::Value(shelf.clone()),
                            Cell::Code(strings.table(), code),
                            Cell::Value(Value::Int(g)),
                        ];
                        by_code.push_row_owned(epoch, cells).unwrap();
                        let values = [shelf.clone(), Value::str(tag), Value::Int(g)];
                        by_value.push_row_owned(epoch, values).unwrap();
                    }
                    let smoothed = (tick(&mut coded.0, &by_code, epoch), tick(&mut plain.0, &by_value, epoch));
                    prop_assert_eq!(smoothed.0.to_tuples(), smoothed.1.to_tuples());
                    prop_assert!(smoothed.1.col(1).and_then(ColumnVec::table).is_none());
                    let merged = (tick(&mut coded.1, &smoothed.0, epoch), tick(&mut plain.1, &smoothed.1, epoch));
                    prop_assert_eq!(merged.0.to_tuples(), merged.1.to_tuples());
                    prop_assert_eq!(encoded(&coded.0), encoded(&plain.0));
                    prop_assert_eq!(encoded(&coded.1), encoded(&plain.1));
                }
            }
        }
    }

    #[test]
    fn snapshot_with_unordered_panes_is_rejected() {
        let mut blob = Vec::new();
        snap::put_u64(&mut blob, 5_000);
        snap::put_u32(&mut blob, 2);
        for epoch in [2_000u64, 2_000] {
            snap::put_u64(&mut blob, epoch);
            snap::put_u32(&mut blob, 0);
        }
        let mut s: PaneStore<i64> = PaneStore::new(TimeDelta::from_secs(5));
        assert!(matches!(
            s.restore_from(&mut snap::Cursor::new(&blob)),
            Err(EspError::Snapshot(m)) if m.contains("ascending")
        ));
    }
}
