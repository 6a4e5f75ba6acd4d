//! Validated wire frames → stream columns.
//!
//! The mapping mirrors what the in-process simulators produce at their
//! edges (`MoteSource`, `ShelfScenario`, `X10MotionSource`), so a pipeline
//! fed through the gateway sees byte-identical tuples to one fed directly:
//!
//! | wire kind            | schema                              |
//! |----------------------|-------------------------------------|
//! | `Scalar`             | `temp_schema (receptor_id, temp)`   |
//! | `Tag`                | `rfid_schema (receptor_id, tag_id)` |
//! | `Event`              | `motion_schema (receptor_id, value)`|
//! | `Dual`               | `temp_voltage_schema (…)`           |
//!
//! The gateway's ingest path never builds a [`Reading`]: a reader
//! validates each frame in place ([`esp_receptors::wire::parse`]) and
//! adds its fields to a `ShardBatch`, one per shard. The shard worker
//! walks each batch receptor by receptor and appends the rows straight
//! into the typed columns of the receptor's trailing chunk
//! (`ReadingSchemas::append_body`). A new trailing chunk is a clone of an
//! empty one built here once per kind, so no schema is interned on the
//! way.
//!
//! A Tag or Event payload is written **coded**: the worker interns its
//! bytes, still in the batch, into the shard's string table
//! ([`esp_types::StrInterner`], one per [`ReadingSchemas`]) and appends
//! the code ([`esp_types::ColumnVec::Coded`]). A repeated string costs a
//! hash and a compare and allocates nothing. The table holds a constant
//! number of strings; when it is full the interner starts a fresh one and
//! the receptor a fresh trailing chunk, and the old table is freed with
//! the last chunk or pane that references it.
//!
//! [`ReadingSchemas::to_tuple`] and [`ReadingSchemas::append_to_chunk`]
//! stay as the owned-`Reading` reference the ingest path is tested
//! against; they write plain strings, so every comparison with them also
//! checks coded ≡ uncoded.

use std::collections::{hash_map, HashMap};
use std::sync::Arc;

use parking_lot::{Mutex, MutexGuard};

use esp_receptors::wire::{Body, Frame, Reading};
use esp_types::{
    well_known, Cell, Chunk, ColumnVec, ReceptorId, Result, Schema, StrInterner, StrTable, Ts,
    Tuple, Value,
};

/// The column of a Tag or Event row that holds its string payload.
const PAYLOAD: usize = 1;

/// Cached per-kind schemas, each held as an empty chunk of that schema,
/// and the string table the ingest path codes payloads into. The
/// spatial-granule injector in `esp-core` caches by schema pointer
/// identity, so all tuples of one kind must share one `Arc<Schema>`; clone
/// this struct freely — clones share the arcs, the string table too.
#[derive(Debug, Clone)]
pub struct ReadingSchemas {
    scalar: Chunk,
    tag: Chunk,
    event: Chunk,
    dual: Chunk,
    strings: Arc<Mutex<StrInterner>>,
}

impl Default for ReadingSchemas {
    fn default() -> ReadingSchemas {
        ReadingSchemas::new()
    }
}

impl ReadingSchemas {
    /// Build the cache: one empty chunk per kind.
    pub fn new() -> ReadingSchemas {
        ReadingSchemas {
            scalar: Chunk::new(&well_known::temp_schema()),
            tag: Chunk::new(&well_known::rfid_schema()),
            event: Chunk::new(&well_known::motion_schema()),
            dual: Chunk::new(&well_known::temp_voltage_schema()),
            strings: Arc::default(),
        }
    }

    /// The string table the ingest path codes payloads into, locked: a
    /// shard worker takes it once per batch.
    pub(crate) fn strings(&self) -> MutexGuard<'_, StrInterner> {
        self.strings.lock()
    }

    /// Convert a decoded reading into the tuple the matching simulator
    /// would have produced.
    pub fn to_tuple(&self, reading: &Reading) -> Tuple {
        match reading {
            Reading::Scalar {
                receptor,
                ts,
                value,
            } => Tuple::new_unchecked(
                Arc::clone(self.scalar.schema()),
                *ts,
                vec![Value::Int(i64::from(receptor.0)), Value::Float(*value)],
            ),
            Reading::Tag {
                receptor,
                ts,
                tag_id,
            } => Tuple::new_unchecked(
                Arc::clone(self.tag.schema()),
                *ts,
                vec![Value::Int(i64::from(receptor.0)), Value::str(tag_id)],
            ),
            Reading::Event {
                receptor,
                ts,
                value,
            } => Tuple::new_unchecked(
                Arc::clone(self.event.schema()),
                *ts,
                vec![Value::Int(i64::from(receptor.0)), Value::str(value)],
            ),
            Reading::Dual { receptor, ts, a, b } => Tuple::new_unchecked(
                Arc::clone(self.dual.schema()),
                *ts,
                vec![
                    Value::Int(i64::from(receptor.0)),
                    Value::Float(*a),
                    Value::Float(*b),
                ],
            ),
        }
    }

    /// The schema a reading's kind maps to (the canonical interned `Arc`,
    /// so chunk builders can compare by pointer).
    pub fn schema_for(&self, reading: &Reading) -> &Arc<Schema> {
        let empty = match reading {
            Reading::Scalar { .. } => &self.scalar,
            Reading::Tag { .. } => &self.tag,
            Reading::Event { .. } => &self.event,
            Reading::Dual { .. } => &self.dual,
        };
        empty.schema()
    }

    /// An empty chunk of a frame's kind: clone it to start a chunk without
    /// interning its schema again.
    pub(crate) fn empty_chunk<S>(&self, body: &Body<S>) -> &Chunk {
        match body {
            Body::Scalar(_) => &self.scalar,
            Body::Tag(_) => &self.tag,
            Body::Event(_) => &self.event,
            Body::Dual(..) => &self.dual,
        }
    }

    /// Append a validated frame's row, its string payload already coded
    /// into `table`, to a chunk of its kind's schema: the ingest path's
    /// twin of [`ReadingSchemas::append_to_chunk`].
    pub(crate) fn append_body(
        &self,
        receptor: ReceptorId,
        ts: Ts,
        body: Body<u32>,
        table: &Arc<StrTable>,
        chunk: &mut Chunk,
    ) -> Result<()> {
        let id = Value::Int(i64::from(receptor.0));
        match body {
            Body::Scalar(v) => chunk.push_row_owned(ts, [id, Value::Float(v)]),
            Body::Tag(code) | Body::Event(code) => {
                chunk.push_row_owned(ts, [Cell::Value(id), Cell::Code(table, code)])
            }
            Body::Dual(a, b) => chunk.push_row_owned(ts, [id, Value::Float(a), Value::Float(b)]),
        }
    }

    /// Whether a row of `body`'s kind, coded into `table`, extends `chunk`:
    /// the same kind, and no payload column coded into another table.
    pub(crate) fn extends<S>(&self, chunk: &Chunk, body: &Body<S>, table: &Arc<StrTable>) -> bool {
        let coded = chunk.col(PAYLOAD).and_then(ColumnVec::table);
        Arc::ptr_eq(chunk.schema(), self.empty_chunk(body).schema())
            && coded.is_none_or(|t| Arc::ptr_eq(t, table))
    }

    /// Append a decoded reading's row directly to a columnar chunk of its
    /// kind schema — the chunk-path twin of [`ReadingSchemas::to_tuple`],
    /// with no per-reading tuple or row-vector allocation.
    pub fn append_to_chunk(&self, reading: &Reading, chunk: &mut Chunk) -> Result<()> {
        match reading {
            Reading::Scalar {
                receptor,
                ts,
                value,
            } => chunk.push_row_owned(
                *ts,
                [Value::Int(i64::from(receptor.0)), Value::Float(*value)],
            ),
            Reading::Tag {
                receptor,
                ts,
                tag_id,
            } => chunk.push_row_owned(*ts, [Value::Int(i64::from(receptor.0)), Value::str(tag_id)]),
            Reading::Event {
                receptor,
                ts,
                value,
            } => chunk.push_row_owned(*ts, [Value::Int(i64::from(receptor.0)), Value::str(value)]),
            Reading::Dual { receptor, ts, a, b } => chunk.push_row_owned(
                *ts,
                [
                    Value::Int(i64::from(receptor.0)),
                    Value::Float(*a),
                    Value::Float(*b),
                ],
            ),
        }
    }
}

/// End of a receptor's chain of entries.
const END: usize = usize::MAX;

/// One shard's share of a hand-off: every validated frame's fields in
/// arrival order, each entry linked to the next entry of its receptor,
/// and the string payloads back to back in one buffer. A connection
/// reader fills one per shard ([`crate::protocol::Reader`] extends it
/// with `(seq, frame)` entries borrowed from its read buffer); the worker
/// walks it receptor by receptor, appending each receptor's rows to its
/// buffer under one lock. A batch costs a few allocations however many
/// readings and receptors it holds: a string payload is copied into the
/// batch here and allocated once, as the value its column holds, by the
/// worker.
#[derive(Debug, Default)]
pub(crate) struct ShardBatch {
    /// Per receptor, in order of first arrival: its id and its first and
    /// last entry.
    receptors: Vec<(ReceptorId, usize, usize)>,
    /// Receptor → index in `receptors`.
    index: HashMap<ReceptorId, usize>,
    entries: Vec<Entry>,
    /// Every string payload; an entry's body holds its byte range.
    text: String,
}

#[derive(Debug, Clone, Copy)]
struct Entry {
    seq: u64,
    ts: Ts,
    body: Body<(usize, usize)>,
    /// The receptor's next entry, or [`END`].
    next: usize,
}

impl ShardBatch {
    /// Entries in the batch.
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    /// Rewrite every entry's sequence tag through `f`.
    pub(crate) fn map_seqs(&mut self, f: impl Fn(u64) -> u64) {
        for e in &mut self.entries {
            e.seq = f(e.seq);
        }
    }

    /// Each receptor in the batch, in order of first arrival, with its
    /// `(seq, ts, body)` rows in arrival order.
    pub(crate) fn receptors(&self) -> impl Iterator<Item = (ReceptorId, Rows<'_>)> {
        self.receptors.iter().map(|&(receptor, first, _)| {
            let rows = Rows {
                batch: self,
                next: first,
            };
            (receptor, rows)
        })
    }

    fn push(&mut self, seq: u64, frame: Frame<&str>) {
        let at = self.entries.len();
        let body = frame.body.map(|s| {
            let start = self.text.len();
            self.text.push_str(s);
            (start, self.text.len())
        });
        self.entries.push(Entry {
            seq,
            ts: frame.ts,
            body,
            next: END,
        });
        match self.index.entry(frame.receptor) {
            hash_map::Entry::Occupied(k) => {
                let tail = std::mem::replace(&mut self.receptors[*k.get()].2, at);
                self.entries[tail].next = at;
            }
            hash_map::Entry::Vacant(slot) => {
                slot.insert(self.receptors.len());
                self.receptors.push((frame.receptor, at, at));
            }
        }
    }
}

impl<'a> Extend<(u64, Frame<&'a str>)> for ShardBatch {
    fn extend<I: IntoIterator<Item = (u64, Frame<&'a str>)>>(&mut self, entries: I) {
        for (seq, frame) in entries {
            self.push(seq, frame);
        }
    }
}

/// One receptor's rows in a [`ShardBatch`].
pub(crate) struct Rows<'a> {
    batch: &'a ShardBatch,
    next: usize,
}

impl<'a> Iterator for Rows<'a> {
    type Item = (u64, Ts, Body<&'a str>);

    fn next(&mut self) -> Option<Self::Item> {
        let e = self.batch.entries.get(self.next)?;
        self.next = e.next;
        let text = &self.batch.text;
        let body = e.body.map(|(start, end)| &text[start..end]);
        Some((e.seq, e.ts, body))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use esp_types::{ReceptorId, Ts};

    #[test]
    fn every_kind_maps_to_its_simulator_schema() {
        let s = ReadingSchemas::new();
        let cases: Vec<(Reading, &str, usize)> = vec![
            (
                Reading::Scalar {
                    receptor: ReceptorId(1),
                    ts: Ts::from_secs(1),
                    value: 20.5,
                },
                well_known::TEMP,
                2,
            ),
            (
                Reading::Tag {
                    receptor: ReceptorId(2),
                    ts: Ts::from_secs(2),
                    tag_id: "t".into(),
                },
                well_known::TAG_ID,
                2,
            ),
            (
                Reading::Event {
                    receptor: ReceptorId(3),
                    ts: Ts::from_secs(3),
                    value: "ON".into(),
                },
                well_known::VALUE,
                2,
            ),
            (
                Reading::Dual {
                    receptor: ReceptorId(4),
                    ts: Ts::from_secs(4),
                    a: 20.0,
                    b: 2.9,
                },
                well_known::VOLTAGE,
                3,
            ),
        ];
        for (reading, field, width) in cases {
            let t = s.to_tuple(&reading);
            assert_eq!(t.ts(), reading.ts());
            assert!(t.get(field).is_some(), "{field} missing for {reading:?}");
            assert_eq!(t.values().len(), width);
            assert_eq!(
                t.get(well_known::RECEPTOR_ID),
                Some(&Value::Int(i64::from(reading.receptor().0)))
            );
        }
    }

    #[test]
    fn append_to_chunk_matches_to_tuple() {
        let s = ReadingSchemas::new();
        let readings = vec![
            Reading::Scalar {
                receptor: ReceptorId(1),
                ts: Ts::from_secs(1),
                value: 20.5,
            },
            Reading::Tag {
                receptor: ReceptorId(2),
                ts: Ts::from_secs(2),
                tag_id: "t".into(),
            },
            Reading::Event {
                receptor: ReceptorId(3),
                ts: Ts::from_secs(3),
                value: "ON".into(),
            },
            Reading::Dual {
                receptor: ReceptorId(4),
                ts: Ts::from_secs(4),
                a: 20.0,
                b: 2.9,
            },
        ];
        for r in &readings {
            let mut chunk = Chunk::new(s.schema_for(r));
            s.append_to_chunk(r, &mut chunk).unwrap();
            assert_eq!(chunk.to_tuples(), vec![s.to_tuple(r)]);
            assert!(Arc::ptr_eq(chunk.schema(), s.schema_for(r)));
        }
    }

    #[test]
    fn schema_arcs_are_shared_across_conversions() {
        let s = ReadingSchemas::new();
        let a = s.to_tuple(&Reading::Scalar {
            receptor: ReceptorId(1),
            ts: Ts::ZERO,
            value: 1.0,
        });
        let b = s.to_tuple(&Reading::Scalar {
            receptor: ReceptorId(2),
            ts: Ts::ZERO,
            value: 2.0,
        });
        assert!(
            Arc::ptr_eq(a.schema(), b.schema()),
            "injector cache depends on this"
        );
    }
}
