//! Binary state codec for durability snapshots.
//!
//! Checkpointing a pipeline means serializing window buffers and stage
//! aggregates — which bottom out in [`Value`], [`Schema`], and [`Tuple`].
//! Those live here, at the dependency root, so `esp-stream` operators,
//! `esp-core` stages, and the `esp-durability` snapshot files all speak
//! one wire form.
//!
//! The format is deliberately dumb: fixed-width big-endian integers,
//! length-prefixed strings, one tag byte per enum. No self-description,
//! no compression — snapshot files carry their own version header and a
//! checksum (see `esp-durability`), so the codec only has to be
//! deterministic and total. Batches dedup schemas through a small table:
//! every tuple in a batch shares a handful of `Arc<Schema>`s, so the
//! schema is written once and referenced by index.
//!
//! Decoding is paranoid by construction: every read is bounds-checked
//! ([`Cursor`]), every tag validated, and [`Cursor::finish`] rejects
//! trailing garbage — a truncated or bit-flipped snapshot surfaces as an
//! [`EspError::Snapshot`], never as silently wrong state.

use std::sync::Arc;

use crate::{DataType, EspError, Field, Result, Schema, Ts, Tuple, Value};

/// Bounds-checked reader over an encoded state buffer.
#[derive(Debug)]
pub struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    /// Start reading at the beginning of `buf`.
    pub fn new(buf: &'a [u8]) -> Cursor<'a> {
        Cursor { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Error unless the buffer was consumed exactly.
    pub fn finish(self) -> Result<()> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(EspError::Snapshot(format!(
                "{} trailing byte(s) after decoded state",
                self.remaining()
            )))
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.remaining() < n {
            return Err(EspError::Snapshot(format!(
                "state truncated: wanted {n} byte(s) at offset {}, have {}",
                self.pos,
                self.remaining()
            )));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Read one byte.
    pub fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    /// Read a big-endian `u16`.
    pub fn u16(&mut self) -> Result<u16> {
        let b = self.take(2)?;
        Ok(u16::from_be_bytes([b[0], b[1]]))
    }

    /// Read a big-endian `u32`.
    pub fn u32(&mut self) -> Result<u32> {
        let b = self.take(4)?;
        Ok(u32::from_be_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Read a big-endian `u64`.
    pub fn u64(&mut self) -> Result<u64> {
        let b = self.take(8)?;
        Ok(u64::from_be_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Read a big-endian `i64`.
    pub fn i64(&mut self) -> Result<i64> {
        Ok(self.u64()? as i64)
    }

    /// Read an `f64` by bit pattern.
    pub fn f64(&mut self) -> Result<f64> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Read `n` raw bytes.
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8]> {
        self.take(n)
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String> {
        let n = self.u32()? as usize;
        let b = self.take(n)?;
        String::from_utf8(b.to_vec())
            .map_err(|e| EspError::Snapshot(format!("non-UTF-8 string in state: {e}")))
    }
}

/// Append one byte.
pub fn put_u8(out: &mut Vec<u8>, v: u8) {
    out.push(v);
}

/// Append a big-endian `u16`.
pub fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_be_bytes());
}

/// Append a big-endian `u32`.
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_be_bytes());
}

/// Append a big-endian `u64`.
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_be_bytes());
}

/// Append a big-endian `i64`.
pub fn put_i64(out: &mut Vec<u8>, v: i64) {
    out.extend_from_slice(&v.to_be_bytes());
}

/// Append an `f64` by bit pattern (NaNs round-trip exactly).
pub fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_bits().to_be_bytes());
}

/// Append a length-prefixed UTF-8 string.
pub fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

/// Encode one [`Value`] (tag byte + payload).
pub fn encode_value(out: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Null => put_u8(out, 0),
        Value::Bool(b) => {
            put_u8(out, 1);
            put_u8(out, u8::from(*b));
        }
        Value::Int(i) => {
            put_u8(out, 2);
            put_i64(out, *i);
        }
        Value::Float(f) => {
            put_u8(out, 3);
            put_f64(out, *f);
        }
        Value::Str(s) => {
            put_u8(out, 4);
            put_str(out, s);
        }
        Value::Ts(t) => {
            put_u8(out, 5);
            put_u64(out, t.as_millis());
        }
    }
}

/// Decode one [`Value`].
pub fn decode_value(cur: &mut Cursor<'_>) -> Result<Value> {
    Ok(match cur.u8()? {
        0 => Value::Null,
        1 => Value::Bool(cur.u8()? != 0),
        2 => Value::Int(cur.i64()?),
        3 => Value::Float(cur.f64()?),
        4 => Value::Str(Arc::from(cur.str()?)),
        5 => Value::Ts(Ts::from_millis(cur.u64()?)),
        tag => {
            return Err(EspError::Snapshot(format!(
                "unknown value tag {tag:#04x} in state"
            )))
        }
    })
}

/// Encode a short value list (`u16` count + values): a grouping key, a
/// row of key values.
pub fn encode_values(out: &mut Vec<u8>, vals: &[Value]) {
    put_u16(out, vals.len() as u16);
    for v in vals {
        encode_value(out, v);
    }
}

/// Decode a value list written by [`encode_values`].
pub fn decode_values(cur: &mut Cursor<'_>) -> Result<Vec<Value>> {
    let mut vals = Vec::new();
    for _ in 0..cur.u16()? {
        vals.push(decode_value(cur)?);
    }
    Ok(vals)
}

fn datatype_tag(dt: DataType) -> u8 {
    match dt {
        DataType::Bool => 0,
        DataType::Int => 1,
        DataType::Float => 2,
        DataType::Str => 3,
        DataType::Ts => 4,
        DataType::Any => 5,
    }
}

fn datatype_from_tag(tag: u8) -> Result<DataType> {
    Ok(match tag {
        0 => DataType::Bool,
        1 => DataType::Int,
        2 => DataType::Float,
        3 => DataType::Str,
        4 => DataType::Ts,
        5 => DataType::Any,
        _ => {
            return Err(EspError::Snapshot(format!(
                "unknown datatype tag {tag:#04x} in state"
            )))
        }
    })
}

/// Encode a [`Schema`] (field count + name/type pairs).
pub fn encode_schema(out: &mut Vec<u8>, schema: &Schema) {
    put_u16(out, schema.len() as u16);
    for f in schema.fields() {
        put_str(out, &f.name);
        put_u8(out, datatype_tag(f.data_type));
    }
}

/// Decode a [`Schema`].
pub fn decode_schema(cur: &mut Cursor<'_>) -> Result<Arc<Schema>> {
    let n = cur.u16()? as usize;
    let mut fields = Vec::with_capacity(n);
    for _ in 0..n {
        let name = cur.str()?;
        let dt = datatype_from_tag(cur.u8()?)?;
        fields.push(Field::new(name, dt));
    }
    Schema::new(fields).map_err(|e| EspError::Snapshot(format!("invalid schema in state: {e}")))
}

/// Encode a batch of tuples with schema deduplication: the distinct
/// schemas (by `Arc` identity) are written once as a table, then each
/// tuple references its schema by index.
pub fn encode_batch(out: &mut Vec<u8>, batch: &[Tuple]) {
    let mut schemas: Vec<Arc<Schema>> = Vec::new();
    let mut index: Vec<u16> = Vec::with_capacity(batch.len());
    for t in batch {
        let pos = schemas
            .iter()
            .position(|s| Arc::ptr_eq(s, t.schema()))
            .unwrap_or_else(|| {
                schemas.push(Arc::clone(t.schema()));
                schemas.len() - 1
            });
        index.push(pos as u16);
    }
    put_u16(out, schemas.len() as u16);
    for s in &schemas {
        encode_schema(out, s);
    }
    put_u32(out, batch.len() as u32);
    for (t, &si) in batch.iter().zip(&index) {
        put_u16(out, si);
        put_u64(out, t.ts().as_millis());
        for v in t.values() {
            encode_value(out, v);
        }
    }
}

/// Decode a batch encoded by [`encode_batch`]. Tuples sharing a schema
/// table entry come back sharing one `Arc<Schema>`.
pub fn decode_batch(cur: &mut Cursor<'_>) -> Result<Vec<Tuple>> {
    let n_schemas = cur.u16()? as usize;
    let mut schemas = Vec::with_capacity(n_schemas);
    for _ in 0..n_schemas {
        schemas.push(decode_schema(cur)?);
    }
    let n = cur.u32()? as usize;
    let mut batch = Vec::with_capacity(n.min(1 << 20));
    for _ in 0..n {
        let si = cur.u16()? as usize;
        let schema = schemas
            .get(si)
            .ok_or_else(|| {
                EspError::Snapshot(format!(
                    "tuple references schema {si} but table has {n_schemas}"
                ))
            })
            .map(Arc::clone)?;
        let ts = Ts::from_millis(cur.u64()?);
        let mut values = Vec::with_capacity(schema.len());
        for _ in 0..schema.len() {
            values.push(decode_value(cur)?);
        }
        batch.push(Tuple::new_unchecked(schema, ts, values));
    }
    Ok(batch)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TupleBuilder;

    fn all_values() -> Vec<Value> {
        vec![
            Value::Null,
            Value::Bool(true),
            Value::Bool(false),
            Value::Int(-42),
            Value::Int(i64::MAX),
            Value::Float(3.5),
            Value::Float(f64::NAN),
            Value::Float(-0.0),
            Value::str("tag-1"),
            Value::str(""),
            Value::Ts(Ts::from_millis(12345)),
        ]
    }

    #[test]
    fn values_round_trip() {
        for v in all_values() {
            let mut out = Vec::new();
            encode_value(&mut out, &v);
            let mut cur = Cursor::new(&out);
            let back = decode_value(&mut cur).unwrap();
            cur.finish().unwrap();
            // Value PartialEq is group-key equality: NaN == NaN here.
            assert_eq!(back, v);
        }
    }

    #[test]
    fn batch_round_trips_and_dedups_schemas() {
        let schema = Schema::builder()
            .field("tag_id", DataType::Str)
            .field("rssi", DataType::Float)
            .build()
            .unwrap();
        let batch: Vec<Tuple> = (0..10)
            .map(|i| {
                TupleBuilder::new(&schema, Ts::from_millis(i * 100))
                    .set("tag_id", format!("t{i}"))
                    .unwrap()
                    .set("rssi", i as f64)
                    .unwrap()
                    .build()
                    .unwrap()
            })
            .collect();
        let mut out = Vec::new();
        encode_batch(&mut out, &batch);
        let mut cur = Cursor::new(&out);
        let back = decode_batch(&mut cur).unwrap();
        cur.finish().unwrap();
        assert_eq!(back.len(), batch.len());
        for (a, b) in back.iter().zip(&batch) {
            assert_eq!(a.ts(), b.ts());
            assert_eq!(a.values(), b.values());
            assert_eq!(a.schema().to_string(), b.schema().to_string());
        }
        // The ten tuples shared one schema; decoded tuples share one too.
        assert!(back
            .windows(2)
            .all(|w| Arc::ptr_eq(w[0].schema(), w[1].schema())));
    }

    #[test]
    fn truncation_is_an_error_not_a_panic() {
        let schema = Schema::builder().field("x", DataType::Int).build().unwrap();
        let t = TupleBuilder::new(&schema, Ts::ZERO)
            .set("x", 7i64)
            .unwrap()
            .build()
            .unwrap();
        let mut out = Vec::new();
        encode_batch(&mut out, &[t]);
        for cut in 0..out.len() {
            let mut cur = Cursor::new(&out[..cut]);
            assert!(
                decode_batch(&mut cur).is_err() || cur.finish().is_err(),
                "prefix of {cut} bytes decoded cleanly"
            );
        }
    }

    #[test]
    fn bad_tags_are_rejected() {
        let mut cur = Cursor::new(&[9]);
        assert!(matches!(decode_value(&mut cur), Err(EspError::Snapshot(_))));
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let mut out = Vec::new();
        encode_value(&mut out, &Value::Int(1));
        out.push(0xee);
        let mut cur = Cursor::new(&out);
        decode_value(&mut cur).unwrap();
        assert!(cur.finish().is_err());
    }
}
