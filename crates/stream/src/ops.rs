//! Generic building-block operators.
//!
//! These are language-agnostic dataflow pieces; the query engine and the ESP
//! stages compose or specialize them.

use esp_types::{Batch, Chunk, Result, Ts, Tuple};

use crate::operator::{Operator, Payload};

/// Order-preserving buffer of one epoch's arrivals. The epoch's output
/// stays columnar when *every* arrival was chunks; any row arrival
/// demotes the whole epoch to rows (order is the contract, and
/// interleaving rows between chunks has no columnar form).
///
/// This is the standard input buffer for chunk-aware forwarding operators
/// ([`PassThrough`], [`UnionOp`], [`MapOp`], the ESP stage adapter).
#[derive(Debug, Default)]
pub struct SegBuf {
    segs: Vec<Payload>,
}

impl SegBuf {
    /// Number of tuples buffered across all arrivals.
    pub fn len(&self) -> usize {
        self.segs.iter().map(Payload::len).sum()
    }

    /// True when no tuples are buffered.
    pub fn is_empty(&self) -> bool {
        self.segs.is_empty()
    }

    /// Append one arrival (empty payloads are dropped).
    pub fn push(&mut self, input: Payload) {
        if !input.is_empty() {
            self.segs.push(input);
        }
    }

    /// Drain the buffer into one payload, concatenating in arrival order:
    /// columnar iff every arrival was chunks, otherwise rows.
    pub fn take(&mut self) -> Payload {
        let mut segs = std::mem::take(&mut self.segs).into_iter();
        let Some(mut out) = segs.next() else {
            return Payload::empty();
        };
        for seg in segs {
            out = match (out, seg) {
                (Payload::Chunks(mut a), Payload::Chunks(b)) => {
                    a.extend(b);
                    Payload::Chunks(a)
                }
                (a, b) => {
                    let mut rows = a.into_rows();
                    rows.extend(b.into_rows());
                    Payload::Rows(rows)
                }
            };
        }
        out
    }
}

/// Forwards its input unchanged. Useful as a named junction point and in
/// tests. Chunk arrivals are forwarded columnar.
pub struct PassThrough {
    buf: SegBuf,
}

impl PassThrough {
    /// Create a pass-through operator.
    pub fn new() -> PassThrough {
        PassThrough {
            buf: SegBuf::default(),
        }
    }
}

impl Default for PassThrough {
    fn default() -> Self {
        Self::new()
    }
}

impl Operator for PassThrough {
    fn name(&self) -> &str {
        "pass-through"
    }

    fn push(&mut self, _port: usize, input: &Payload) -> Result<()> {
        self.buf.push(input.clone());
        Ok(())
    }

    fn flush(&mut self, _epoch: Ts) -> Result<Payload> {
        Ok(self.buf.take())
    }
}

/// Per-tuple filter driven by a predicate closure.
pub struct FilterOp<F> {
    name: String,
    pred: F,
    buf: Batch,
}

impl<F: Fn(&Tuple) -> bool + Send> FilterOp<F> {
    /// Create a filter retaining tuples for which `pred` returns true.
    pub fn new(name: impl Into<String>, pred: F) -> FilterOp<F> {
        FilterOp {
            name: name.into(),
            pred,
            buf: Batch::new(),
        }
    }
}

impl<F: Fn(&Tuple) -> bool + Send> Operator for FilterOp<F> {
    fn name(&self) -> &str {
        &self.name
    }

    fn push(&mut self, _port: usize, input: &Payload) -> Result<()> {
        let rows = input.rows();
        self.buf
            .extend(rows.iter().filter(|t| (self.pred)(t)).cloned());
        Ok(())
    }

    fn flush(&mut self, _epoch: Ts) -> Result<Payload> {
        Ok(Payload::Rows(std::mem::take(&mut self.buf)))
    }
}

/// Per-tuple transform driven by a closure. Returning `None` drops the
/// tuple (filter-map semantics); returning an error aborts the epoch.
///
/// An optional whole-chunk transform ([`MapOp::with_chunk_fn`]) lets the
/// operator consume and emit columnar batches without materializing rows;
/// without one, chunk arrivals are materialized for the per-tuple closure.
pub struct MapOp<F> {
    name: String,
    f: F,
    #[allow(clippy::type_complexity)]
    chunk_f: Option<Box<dyn Fn(&Chunk) -> Result<Option<Chunk>> + Send>>,
    buf: SegBuf,
}

impl<F: Fn(&Tuple) -> Result<Option<Tuple>> + Send> MapOp<F> {
    /// Create a map/transform operator.
    pub fn new(name: impl Into<String>, f: F) -> MapOp<F> {
        MapOp {
            name: name.into(),
            f,
            chunk_f: None,
            buf: SegBuf::default(),
        }
    }

    /// Attach a whole-chunk transform, used for chunk arrivals instead of
    /// the per-tuple closure. The two must agree semantically (same rows
    /// out for the same rows in); returning `None` drops the whole chunk.
    pub fn with_chunk_fn(
        mut self,
        cf: impl Fn(&Chunk) -> Result<Option<Chunk>> + Send + 'static,
    ) -> MapOp<F> {
        self.chunk_f = Some(Box::new(cf));
        self
    }
}

impl<F: Fn(&Tuple) -> Result<Option<Tuple>> + Send> Operator for MapOp<F> {
    fn name(&self) -> &str {
        &self.name
    }

    fn push(&mut self, _port: usize, input: &Payload) -> Result<()> {
        let out = match (input, &self.chunk_f) {
            (Payload::Chunks(chunks), Some(cf)) => Payload::Chunks(
                chunks
                    .iter()
                    .filter_map(|c| cf(c).transpose())
                    .collect::<Result<_>>()?,
            ),
            _ => Payload::Rows(
                input
                    .rows()
                    .iter()
                    .filter_map(|t| (self.f)(t).transpose())
                    .collect::<Result<_>>()?,
            ),
        };
        self.buf.push(out);
        Ok(())
    }

    fn flush(&mut self, _epoch: Ts) -> Result<Payload> {
        Ok(self.buf.take())
    }
}

/// N-way stream union. The paper's Arbitrate stage runs over "the union of
/// the streams produced by Query 2" — this is that union. Chunk arrivals
/// are forwarded columnar (in arrival order, matching the row semantics).
pub struct UnionOp {
    n_inputs: usize,
    buf: SegBuf,
}

impl UnionOp {
    /// Create a union over `n_inputs` streams.
    pub fn new(n_inputs: usize) -> UnionOp {
        UnionOp {
            n_inputs,
            buf: SegBuf::default(),
        }
    }
}

impl Operator for UnionOp {
    fn name(&self) -> &str {
        "union"
    }

    fn n_inputs(&self) -> usize {
        self.n_inputs
    }

    fn push(&mut self, _port: usize, input: &Payload) -> Result<()> {
        self.buf.push(input.clone());
        Ok(())
    }

    fn flush(&mut self, _epoch: Ts) -> Result<Payload> {
        Ok(self.buf.take())
    }
}

/// Wraps an arbitrary epoch function: buffers the epoch's input, then emits
/// `f(epoch, input)`. This is the adapter ESP uses for stages implemented
/// as "arbitrary code" (paper §3.3).
pub struct EpochFnOp<F> {
    name: String,
    f: F,
    buf: Batch,
}

impl<F: FnMut(Ts, Vec<Tuple>) -> Result<Batch> + Send> EpochFnOp<F> {
    /// Create an operator from an epoch-level function.
    pub fn new(name: impl Into<String>, f: F) -> EpochFnOp<F> {
        EpochFnOp {
            name: name.into(),
            f,
            buf: Batch::new(),
        }
    }
}

impl<F: FnMut(Ts, Vec<Tuple>) -> Result<Batch> + Send> Operator for EpochFnOp<F> {
    fn name(&self) -> &str {
        &self.name
    }

    fn push(&mut self, _port: usize, input: &Payload) -> Result<()> {
        self.buf.extend_from_slice(&input.rows());
        Ok(())
    }

    fn flush(&mut self, epoch: Ts) -> Result<Payload> {
        (self.f)(epoch, std::mem::take(&mut self.buf)).map(Payload::Rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use esp_types::{DataType, Schema, Value};

    fn tup(v: i64) -> Tuple {
        let schema = Schema::builder().field("v", DataType::Int).build().unwrap();
        Tuple::new(schema, Ts::ZERO, vec![Value::Int(v)]).unwrap()
    }

    #[test]
    fn filter_drops_non_matching() {
        let mut f = FilterOp::new("evens", |t: &Tuple| t.value(0).as_i64().unwrap() % 2 == 0);
        f.push(0, &vec![tup(1), tup(2), tup(3), tup(4)].into())
            .unwrap();
        let out = f.flush(Ts::ZERO).unwrap();
        assert_eq!(out.len(), 2);
        // Flush drains: second flush is empty.
        assert!(f.flush(Ts::ZERO).unwrap().is_empty());
    }

    #[test]
    fn map_transforms_and_drops() {
        let mut m = MapOp::new("halve-evens", |t: &Tuple| {
            let v = t.value(0).as_i64().unwrap();
            if v % 2 == 0 {
                Ok(Some(Tuple::new_unchecked(
                    t.schema().clone(),
                    t.ts(),
                    vec![Value::Int(v / 2)],
                )))
            } else {
                Ok(None)
            }
        });
        m.push(0, &vec![tup(4), tup(3)].into()).unwrap();
        let out = m.flush(Ts::ZERO).unwrap().into_rows();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].value(0), &Value::Int(2));
    }

    #[test]
    fn map_propagates_errors() {
        let mut m = MapOp::new("boom", |_t: &Tuple| {
            Err(esp_types::EspError::Stage("boom".into()))
        });
        assert!(m.push(0, &vec![tup(1)].into()).is_err());
    }

    #[test]
    fn union_merges_ports() {
        let mut u = UnionOp::new(3);
        assert_eq!(u.n_inputs(), 3);
        u.push(0, &vec![tup(1)].into()).unwrap();
        u.push(2, &vec![tup(2), tup(3)].into()).unwrap();
        u.push(1, &Payload::empty()).unwrap();
        assert_eq!(u.flush(Ts::ZERO).unwrap().len(), 3);
    }

    #[test]
    fn epoch_fn_sees_whole_epoch() {
        let mut op = EpochFnOp::new("count", |epoch: Ts, input: Vec<Tuple>| {
            let schema = Schema::builder().field("n", DataType::Int).build().unwrap();
            Ok(vec![Tuple::new(
                schema,
                epoch,
                vec![Value::Int(input.len() as i64)],
            )
            .unwrap()])
        });
        op.push(0, &vec![tup(1), tup(2)].into()).unwrap();
        op.push(0, &vec![tup(3)].into()).unwrap();
        let out = op.flush(Ts::from_secs(1)).unwrap().into_rows();
        assert_eq!(out[0].value(0), &Value::Int(3));
        assert_eq!(out[0].ts(), Ts::from_secs(1));
    }

    fn chunk(vals: &[i64]) -> Chunk {
        let rows: Vec<Tuple> = vals.iter().map(|v| tup(*v)).collect();
        Chunk::from_tuples(rows[0].schema(), &rows).unwrap()
    }

    fn values(p: Payload) -> Vec<i64> {
        p.into_rows()
            .iter()
            .map(|t| t.value(0).as_i64().unwrap())
            .collect()
    }

    #[test]
    fn all_chunk_epoch_stays_columnar_and_mixed_epoch_keeps_arrival_order() {
        let mut u = UnionOp::new(2);
        u.push(0, &vec![chunk(&[1, 2])].into()).unwrap();
        u.push(1, &vec![chunk(&[3])].into()).unwrap();
        let out = u.flush(Ts::ZERO).unwrap();
        assert!(matches!(&out, Payload::Chunks(cs) if cs.len() == 2));
        assert_eq!(values(out), vec![1, 2, 3]);
        // One row arrival demotes the epoch; order is still arrival order.
        u.push(0, &vec![tup(1)].into()).unwrap();
        u.push(1, &vec![chunk(&[2])].into()).unwrap();
        u.push(0, &vec![tup(3)].into()).unwrap();
        let out = u.flush(Ts::ZERO).unwrap();
        assert!(matches!(out, Payload::Rows(_)));
        assert_eq!(values(out), vec![1, 2, 3]);
        // Nothing buffered: an empty row payload.
        assert!(matches!(u.flush(Ts::ZERO).unwrap(), Payload::Rows(b) if b.is_empty()));
    }

    #[test]
    fn map_uses_the_chunk_fn_only_for_chunk_arrivals() {
        let double = |t: &Tuple| {
            let v = t.value(0).as_i64().unwrap();
            Ok(Some(Tuple::new_unchecked(
                t.schema().clone(),
                t.ts(),
                vec![Value::Int(v * 2)],
            )))
        };
        // The chunk fn drops odd-headed chunks, so its use is observable.
        let mut m = MapOp::new("double", double).with_chunk_fn(|c: &Chunk| {
            Ok((c.value_at(0, 0) != Some(Value::Int(1))).then(|| c.clone()))
        });
        m.push(0, &vec![chunk(&[1]), chunk(&[2])].into()).unwrap();
        let out = m.flush(Ts::ZERO).unwrap();
        assert!(matches!(out, Payload::Chunks(_)), "chunk fn keeps columns");
        assert_eq!(values(out), vec![2]);
        m.push(0, &vec![tup(1), tup(2)].into()).unwrap();
        assert_eq!(values(m.flush(Ts::ZERO).unwrap()), vec![2, 4]);
        // Without a chunk fn, chunk arrivals go through the tuple closure.
        let mut plain = MapOp::new("double", double);
        plain.push(0, &vec![chunk(&[1, 2])].into()).unwrap();
        assert_eq!(values(plain.flush(Ts::ZERO).unwrap()), vec![2, 4]);
    }
}
