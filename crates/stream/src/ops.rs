//! Generic building-block operators.
//!
//! These are language-agnostic dataflow pieces; the query engine and the ESP
//! stages compose or specialize them. The forwarding operators
//! ([`PassThrough`], [`UnionOp`], [`MapOp`]) buffer an epoch's arrivals as
//! one [`Payload`], chunks concatenated in arrival order; the per-tuple
//! ones ([`FilterOp`], [`EpochFnOp`]) read rows and hand rows back.

use esp_types::{Batch, Chunk, Result, Ts, Tuple};

use crate::operator::{Operator, Payload};

/// Forwards its input unchanged. Useful as a named junction point and in
/// tests.
#[derive(Default)]
pub struct PassThrough {
    buf: Payload,
}

impl PassThrough {
    /// Create a pass-through operator.
    pub fn new() -> PassThrough {
        PassThrough::default()
    }
}

impl Operator for PassThrough {
    fn name(&self) -> &str {
        "pass-through"
    }

    fn push(&mut self, _port: usize, input: Payload) -> Result<()> {
        self.buf.append(input);
        Ok(())
    }

    fn flush(&mut self, _epoch: Ts) -> Result<Payload> {
        Ok(std::mem::take(&mut self.buf))
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

    fn push(&mut self, _port: usize, input: Payload) -> Result<()> {
        let pred = &self.pred;
        self.buf
            .extend(input.into_rows().into_iter().filter(|t| pred(t)));
        Ok(())
    }

    fn flush(&mut self, _epoch: Ts) -> Result<Payload> {
        Ok(Payload::from(std::mem::take(&mut self.buf)))
    }
}

/// Whole-chunk transform driven by a closure: each arriving chunk maps to
/// a replacement (`None` drops it); returning an error aborts the epoch.
pub struct MapOp<F> {
    name: String,
    f: F,
    buf: Vec<Chunk>,
}

impl<F: Fn(Chunk) -> Result<Option<Chunk>> + Send> MapOp<F> {
    /// Create a map/transform operator.
    pub fn new(name: impl Into<String>, f: F) -> MapOp<F> {
        MapOp {
            name: name.into(),
            f,
            buf: Vec::new(),
        }
    }
}

impl<F: Fn(Chunk) -> Result<Option<Chunk>> + Send> Operator for MapOp<F> {
    fn name(&self) -> &str {
        &self.name
    }

    fn push(&mut self, _port: usize, input: Payload) -> Result<()> {
        for chunk in input.into_chunks() {
            if let Some(out) = (self.f)(chunk)? {
                self.buf.push(out);
            }
        }
        Ok(())
    }

    fn flush(&mut self, _epoch: Ts) -> Result<Payload> {
        Ok(Payload::from(std::mem::take(&mut self.buf)))
    }
}

/// N-way stream union. The paper's Arbitrate stage runs over "the union of
/// the streams produced by Query 2" — this is that union. Arrivals are
/// forwarded in arrival order.
pub struct UnionOp {
    n_inputs: usize,
    buf: Payload,
}

impl UnionOp {
    /// Create a union over `n_inputs` streams.
    pub fn new(n_inputs: usize) -> UnionOp {
        UnionOp {
            n_inputs,
            buf: Payload::empty(),
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

    fn push(&mut self, _port: usize, input: Payload) -> Result<()> {
        self.buf.append(input);
        Ok(())
    }

    fn flush(&mut self, _epoch: Ts) -> Result<Payload> {
        Ok(std::mem::take(&mut self.buf))
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

    fn push(&mut self, _port: usize, input: Payload) -> Result<()> {
        self.buf.extend(input.into_rows());
        Ok(())
    }

    fn flush(&mut self, epoch: Ts) -> Result<Payload> {
        (self.f)(epoch, std::mem::take(&mut self.buf)).map(Payload::from)
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
        f.push(0, vec![tup(1), tup(2), tup(3), tup(4)].into())
            .unwrap();
        let out = f.flush(Ts::ZERO).unwrap();
        assert_eq!(out.len(), 2);
        // Flush drains: second flush is empty.
        assert!(f.flush(Ts::ZERO).unwrap().is_empty());
    }

    #[test]
    fn map_transforms_and_drops() {
        // Keeps each chunk's even rows; a chunk left empty is dropped.
        let mut m = MapOp::new("evens", |c: Chunk| {
            let keep: Vec<bool> = (0..c.len())
                .map(|i| {
                    c.value_at(i, 0)
                        .and_then(|v| v.as_i64())
                        .is_some_and(|v| v % 2 == 0)
                })
                .collect();
            let kept = c.filter(&keep)?;
            Ok((!kept.is_empty()).then_some(kept))
        });
        m.push(0, vec![chunk(&[4, 3]), chunk(&[1])].into()).unwrap();
        let out = m.flush(Ts::ZERO).unwrap();
        assert_eq!(out.chunks().len(), 1);
        assert_eq!(values(out), vec![4]);
    }

    #[test]
    fn map_propagates_errors() {
        let mut m = MapOp::new("boom", |_c: Chunk| -> Result<Option<Chunk>> {
            Err(esp_types::EspError::Stage("boom".into()))
        });
        assert!(m.push(0, vec![tup(1)].into()).is_err());
    }

    #[test]
    fn union_merges_ports() {
        let mut u = UnionOp::new(3);
        assert_eq!(u.n_inputs(), 3);
        u.push(0, vec![tup(1)].into()).unwrap();
        u.push(2, vec![tup(2), tup(3)].into()).unwrap();
        u.push(1, Payload::empty()).unwrap();
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
        op.push(0, vec![tup(1), tup(2)].into()).unwrap();
        op.push(0, vec![tup(3)].into()).unwrap();
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
        u.push(0, vec![chunk(&[1, 2])].into()).unwrap();
        u.push(1, vec![chunk(&[3])].into()).unwrap();
        let out = u.flush(Ts::ZERO).unwrap();
        assert_eq!(out.chunks().len(), 2, "chunks are forwarded, not re-cut");
        assert_eq!(values(out), vec![1, 2, 3]);
        // Rows converted at the boundary interleave with chunk arrivals in
        // arrival order.
        u.push(0, vec![tup(1)].into()).unwrap();
        u.push(1, vec![chunk(&[2])].into()).unwrap();
        u.push(0, vec![tup(3)].into()).unwrap();
        assert_eq!(values(u.flush(Ts::ZERO).unwrap()), vec![1, 2, 3]);
        // Nothing buffered: an empty payload.
        assert!(u.flush(Ts::ZERO).unwrap().chunks().is_empty());
    }
}
