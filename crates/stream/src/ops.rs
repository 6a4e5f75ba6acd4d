//! Generic building-block stages.
//!
//! These are language-agnostic dataflow pieces that the ESP processor
//! wires between its cleaning stages: [`MapOp`] transforms each chunk of
//! an epoch's input, and [`UnionOp`] forwards it unchanged.

use esp_types::{Chunk, Result, Ts};

use crate::operator::{Payload, Stage};

/// Whole-chunk transform driven by a closure: each arriving chunk maps to
/// a replacement (`None` drops it); returning an error aborts the epoch.
pub struct MapOp<F> {
    name: String,
    f: F,
}

impl<F: Fn(Chunk) -> Result<Option<Chunk>> + Send> MapOp<F> {
    /// Create a map/transform stage.
    pub fn new(name: impl Into<String>, f: F) -> MapOp<F> {
        MapOp {
            name: name.into(),
            f,
        }
    }
}

impl<F: Fn(Chunk) -> Result<Option<Chunk>> + Send> Stage for MapOp<F> {
    fn name(&self) -> &str {
        &self.name
    }

    fn process(&mut self, _epoch: Ts, input: Payload) -> Result<Payload> {
        let mut out = Vec::with_capacity(input.chunks().len());
        for chunk in input.into_chunks() {
            if let Some(mapped) = (self.f)(chunk)? {
                out.push(mapped);
            }
        }
        Ok(Payload::from(out))
    }
}

/// Stream union. The paper's Arbitrate stage runs over "the union of the
/// streams produced by Query 2" — this is that union. The runner already
/// appends every upstream output into one input, in wiring order, so the
/// union forwards its input unchanged; it exists as the fan-in node that
/// names the junction.
#[derive(Default)]
pub struct UnionOp;

impl UnionOp {
    /// Create a union; its inputs are whatever the dataflow wires to it.
    pub fn new() -> UnionOp {
        UnionOp
    }
}

impl Stage for UnionOp {
    fn name(&self) -> &str {
        "union"
    }

    fn process(&mut self, _epoch: Ts, input: Payload) -> Result<Payload> {
        Ok(input)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use esp_types::{DataType, Schema, Tuple, Value};

    fn tup(v: i64) -> Tuple {
        let schema = Schema::builder().field("v", DataType::Int).build().unwrap();
        Tuple::new(schema, Ts::ZERO, vec![Value::Int(v)]).unwrap()
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
        let out = m
            .process(Ts::ZERO, vec![chunk(&[4, 3]), chunk(&[1])].into())
            .unwrap();
        assert_eq!(out.chunks().len(), 1);
        assert_eq!(values(out), vec![4]);
    }

    #[test]
    fn map_propagates_errors() {
        let mut m = MapOp::new("boom", |_c: Chunk| -> Result<Option<Chunk>> {
            Err(esp_types::EspError::Stage("boom".into()))
        });
        assert!(m.process(Ts::ZERO, vec![tup(1)].into()).is_err());
    }

    #[test]
    fn union_merges_ports() {
        // The runner hands the union every port's output appended in
        // wiring order; the union passes that payload through.
        let mut input = Payload::from(vec![tup(1)]);
        input.append(Payload::from(vec![tup(2), tup(3)]));
        input.append(Payload::empty());
        let out = UnionOp::new().process(Ts::ZERO, input).unwrap();
        assert_eq!(values(out), vec![1, 2, 3]);
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
        let mut u = UnionOp::new();
        let mut input = Payload::from(vec![chunk(&[1, 2])]);
        input.append(vec![chunk(&[3])].into());
        let out = u.process(Ts::ZERO, input).unwrap();
        assert_eq!(out.chunks().len(), 2, "chunks are forwarded, not re-cut");
        assert_eq!(values(out), vec![1, 2, 3]);
        // Rows converted at the boundary interleave with chunk arrivals in
        // arrival order.
        let mut input = Payload::from(vec![tup(1)]);
        input.append(vec![chunk(&[2])].into());
        input.append(vec![tup(3)].into());
        assert_eq!(values(u.process(Ts::ZERO, input).unwrap()), vec![1, 2, 3]);
        // No input: an empty payload.
        assert!(u
            .process(Ts::ZERO, Payload::empty())
            .unwrap()
            .chunks()
            .is_empty());
    }
}
