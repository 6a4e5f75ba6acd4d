//! Stage 1 — **Point**: tuple-level corrections, transformations, filters.
//!
//! Point operates over a single value in a receptor stream (paper §3.2):
//! filtering errant RFID tags or obvious outliers, converting fields, and
//! early elimination of data for performance. The paper's Query 4
//! (`SELECT * FROM point_input WHERE temp < 50`) and the digital-home
//! expected-tag join are both expressible here.
//!
//! # Data path
//!
//! A stage with no ops hands its input payload back untouched. A stage
//! whose ops are all filters ([`PointStage::range_filter`],
//! [`PointStage::expected_values`]) stays columnar: each filter marks a
//! keep-mask straight off its column and the chunk is compacted once by
//! [`Chunk::filter`], so the stage after it (Smooth's columnar fold) still
//! sees packed columns. A [`PointStage::map`] op is arbitrary per-tuple
//! code, so a stage holding one reads its input as rows, runs each row
//! through the ops and hands the survivors back as chunks. Both paths keep
//! and drop exactly the same tuples and count them alike in
//! [`PointStage::dropped`].

use std::collections::HashSet;
use std::sync::Arc;

use esp_stream::{Payload, StageState};
use esp_types::{snap, Batch, Chunk, ColumnVec, Result, Ts, Tuple, Value};

use crate::stage::{Stage, TupleMapFn};

enum PointOp {
    /// Keep tuples whose `field` lies inside `[min, max]` (missing bound =
    /// unbounded). Non-numeric and NULL values are dropped.
    RangeFilter {
        field: String,
        min: Option<f64>,
        max: Option<f64>,
    },
    /// Keep tuples whose `field` is one of the allowed values — the
    /// digital-home "join with a static relation containing expected tag
    /// IDs" (paper §6.1).
    ExpectedValues {
        field: String,
        allowed: HashSet<Arc<str>>,
    },
    /// Arbitrary per-tuple transform; `None` drops the tuple.
    Map(TupleMapFn),
}

/// The built-in Point stage: an ordered chain of tuple-level operations.
pub struct PointStage {
    name: String,
    ops: Vec<PointOp>,
    dropped: u64,
}

impl PointStage {
    /// An empty Point stage (pass-through until ops are added).
    pub fn new(name: impl Into<String>) -> PointStage {
        PointStage {
            name: name.into(),
            ops: Vec::new(),
            dropped: 0,
        }
    }

    /// Append a numeric range filter: keep tuples with
    /// `min <= field <= max` (a missing bound is unbounded). The paper's
    /// Query 4 is `.range_filter("temp", None, Some(50.0))`; for real-valued
    /// sensor data the closed and open bound are indistinguishable.
    pub fn range_filter(
        mut self,
        field: impl Into<String>,
        min: Option<f64>,
        max: Option<f64>,
    ) -> PointStage {
        self.ops.push(PointOp::RangeFilter {
            field: field.into(),
            min,
            max,
        });
        self
    }

    /// Append an expected-values filter on a string field.
    pub fn expected_values<S: AsRef<str>>(
        mut self,
        field: impl Into<String>,
        allowed: impl IntoIterator<Item = S>,
    ) -> PointStage {
        self.ops.push(PointOp::ExpectedValues {
            field: field.into(),
            allowed: allowed.into_iter().map(|s| Arc::from(s.as_ref())).collect(),
        });
        self
    }

    /// Append an arbitrary per-tuple transform.
    pub fn map(
        mut self,
        f: impl FnMut(&Tuple) -> Result<Option<Tuple>> + Send + 'static,
    ) -> PointStage {
        self.ops.push(PointOp::Map(Box::new(f)));
        self
    }

    /// Number of tuples dropped so far (early-elimination accounting; the
    /// paper notes Point "eliminates excess radio communication" when
    /// pushed to the device).
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Run one tuple through the ops; `None` drops it.
    fn apply(&mut self, mut current: Tuple) -> Result<Option<Tuple>> {
        for op in &mut self.ops {
            match op {
                PointOp::RangeFilter { field, min, max } => {
                    if !current.get(field).is_some_and(|v| in_range(v, *min, *max)) {
                        return Ok(None);
                    }
                }
                PointOp::ExpectedValues { field, allowed } => {
                    if !current.get(field).is_some_and(|v| is_expected(v, allowed)) {
                        return Ok(None);
                    }
                }
                PointOp::Map(f) => match f(&current)? {
                    Some(next) => current = next,
                    None => return Ok(None),
                },
            }
        }
        Ok(Some(current))
    }

    /// The columnar form of [`PointStage::apply`] for a stage without
    /// `Map` ops: one keep flag per row of `chunk`. A clean packed column
    /// is tested in place; any other (NULLs present, `ANY`, promoted,
    /// pruned, absent from the schema) reads each slot as a [`Value`].
    fn keep_mask(&self, chunk: &Chunk) -> Vec<bool> {
        let mut keep = vec![true; chunk.len()];
        for op in &self.ops {
            match op {
                PointOp::RangeFilter { field, min, max } => match column(chunk, field) {
                    Some(ColumnVec::Float(p)) if !p.nulls().any() => {
                        let data = p.data();
                        and_mask(&mut keep, |i| within(data[i], *min, *max));
                    }
                    col => and_mask(&mut keep, |i| {
                        slot(col, i).is_some_and(|v| in_range(&v, *min, *max))
                    }),
                },
                PointOp::ExpectedValues { field, allowed } => match column(chunk, field) {
                    Some(ColumnVec::Str(p)) if !p.nulls().any() => {
                        let data = p.data();
                        and_mask(&mut keep, |i| allowed.contains(&data[i]));
                    }
                    col => and_mask(&mut keep, |i| {
                        slot(col, i).is_some_and(|v| is_expected(&v, allowed))
                    }),
                },
                PointOp::Map(_) => unreachable!("a stage with a Map op filters rows"),
            }
        }
        keep
    }
}

fn column<'a>(chunk: &'a Chunk, field: &str) -> Option<&'a ColumnVec> {
    chunk.schema().index_of(field).and_then(|c| chunk.col(c))
}

/// Row `i` of a column, `None` when the schema has no such field.
fn slot(col: Option<&ColumnVec>, i: usize) -> Option<Value> {
    col.and_then(|c| c.get(i))
}

/// `keep[i] &= test(i)`, skipping rows already dropped.
fn and_mask(keep: &mut [bool], test: impl Fn(usize) -> bool) {
    for (i, k) in keep.iter_mut().enumerate() {
        *k = *k && test(i);
    }
}

fn within(x: f64, min: Option<f64>, max: Option<f64>) -> bool {
    !(min.is_some_and(|m| x < m) || max.is_some_and(|m| x > m))
}

fn in_range(v: &Value, min: Option<f64>, max: Option<f64>) -> bool {
    v.as_f64().is_some_and(|x| within(x, min, max))
}

fn is_expected(v: &Value, allowed: &HashSet<Arc<str>>) -> bool {
    matches!(v, Value::Str(s) if allowed.contains(s))
}

impl Stage for PointStage {
    fn name(&self) -> &str {
        &self.name
    }

    fn process(&mut self, _epoch: Ts, input: Payload) -> Result<Payload> {
        if self.ops.is_empty() {
            return Ok(input);
        }
        if self.ops.iter().any(|op| matches!(op, PointOp::Map(_))) {
            let input = input.into_rows();
            let mut out = Batch::with_capacity(input.len());
            for t in input {
                match self.apply(t)? {
                    Some(mapped) => out.push(mapped),
                    None => self.dropped += 1,
                }
            }
            return Ok(Payload::from(out));
        }
        let mut out = Vec::with_capacity(input.chunks().len());
        for chunk in input.into_chunks() {
            let keep = self.keep_mask(&chunk);
            let kept = chunk.filter(&keep)?;
            self.dropped += (keep.len() - kept.len()) as u64;
            out.push(kept);
        }
        Ok(Payload::from(out))
    }

    // Point filters tuples one at a time; the only thing that crosses an
    // epoch boundary is the dropped-readings counter, preserved so
    // recovery does not reset the stage's statistics.
    fn state(&self) -> Result<Option<StageState>> {
        let mut out = Vec::new();
        snap::put_u64(&mut out, self.dropped);
        Ok(Some(StageState(out)))
    }

    fn restore(&mut self, s: &StageState) -> Result<()> {
        let mut cur = snap::Cursor::new(s.bytes());
        self.dropped = cur.u64()?;
        cur.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stage::ProcessRows;
    use esp_types::{well_known, TupleBuilder};

    fn temp(ts: Ts, id: i64, celsius: f64) -> Tuple {
        TupleBuilder::new(&well_known::temp_schema(), ts)
            .set("receptor_id", id)
            .unwrap()
            .set("temp", celsius)
            .unwrap()
            .build()
            .unwrap()
    }

    fn rfid(ts: Ts, tag: &str) -> Tuple {
        TupleBuilder::new(&well_known::rfid_schema(), ts)
            .set("receptor_id", 0i64)
            .unwrap()
            .set("tag_id", tag)
            .unwrap()
            .build()
            .unwrap()
    }

    #[test]
    fn query_4_range_filter() {
        // The paper's Query 4: filter fail-dirty readings above 50 °C.
        let mut stage = PointStage::new("point").range_filter("temp", None, Some(50.0));
        let out = stage
            .process_rows(
                Ts::ZERO,
                vec![
                    temp(Ts::ZERO, 1, 22.5),
                    temp(Ts::ZERO, 2, 104.0),
                    temp(Ts::ZERO, 3, 50.0),
                ],
            )
            .unwrap();
        assert_eq!(out.len(), 2);
        assert_eq!(stage.dropped(), 1);
    }

    #[test]
    fn range_filter_drops_null_and_non_numeric() {
        let mut stage = PointStage::new("point").range_filter("temp", Some(0.0), None);
        let schema = well_known::temp_schema();
        let null_temp = TupleBuilder::new(&schema, Ts::ZERO)
            .set("receptor_id", 1i64)
            .unwrap()
            .build()
            .unwrap();
        let out = stage.process_rows(Ts::ZERO, vec![null_temp]).unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn expected_tags_filter() {
        // Digital home §6.1: antenna 1 occasionally reads an errant tag.
        let mut stage = PointStage::new("point").expected_values("tag_id", ["badge-1", "badge-2"]);
        let out = stage
            .process_rows(
                Ts::ZERO,
                vec![rfid(Ts::ZERO, "badge-1"), rfid(Ts::ZERO, "errant-99")],
            )
            .unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].get("tag_id"), Some(&Value::str("badge-1")));
    }

    #[test]
    fn ops_chain_in_order() {
        let mut stage = PointStage::new("point")
            .range_filter("temp", None, Some(50.0))
            .map(|t| {
                // Fahrenheit conversion as a field transform.
                let c = t.get("temp").and_then(Value::as_f64).unwrap();
                let schema = t.schema().clone();
                Ok(Some(Tuple::new_unchecked(
                    schema,
                    t.ts(),
                    vec![t.value(0).clone(), Value::Float(c * 9.0 / 5.0 + 32.0)],
                )))
            });
        let out = stage
            .process_rows(Ts::ZERO, vec![temp(Ts::ZERO, 1, 20.0)])
            .unwrap();
        assert_eq!(out[0].get("temp"), Some(&Value::Float(68.0)));
    }

    #[test]
    fn empty_stage_is_passthrough() {
        let mut stage = PointStage::new("noop");
        let input = vec![temp(Ts::ZERO, 1, 1.0)];
        let out = stage.process_rows(Ts::ZERO, input.clone()).unwrap();
        assert_eq!(out, input);
    }
}
