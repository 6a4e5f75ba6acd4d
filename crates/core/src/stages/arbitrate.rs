//! Stage 4 — **Arbitrate**: conflict resolution between spatial granules.
//!
//! Receptors' detection fields rarely match spatial granules exactly, so
//! the same RFID tag is often read by the readers of *two* granules at
//! once. Arbitrate de-duplicates by attributing each tag to the granule
//! that read it the most (paper Query 3), exploiting the physical fact
//! that tags closer to a reader are read more often. Ties go to the
//! configured [`TieBreak`] policy; the paper's deployment used "attribute
//! a reading to the weaker antenna if the counts are equal" as crude
//! calibration (§4.3.1).

use std::collections::HashMap;
use std::sync::Arc;

use esp_stream::{Payload, StageState};
use esp_types::{Batch, DataType, Field, Result, Schema, Ts, Tuple, Value, ValueKey};

use crate::stage::Stage;

/// Tie-break policy when two granules read a tag equally often in an epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TieBreak {
    /// Keep the reading in every tied granule (the raw Query 3 `>= ALL`
    /// semantics — both groups satisfy the predicate).
    KeepAll,
    /// Attribute the reading to the listed granule of highest priority
    /// (earliest in the list wins). The paper's crude calibration: list the
    /// weaker antenna's granule first.
    Priority(Vec<Arc<str>>),
}

/// The built-in Arbitrate stage.
///
/// Input tuples must carry `spatial_granule`, a key field (default
/// `tag_id`), and optionally a `count` field (produced by Smooth); a
/// missing count field counts each tuple as one sighting, which is what
/// running Arbitrate directly over raw readings (the Figure 5 ablation)
/// looks like.
pub struct ArbitrateStage {
    name: String,
    key_field: String,
    count_field: String,
    tie_break: TieBreak,
    out_schema: Option<Arc<Schema>>,
}

impl ArbitrateStage {
    /// Arbitrate on `tag_id`/`count` with the given tie-break policy.
    pub fn new(name: impl Into<String>, tie_break: TieBreak) -> ArbitrateStage {
        ArbitrateStage {
            name: name.into(),
            key_field: "tag_id".into(),
            count_field: "count".into(),
            tie_break,
            out_schema: None,
        }
    }

    /// Override the key and count field names.
    pub fn with_fields(
        mut self,
        key_field: impl Into<String>,
        count_field: impl Into<String>,
    ) -> ArbitrateStage {
        self.key_field = key_field.into();
        self.count_field = count_field.into();
        self
    }

    fn schema(&mut self) -> Result<Arc<Schema>> {
        if let Some(s) = &self.out_schema {
            return Ok(Arc::clone(s));
        }
        let s = Schema::new(vec![
            Field::new(esp_types::well_known::SPATIAL_GRANULE, DataType::Str),
            Field::new(&self.key_field, DataType::Any),
            Field::new(&self.count_field, DataType::Int),
        ])?;
        self.out_schema = Some(Arc::clone(&s));
        Ok(s)
    }

    fn priority_of(&self, granule: &Value) -> usize {
        match &self.tie_break {
            TieBreak::KeepAll => 0,
            TieBreak::Priority(order) => match granule {
                Value::Str(s) => order
                    .iter()
                    .position(|g| g.as_ref() == s.as_ref())
                    .unwrap_or(order.len()),
                _ => order.len(),
            },
        }
    }
}

impl Stage for ArbitrateStage {
    fn name(&self) -> &str {
        &self.name
    }

    fn process(&mut self, epoch: Ts, input: Payload) -> Result<Payload> {
        let input = input.into_rows();
        // Sum sightings per (key, granule) over this epoch's input.
        struct PerKey {
            key_value: Value,
            granules: Vec<(Value, i64)>,
        }
        let mut per_key: HashMap<ValueKey, PerKey> = HashMap::new();
        let mut order: Vec<ValueKey> = Vec::new();
        for t in &input {
            let key_value = t.require(&self.key_field)?.clone();
            let granule = t.require(esp_types::well_known::SPATIAL_GRANULE)?.clone();
            let n = match t.get(&self.count_field) {
                Some(Value::Int(n)) => *n,
                Some(Value::Float(f)) => f.round() as i64,
                _ => 1, // raw sighting
            };
            let k = key_value.group_key();
            let entry = per_key.entry(k.clone()).or_insert_with(|| {
                order.push(k);
                PerKey {
                    key_value,
                    granules: Vec::new(),
                }
            });
            match entry
                .granules
                .iter_mut()
                .find(|(g, _)| g.group_key() == granule.group_key())
            {
                Some((_, total)) => *total += n,
                None => entry.granules.push((granule, n)),
            }
        }

        let schema = self.schema()?;
        let mut out = Batch::new();
        for k in &order {
            let entry = &per_key[k];
            let max = entry.granules.iter().map(|(_, n)| *n).max().unwrap_or(0);
            let mut winners: Vec<&(Value, i64)> =
                entry.granules.iter().filter(|(_, n)| *n == max).collect();
            if winners.len() > 1 {
                match &self.tie_break {
                    TieBreak::KeepAll => {}
                    TieBreak::Priority(_) => {
                        winners.sort_by_key(|(g, _)| self.priority_of(g));
                        winners.truncate(1);
                    }
                }
            }
            for (granule, n) in winners {
                out.push(Tuple::new_unchecked(
                    Arc::clone(&schema),
                    epoch,
                    vec![granule.clone(), entry.key_value.clone(), Value::Int(*n)],
                ));
            }
        }
        Ok(Payload::from(out))
    }

    // Arbitrate's candidate sets are rebuilt from each epoch's input —
    // nothing survives an epoch boundary, so checkpoints record nothing
    // and recovery rebuilds the stage from configuration. Stated
    // explicitly (rather than inheriting the default) because it is a
    // load-bearing property of the recovery invariant.
    fn state(&self) -> Result<Option<StageState>> {
        Ok(None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stage::ProcessRows;
    use esp_types::TupleBuilder;

    fn smoothed(ts: Ts, granule: &str, tag: &str, count: i64) -> Tuple {
        let schema = Schema::builder()
            .field("spatial_granule", DataType::Str)
            .field("tag_id", DataType::Str)
            .field("count", DataType::Int)
            .build()
            .unwrap();
        TupleBuilder::new(&schema, ts)
            .set("spatial_granule", granule)
            .unwrap()
            .set("tag_id", tag)
            .unwrap()
            .set("count", count)
            .unwrap()
            .build()
            .unwrap()
    }

    fn granules_for(out: &Batch, tag: &str) -> Vec<String> {
        out.iter()
            .filter(|t| t.get("tag_id") == Some(&Value::str(tag)))
            .map(|t| {
                t.get("spatial_granule")
                    .unwrap()
                    .as_str()
                    .unwrap()
                    .to_string()
            })
            .collect()
    }

    #[test]
    fn majority_granule_wins() {
        let mut a = ArbitrateStage::new("arbitrate", TieBreak::KeepAll);
        let out = a
            .process_rows(
                Ts::ZERO,
                vec![
                    smoothed(Ts::ZERO, "shelf0", "tag-1", 12),
                    smoothed(Ts::ZERO, "shelf1", "tag-1", 3),
                    smoothed(Ts::ZERO, "shelf1", "tag-2", 7),
                ],
            )
            .unwrap();
        assert_eq!(granules_for(&out, "tag-1"), vec!["shelf0"]);
        assert_eq!(granules_for(&out, "tag-2"), vec!["shelf1"]);
        // Winner's count is carried through.
        assert_eq!(out[0].get("count"), Some(&Value::Int(12)));
    }

    #[test]
    fn tie_keep_all_emits_both() {
        let mut a = ArbitrateStage::new("arbitrate", TieBreak::KeepAll);
        let out = a
            .process_rows(
                Ts::ZERO,
                vec![
                    smoothed(Ts::ZERO, "shelf0", "tag-1", 5),
                    smoothed(Ts::ZERO, "shelf1", "tag-1", 5),
                ],
            )
            .unwrap();
        let mut gs = granules_for(&out, "tag-1");
        gs.sort();
        assert_eq!(gs, vec!["shelf0", "shelf1"]);
    }

    #[test]
    fn tie_priority_prefers_weaker_antenna() {
        // Paper §4.3.1: ties attributed to the weaker antenna (shelf1).
        let mut a = ArbitrateStage::new(
            "arbitrate",
            TieBreak::Priority(vec![Arc::from("shelf1"), Arc::from("shelf0")]),
        );
        let out = a
            .process_rows(
                Ts::ZERO,
                vec![
                    smoothed(Ts::ZERO, "shelf0", "tag-1", 5),
                    smoothed(Ts::ZERO, "shelf1", "tag-1", 5),
                ],
            )
            .unwrap();
        assert_eq!(granules_for(&out, "tag-1"), vec!["shelf1"]);
    }

    #[test]
    fn raw_readings_count_as_one_each() {
        // Without a count field, each tuple is a single sighting — the
        // Figure 5 "Arbitrate only" configuration.
        let schema = Schema::builder()
            .field("spatial_granule", DataType::Str)
            .field("tag_id", DataType::Str)
            .build()
            .unwrap();
        let raw = |g: &str, tag: &str| {
            TupleBuilder::new(&schema, Ts::ZERO)
                .set("spatial_granule", g)
                .unwrap()
                .set("tag_id", tag)
                .unwrap()
                .build()
                .unwrap()
        };
        let mut a = ArbitrateStage::new("arbitrate", TieBreak::KeepAll);
        let out = a
            .process_rows(
                Ts::ZERO,
                vec![raw("shelf0", "t"), raw("shelf0", "t"), raw("shelf1", "t")],
            )
            .unwrap();
        assert_eq!(granules_for(&out, "t"), vec!["shelf0"]);
        assert_eq!(out[0].get("count"), Some(&Value::Int(2)));
    }

    #[test]
    fn missing_spatial_granule_errors() {
        let schema = Schema::builder()
            .field("tag_id", DataType::Str)
            .build()
            .unwrap();
        let t = TupleBuilder::new(&schema, Ts::ZERO)
            .set("tag_id", "x")
            .unwrap()
            .build()
            .unwrap();
        let mut a = ArbitrateStage::new("arbitrate", TieBreak::KeepAll);
        assert!(a.process_rows(Ts::ZERO, vec![t]).is_err());
    }

    #[test]
    fn empty_epoch_is_empty() {
        let mut a = ArbitrateStage::new("arbitrate", TieBreak::KeepAll);
        assert!(a.process_rows(Ts::ZERO, vec![]).unwrap().is_empty());
    }
}
