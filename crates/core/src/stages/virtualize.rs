//! Stage 5 — **Virtualize**: cross-receptor-type, application-level
//! cleaning.
//!
//! Virtualize combines readings from different types of devices and
//! different proximity groups into application-level data — the paper's
//! "person detector" (§6.2, Query 6): each modality's cleaned stream is
//! normalized to a vote, and an event is emitted when the vote total
//! reaches a threshold.

use std::sync::Arc;

use esp_stream::Payload;
use esp_types::{DataType, Field, Result, Schema, Ts, Tuple, Value};

use crate::stage::Stage;

/// A boxed vote predicate: given the epoch's input tuples, does this
/// modality vote "present"?
pub type VoteFn = Box<dyn FnMut(&[Tuple]) -> bool + Send>;

/// One modality's vote: a named predicate over the epoch's input tuples.
pub struct VoteRule {
    /// Modality label (diagnostics).
    pub label: String,
    /// Returns true when this modality votes "present" given the epoch's
    /// tuples.
    pub vote: VoteFn,
}

impl VoteRule {
    /// Build a rule from a closure.
    pub fn new(
        label: impl Into<String>,
        vote: impl FnMut(&[Tuple]) -> bool + Send + 'static,
    ) -> VoteRule {
        VoteRule {
            label: label.into(),
            vote: Box::new(vote),
        }
    }

    /// Votes yes when any tuple has `field` ≥ `threshold` (numeric) — e.g.
    /// the paper's `sensors.noise > 525`.
    pub fn numeric_above(
        label: impl Into<String>,
        field: impl Into<String>,
        threshold: f64,
    ) -> VoteRule {
        let field = field.into();
        VoteRule::new(label, move |tuples| {
            tuples.iter().any(|t| {
                t.get(&field)
                    .and_then(Value::as_f64)
                    .is_some_and(|x| x > threshold)
            })
        })
    }

    /// Votes yes when any tuple's `field` equals `value` — e.g. X10
    /// `value = 'ON'`.
    pub fn value_equals(
        label: impl Into<String>,
        field: impl Into<String>,
        value: impl Into<Value>,
    ) -> VoteRule {
        let field = field.into();
        let value = value.into();
        VoteRule::new(label, move |tuples| {
            tuples
                .iter()
                .any(|t| t.get(&field).is_some_and(|v| v.sql_eq(&value)))
        })
    }

    /// Votes yes when at least `n` tuples carry a non-null `field` — e.g.
    /// the paper's `count(distinct tag_id) > 1` becomes
    /// `min_tuples_with("tag_id", 2)` over the cleaned RFID stream.
    pub fn min_tuples_with(
        label: impl Into<String>,
        field: impl Into<String>,
        n: usize,
    ) -> VoteRule {
        let field = field.into();
        VoteRule::new(label, move |tuples| {
            tuples
                .iter()
                .filter(|t| t.get(&field).is_some_and(|v| !v.is_null()))
                .count()
                >= n
        })
    }
}

/// The built-in Virtualize stage: threshold voting across modalities.
///
/// Emits one `(event, votes)` tuple per epoch in which at least
/// `threshold` rules vote yes; silent otherwise.
pub struct VirtualizeStage {
    name: String,
    event: Value,
    rules: Vec<VoteRule>,
    threshold: usize,
    schema: Arc<Schema>,
}

impl VirtualizeStage {
    /// Build a voting virtualizer that emits `event` when at least
    /// `threshold` of `rules` vote yes.
    pub fn voting(
        name: impl Into<String>,
        event: impl Into<Value>,
        rules: Vec<VoteRule>,
        threshold: usize,
    ) -> Result<VirtualizeStage> {
        if threshold == 0 || threshold > rules.len() {
            return Err(esp_types::EspError::Config(format!(
                "vote threshold {threshold} out of range for {} rules",
                rules.len()
            )));
        }
        let schema = Schema::new(vec![
            Field::new("event", DataType::Any),
            Field::new("votes", DataType::Int),
        ])?;
        Ok(VirtualizeStage {
            name: name.into(),
            event: event.into(),
            rules,
            threshold,
            schema,
        })
    }

    /// The vote threshold.
    pub fn threshold(&self) -> usize {
        self.threshold
    }
}

impl Stage for VirtualizeStage {
    fn name(&self) -> &str {
        &self.name
    }

    fn process(&mut self, epoch: Ts, input: Payload) -> Result<Payload> {
        let input = input.into_rows();
        let mut votes = 0usize;
        for rule in &mut self.rules {
            if (rule.vote)(&input) {
                votes += 1;
            }
        }
        if votes < self.threshold {
            return Ok(Payload::empty());
        }
        Ok(Payload::from(vec![Tuple::new_unchecked(
            Arc::clone(&self.schema),
            epoch,
            vec![self.event.clone(), Value::Int(votes as i64)],
        )]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stage::ProcessRows;
    use esp_types::{well_known, TupleBuilder};

    fn sound(ts: Ts, level: f64) -> Tuple {
        TupleBuilder::new(&well_known::sound_schema(), ts)
            .set("receptor_id", 1i64)
            .unwrap()
            .set("noise", level)
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

    fn motion(ts: Ts, v: &str) -> Tuple {
        TupleBuilder::new(&well_known::motion_schema(), ts)
            .set("receptor_id", 2i64)
            .unwrap()
            .set("value", v)
            .unwrap()
            .build()
            .unwrap()
    }

    fn person_detector(threshold: usize) -> VirtualizeStage {
        VirtualizeStage::voting(
            "virtualize",
            "Person-in-room",
            vec![
                VoteRule::numeric_above("sound", "noise", 525.0),
                VoteRule::min_tuples_with("rfid", "tag_id", 1),
                VoteRule::value_equals("motion", "value", "ON"),
            ],
            threshold,
        )
        .unwrap()
    }

    #[test]
    fn two_of_three_votes_detects() {
        let mut v = person_detector(2);
        let out = v
            .process_rows(
                Ts::ZERO,
                vec![sound(Ts::ZERO, 700.0), rfid(Ts::ZERO, "badge-1")],
            )
            .unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].get("event"), Some(&Value::str("Person-in-room")));
        assert_eq!(out[0].get("votes"), Some(&Value::Int(2)));
    }

    #[test]
    fn one_vote_is_not_enough() {
        let mut v = person_detector(2);
        let out = v
            .process_rows(Ts::ZERO, vec![sound(Ts::ZERO, 700.0)])
            .unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn quiet_room_produces_nothing() {
        let mut v = person_detector(2);
        // Sound below threshold + motion OFF: zero votes.
        let out = v
            .process_rows(
                Ts::ZERO,
                vec![sound(Ts::ZERO, 400.0), motion(Ts::ZERO, "OFF")],
            )
            .unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn all_three_modalities_vote() {
        let mut v = person_detector(3);
        let out = v
            .process_rows(
                Ts::ZERO,
                vec![
                    sound(Ts::ZERO, 600.0),
                    rfid(Ts::ZERO, "badge-1"),
                    motion(Ts::ZERO, "ON"),
                ],
            )
            .unwrap();
        assert_eq!(out[0].get("votes"), Some(&Value::Int(3)));
    }

    #[test]
    fn threshold_validation() {
        assert!(VirtualizeStage::voting("v", "e", vec![], 1).is_err());
        let rules = vec![VoteRule::value_equals("m", "value", "ON")];
        assert!(VirtualizeStage::voting("v", "e", rules, 2).is_err());
    }
}
