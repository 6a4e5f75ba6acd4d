//! Decoded wire readings → stream tuples.
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

use std::sync::Arc;

use esp_receptors::wire::Reading;
use esp_types::{well_known, Chunk, Result, Schema, Tuple, Value};

/// Cached per-kind schemas. The spatial-granule injector in `esp-core`
/// caches by schema pointer identity, so all tuples of one kind must share
/// one `Arc<Schema>`; clone this struct freely — clones share the arcs.
#[derive(Debug, Clone)]
pub struct ReadingSchemas {
    scalar: Arc<Schema>,
    tag: Arc<Schema>,
    event: Arc<Schema>,
    dual: Arc<Schema>,
}

impl Default for ReadingSchemas {
    fn default() -> ReadingSchemas {
        ReadingSchemas::new()
    }
}

impl ReadingSchemas {
    /// Build the cache (one allocation per kind).
    pub fn new() -> ReadingSchemas {
        ReadingSchemas {
            scalar: well_known::temp_schema(),
            tag: well_known::rfid_schema(),
            event: well_known::motion_schema(),
            dual: well_known::temp_voltage_schema(),
        }
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
                Arc::clone(&self.scalar),
                *ts,
                vec![Value::Int(i64::from(receptor.0)), Value::Float(*value)],
            ),
            Reading::Tag {
                receptor,
                ts,
                tag_id,
            } => Tuple::new_unchecked(
                Arc::clone(&self.tag),
                *ts,
                vec![Value::Int(i64::from(receptor.0)), Value::str(tag_id)],
            ),
            Reading::Event {
                receptor,
                ts,
                value,
            } => Tuple::new_unchecked(
                Arc::clone(&self.event),
                *ts,
                vec![Value::Int(i64::from(receptor.0)), Value::str(value)],
            ),
            Reading::Dual { receptor, ts, a, b } => Tuple::new_unchecked(
                Arc::clone(&self.dual),
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
        match reading {
            Reading::Scalar { .. } => &self.scalar,
            Reading::Tag { .. } => &self.tag,
            Reading::Event { .. } => &self.event,
            Reading::Dual { .. } => &self.dual,
        }
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
