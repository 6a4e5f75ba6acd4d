//! Well-known stream schemas shared by the ESP stages, the receptor
//! simulators, and the paper's six queries.
//!
//! Field-name constants live here so stages, simulators, and queries agree
//! on spelling; each `*_schema()` function returns the interned singleton
//! `Arc<Schema>` for its layout, so callers anywhere in the process share
//! one allocation and schema identity checks are pointer comparisons.

use std::sync::{Arc, OnceLock};

use crate::{registry, DataType, Schema};

/// Build-once helper: construct the schema on first call, intern it, and
/// hand out clones of the canonical `Arc` thereafter.
fn cached(cell: &OnceLock<Arc<Schema>>, build: impl FnOnce() -> Arc<Schema>) -> Arc<Schema> {
    Arc::clone(cell.get_or_init(|| registry::intern(&build())))
}

/// The receptor device id field injected by the ESP processor.
pub const RECEPTOR_ID: &str = "receptor_id";
/// The spatial-granule attribute automatically added by ESP (paper §4 fn. 2).
pub const SPATIAL_GRANULE: &str = "spatial_granule";
/// RFID tag identifier field.
pub const TAG_ID: &str = "tag_id";
/// Scalar temperature field (degrees Celsius).
pub const TEMP: &str = "temp";
/// Scalar sound-level field (ADC units, as in Figure 9(c)).
pub const NOISE: &str = "noise";
/// X10 event value field (the string `"ON"`).
pub const VALUE: &str = "value";
/// Battery/supply voltage field (volts) — correlates with temperature via
/// battery chemistry, which model-based cleaning (BBQ-style, paper §6.3.1)
/// exploits for cross-sensor outlier detection.
pub const VOLTAGE: &str = "voltage";

/// Raw RFID sighting: `(receptor_id, tag_id)`.
///
/// One tuple per tag observed in one poll cycle of one reader.
pub fn rfid_schema() -> Arc<Schema> {
    static CELL: OnceLock<Arc<Schema>> = OnceLock::new();
    cached(&CELL, || {
        Schema::builder()
            .field(RECEPTOR_ID, DataType::Int)
            .field(TAG_ID, DataType::Str)
            .build()
            .expect("static schema")
    })
}

/// Raw mote temperature sample: `(receptor_id, temp)`.
pub fn temp_schema() -> Arc<Schema> {
    static CELL: OnceLock<Arc<Schema>> = OnceLock::new();
    cached(&CELL, || {
        Schema::builder()
            .field(RECEPTOR_ID, DataType::Int)
            .field(TEMP, DataType::Float)
            .build()
            .expect("static schema")
    })
}

/// Mote temperature sample with battery voltage:
/// `(receptor_id, temp, voltage)`.
pub fn temp_voltage_schema() -> Arc<Schema> {
    static CELL: OnceLock<Arc<Schema>> = OnceLock::new();
    cached(&CELL, || {
        Schema::builder()
            .field(RECEPTOR_ID, DataType::Int)
            .field(TEMP, DataType::Float)
            .field(VOLTAGE, DataType::Float)
            .build()
            .expect("static schema")
    })
}

/// Raw mote sound sample: `(receptor_id, noise)`.
pub fn sound_schema() -> Arc<Schema> {
    static CELL: OnceLock<Arc<Schema>> = OnceLock::new();
    cached(&CELL, || {
        Schema::builder()
            .field(RECEPTOR_ID, DataType::Int)
            .field(NOISE, DataType::Float)
            .build()
            .expect("static schema")
    })
}

/// Raw X10 motion event: `(receptor_id, value)` where `value = 'ON'`.
pub fn motion_schema() -> Arc<Schema> {
    static CELL: OnceLock<Arc<Schema>> = OnceLock::new();
    cached(&CELL, || {
        Schema::builder()
            .field(RECEPTOR_ID, DataType::Int)
            .field(VALUE, DataType::Str)
            .build()
            .expect("static schema")
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schemas_have_expected_fields() {
        assert!(rfid_schema().contains(TAG_ID));
        assert!(rfid_schema().contains(RECEPTOR_ID));
        assert!(temp_schema().contains(TEMP));
        assert!(sound_schema().contains(NOISE));
        assert!(motion_schema().contains(VALUE));
        assert!(temp_voltage_schema().contains(VOLTAGE));
        assert!(temp_voltage_schema().contains(TEMP));
    }

    #[test]
    fn repeated_calls_share_one_interned_allocation() {
        assert!(Arc::ptr_eq(&rfid_schema(), &rfid_schema()));
        assert!(Arc::ptr_eq(&temp_schema(), &temp_schema()));
        // A structurally identical schema built by hand unifies with the
        // well-known singleton once interned.
        let hand_rolled = Schema::builder()
            .field(RECEPTOR_ID, DataType::Int)
            .field(TAG_ID, DataType::Str)
            .build()
            .unwrap();
        assert!(!Arc::ptr_eq(&hand_rolled, &rfid_schema()));
        assert!(Arc::ptr_eq(
            &crate::registry::intern(&hand_rolled),
            &rfid_schema()
        ));
    }

    #[test]
    fn spatial_granule_not_in_raw_schemas() {
        // The spatial_granule attribute is injected by the ESP processor,
        // not produced by receptors.
        for s in [
            rfid_schema(),
            temp_schema(),
            sound_schema(),
            motion_schema(),
            temp_voltage_schema(),
        ] {
            assert!(!s.contains(SPATIAL_GRANULE));
        }
    }
}
