//! Stage state captured at epoch boundaries.
//!
//! Epoch-aligned checkpointing (see `esp-durability`) snapshots a
//! pipeline by asking every stage for its state *at an epoch
//! boundary* — the only instant the dataflow is quiescent: between two
//! [`EpochRunner::step`](crate::EpochRunner::step) calls every stage
//! has processed its epoch and no payload is in flight. That alignment
//! is what makes a snapshot plus a WAL-suffix replay byte-identical to
//! an uninterrupted run.
//!
//! State is an opaque byte blob ([`StageState`]) encoded with the
//! [`esp_types::snap`] codec. Stages with no cross-epoch state simply
//! report `None` (the default); anything holding a window buffer,
//! running aggregate, or candidate set overrides
//! [`Stage::state`](crate::Stage::state)/[`Stage::restore`](crate::Stage::restore).
//! Restoring into a freshly built, identically configured stage and
//! feeding it the same inputs must produce byte-identical output to the
//! original: recovery correctness reduces to this per-stage property plus
//! WAL replay ordering.

use esp_types::EspError;

/// Serialized cross-epoch state of one stage.
///
/// The blob is produced and consumed by the same stage type; the
/// snapshot layer never interprets it beyond storing and checksumming.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct StageState(pub Vec<u8>);

impl StageState {
    /// The encoded bytes.
    pub fn bytes(&self) -> &[u8] {
        &self.0
    }
}

/// The error a stateless-by-default implementation raises when handed a
/// blob anyway — a config/version mismatch, never silently ignored.
pub fn unexpected_state(who: &str) -> EspError {
    EspError::Snapshot(format!(
        "'{who}' declares no cross-epoch state but a snapshot holds a blob for it \
         (pipeline configuration changed since the checkpoint?)"
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unexpected_state_is_a_snapshot_error() {
        assert!(matches!(
            unexpected_state("op"),
            EspError::Snapshot(m) if m.contains("op")
        ));
    }
}
